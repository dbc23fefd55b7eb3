"""README's "Library use" example runs against the current API, and its
Configuration key list names exactly the loader's keys."""

import re
from pathlib import Path

from acimsim.config import KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, f"{README} (Library use)", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_configuration_key_list_matches_loader():
    section = README.read_text().split("## Configuration", 1)[1] \
        .split("\n## ", 1)[0]
    # one "- `[section]`: `key` (...), ..." item per section, wrapped lines
    # indented under it
    items = re.findall(r"^- `\[(\w+)\]`:(.*(?:\n  .*)*)", section, re.M)
    listed = {name: re.findall(r"`(\w+)`\s+\(", body) for name, body in items}
    assert listed == {name: list(keys) for name, keys in KEYS.items()}
