"""At run time the package depends on numpy alone: every absolute import in
`src/acimsim` names a standard-library module or numpy.

The check parses the source rather than inspecting `sys.modules` after a
run, because site hooks and numpy itself load modules (setuptools'
`_distutils_hack`, `certifi`, numpy's compiled helpers) that the package
never imports."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "acimsim"


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


def test_runtime_imports_are_stdlib_or_numpy():
    files = sorted(SRC.glob("*.py"))
    assert files
    allowed = sys.stdlib_module_names | {"numpy"}
    foreign = {(path.name, name) for path in files
               for name in _absolute_imports(path)
               if name.split(".")[0] not in allowed}
    assert not foreign
