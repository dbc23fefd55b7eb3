"""The perfbench span tracer patches acimsim functions by name; every name it
lists must exist, or only traced benchmark runs would notice the loss."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"acimsim.{mod}.{name}" for mod, name in spans.TARGETS
               if not hasattr(importlib.import_module(f"acimsim.{mod}"), name)]
    assert spans.TARGETS and not missing
