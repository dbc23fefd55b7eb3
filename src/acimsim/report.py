"""Deterministic CSV and JSON report writers.

CSV bytes are a pure function of the result rows (fixed float formatting, LF
newlines); anything nondeterministic like wall-clock time lives only in the
JSON meta block.
"""

import csv
import json
import math
import os
from enum import Enum


def fmt_value(v) -> str:
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt_value(v) for v in row])


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return fmt_value(obj)
    if isinstance(obj, Enum):
        return obj.value
    if hasattr(obj, "item"):      # numpy scalars
        return _jsonable(obj.item())
    return obj


def write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit(out_dir, name, header, rows, config_echo, meta) -> None:
    """Write <name>.csv and <name>.json under out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    write_csv(os.path.join(out_dir, f"{name}.csv"), header, rows)
    write_json(os.path.join(out_dir, f"{name}.json"), {
        "config": config_echo,
        "columns": list(header),
        "results": [list(r) for r in rows],
        "meta": meta,
    })
