"""Hostile-value gate of the config loader.

Every key of `config.KEYS` is set, one at a time, on a small base config
to each of -1, 0, nan, inf, -inf, an empty value and a word; keys with a
fixed upper bound or an arbitrary-precision use (rows, adc_bits, enc_bits,
w_bits, x_bits, the three seeds, [sweep] adc_bits and enc_bits) also get
2^63. Each subcommand that reads the key then runs in-process, in a fresh
working directory. It must exit 0 or 2, never 1 (a traceback) nor 3. An
exit 2 must name the file, the section and the key, and must come before
any training. An exit 0 must write a CSV with no NaN or inf in a column
that is finite for the unedited base config.

Sizes and loop counts (samples, epochs, the [analysis] dims, trials,
voting_samples) have no upper bound yet, so 2^63 stays out of their
values: such a config would ask for that much work or memory.
"""

import csv
import math
from pathlib import Path

import pytest

from acimsim import cli
from acimsim.config import KEYS, load_config

BASE = {
    "macro": {"rows": "32", "adc_bits": "7", "enc_bits": "1"},
    "noise": {"random": "0.3", "random_unit": "lsb_rms", "nonlin": "0.2",
              "nonlin_unit": "lsb_rms", "seed": "9"},
    "mode": {"scheme": "bit-serial", "hybrid_boundary": "1",
             "voting_boundary": "1", "voting_samples": "3"},
    "quant": {"w_bits": "4", "x_bits": "4"},
    "model": {},
    "data": {"kind": "blobs", "samples": "60", "features": "8",
             "classes": "3", "spread": "0.5", "seed": "5"},
    "analysis": {"batch": "6", "in_dim": "16", "out_dim": "4",
                 "trials": "100"},
    "output": {"dir": "out", "formats": "csv"},
    "train": {"lr": "0.1", "epochs": "2", "batch": "16", "seed": "3",
              "nat_sigma": "0.1"},
    "sweep": {"adc_bits": "5, 7", "noise": "0.0, 0.5"},
}

HOSTILE = ("-1", "0", "nan", "inf", "-inf", "", "lots")
BIG = str(1 << 63)
BOUNDED = {("macro", "rows"), ("macro", "adc_bits"), ("macro", "enc_bits"),
           ("quant", "w_bits"), ("quant", "x_bits"), ("train", "w_bits"),
           ("train", "x_bits"), ("noise", "seed"), ("data", "seed"),
           ("train", "seed"), ("sweep", "adc_bits"), ("sweep", "enc_bits")}

ALL = tuple(cli.COMMANDS)
ENGINE = ("simulate", "sweep", "csnr", "linearity", "distribution")
# the subcommands that read each key; [quant] widths also set the trained
# model's widths, as the base [train] leaves its own out
READERS = {
    "macro": ENGINE,
    "noise": ("simulate", "sweep", "csnr", "linearity"),
    "mode": ENGINE,
    "quant": ("simulate", "sweep", "train", "csnr", "distribution",
              "sparsity"),
    "model": ("simulate", "sweep"),
    "data": ("simulate", "sweep", "train"),
    "analysis": ("csnr", "distribution", "sparsity"),
    "output": ALL,
    "train": ("simulate", "sweep", "train"),
    "sweep": ("sweep",),
}
KEY_READERS = {("noise", "seed"): ALL, ("analysis", "trials"): ("linearity",)}

CASES = [(section, key, value)
         for section, keys in KEYS.items() for key in keys
         for value in HOSTILE + ((BIG,) if (section, key) in BOUNDED else ())]


def _ini(sections) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n"
                                            for k, v in keys.items()) + "\n"
                   for name, keys in sections.items())


def _read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _finite_columns(rows) -> set:
    return {col for col in rows[0]
            if all(math.isfinite(float(r[col])) for r in rows)}


@pytest.fixture(scope="module")
def base_finite(tmp_path_factory):
    """command -> the CSV columns that are finite on the base config."""
    root = tmp_path_factory.mktemp("gate-base")
    path = root / "base.ini"
    path.write_text(_ini(BASE))
    finite = {}
    for cmd in ALL:
        assert cli.main([cmd, "--config", str(path),
                         "--out", str(root / "out")]) == 0, cmd
        finite[cmd] = _finite_columns(_read_csv(root / "out" / f"{cmd}.csv"))
    return finite


def test_gate_covers_every_key():
    # the base sets only real keys; each other key is added by its edit, and
    # every BOUNDED pair is a real key that also gets 2^63
    assert set(BASE) == set(KEYS)
    assert all(set(keys) <= set(KEYS[name]) for name, keys in BASE.items())
    assert len(CASES) == 7 * sum(map(len, KEYS.values())) + len(BOUNDED)


@pytest.mark.parametrize("section, key, value", CASES)
def test_hostile_value_exits_0_or_2(section, key, value, base_finite,
                                    tmp_path, monkeypatch, capsys):
    sections = {name: dict(keys) for name, keys in BASE.items()}
    sections[section][key] = value
    path = tmp_path / "gate.ini"
    path.write_text(_ini(sections))
    monkeypatch.chdir(tmp_path)
    trained, train = [], cli.train

    def counting_train(*args, **kw):
        trained.append(cmd)
        return train(*args, **kw)
    monkeypatch.setattr(cli, "train", counting_train)
    for cmd in KEY_READERS.get((section, key), READERS[section]):
        trained.clear()
        rc = cli.main([cmd, "--config", str(path)])
        err = capsys.readouterr().err
        assert rc in (0, 2), (cmd, rc, err)
        if rc == 2:
            # the tmp_path holds the key too, so look only after the section
            where = f"{path}: [{section}]"
            assert where in err and key in err.split(where, 1)[1], (cmd, err)
            assert not trained, (cmd, "exit 2 after training", err)
            continue
        out = Path(load_config(str(path)).output.dir) / f"{cmd}.csv"
        rows = _read_csv(out)
        assert rows, (cmd, "empty CSV")
        # an emptied [sweep] axis drops its column, which is not a failure
        bad = (base_finite[cmd] & set(rows[0])) - _finite_columns(rows)
        assert not bad, (cmd, f"non-finite {sorted(bad)}")
