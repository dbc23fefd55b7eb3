"""Hostile-value gate of the config loader.

Every key of `config.KEYS` is set, one at a time, on a small base config
to each of -1, 0, nan, inf, -inf, an empty value and a word; keys with a
fixed upper bound or an arbitrary-precision use (rows, adc_bits, enc_bits,
w_bits, x_bits, the three seeds, [sweep] adc_bits and enc_bits, and the
bounded sizes and loop counts: voting_samples, [data] samples, epochs, the
[analysis] dims and trials) also get 2^63. The retired keys get every
value too, and must exit 2 as unknown keys: the [train] widths, which
[quant] replaced, [mode] scheme, which restated [macro] enc_bits, [model]
builtin, which had one value, and [data] kind, which restated whether
images and labels are set. A key of the retired [output] section, whose
dir restated --out and whose formats could drop the JSON, must exit 2 as an
unknown section.
Each subcommand that reads the
key then runs in-process, in a fresh working directory, without --out. It
must exit 0 or 2, never 1 (a traceback) nor 3. An exit 2 must name the file,
the section and the key (for images or labels set alone, the other key of
the pair, which is missing), and must come before any training. An exit 0
must write out/<command>.csv and .json, the CSV with no NaN or inf in a
column that is finite for the unedited base config.
"""

import csv
import math
from pathlib import Path

import pytest

from acimsim import cli
from acimsim.config import KEYS

BASE = {
    "macro": {"rows": "32", "adc_bits": "7", "enc_bits": "1"},
    "noise": {"random": "0.3", "random_unit": "lsb_rms", "nonlin": "0.2",
              "nonlin_unit": "lsb_rms", "seed": "9"},
    "mode": {"hybrid_boundary": "1", "voting_boundary": "1",
             "voting_samples": "3"},
    "quant": {"w_bits": "4", "x_bits": "4"},
    "model": {},
    "data": {"samples": "60", "features": "8", "classes": "3",
             "spread": "0.5", "seed": "5"},
    "analysis": {"batch": "6", "in_dim": "16", "out_dim": "4",
                 "trials": "100"},
    "train": {"lr": "0.1", "epochs": "2", "batch": "16", "seed": "3",
              "nat_sigma": "0.1"},
    "sweep": {"adc_bits": "5, 7", "noise": "0.0, 0.5"},
}

HOSTILE = ("-1", "0", "nan", "inf", "-inf", "", "lots")
BIG = str(1 << 63)
BOUNDED = {("macro", "rows"), ("macro", "adc_bits"), ("macro", "enc_bits"),
           ("quant", "w_bits"), ("quant", "x_bits"), ("noise", "seed"),
           ("data", "seed"), ("train", "seed"), ("sweep", "adc_bits"),
           ("sweep", "enc_bits"),
           ("mode", "voting_samples"), ("data", "samples"), ("train", "epochs"),
           ("analysis", "batch"), ("analysis", "in_dim"),
           ("analysis", "out_dim"), ("analysis", "trials")}

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

RETIRED = (("train", "w_bits"), ("train", "x_bits"), ("mode", "scheme"),
           ("model", "builtin"), ("data", "kind"))
RETIRED_SECTIONS = (("output", "dir"), ("output", "formats"))
# a key of a pair set alone fails naming the other, which is missing
PARTNER = {("data", "images"): "labels", ("data", "labels"): "images"}

CASES = [(section, key, value)
         for section, keys in KEYS.items() for key in keys
         for value in HOSTILE + ((BIG,) if (section, key) in BOUNDED else ())]
CASES += [(section, key, value) for section, key in RETIRED + RETIRED_SECTIONS
          for value in HOSTILE + (BIG,)]


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
    # the base sets only real keys; each other key is added by its edit,
    # every BOUNDED pair is a real key that also gets 2^63, no RETIRED pair
    # is a key and no RETIRED_SECTIONS pair a section
    assert set(BASE) == set(KEYS)
    assert all(set(keys) <= set(KEYS[name]) for name, keys in BASE.items())
    assert all(key not in KEYS[name] for name, key in RETIRED)
    assert all(name not in KEYS for name, _ in RETIRED_SECTIONS)
    assert len(CASES) == (7 * sum(map(len, KEYS.values())) + len(BOUNDED)
                          + 8 * (len(RETIRED) + len(RETIRED_SECTIONS)))


@pytest.mark.parametrize("section, key, value", CASES)
def test_hostile_value_exits_0_or_2(section, key, value, base_finite,
                                    tmp_path, monkeypatch, capsys):
    sections = {name: dict(keys) for name, keys in BASE.items()}
    sections.setdefault(section, {})[key] = value
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
        if (section, key) in RETIRED:
            assert rc == 2 and "unknown key" in err, (cmd, rc, err)
        if (section, key) in RETIRED_SECTIONS:
            assert rc == 2, (cmd, rc, err)
            assert f"{path}: [{section}] unknown section" in err, (cmd, err)
            continue
        if rc == 2:
            # the tmp_path holds the key too, so look only after the section
            where = f"{path}: [{section}]"
            named = PARTNER.get((section, key), key)
            assert where in err and named in err.split(where, 1)[1], (cmd, err)
            assert not trained, (cmd, "exit 2 after training", err)
            continue
        out = Path("out") / f"{cmd}.csv"
        assert out.with_suffix(".json").exists(), (cmd, "no JSON")
        rows = _read_csv(out)
        assert rows, (cmd, "empty CSV")
        # an emptied [sweep] axis drops its column, which is not a failure
        bad = (base_finite[cmd] & set(rows[0])) - _finite_columns(rows)
        assert not bad, (cmd, f"non-finite {sorted(bad)}")
