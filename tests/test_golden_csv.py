"""Golden CSV gate: every subcommand on every shipped config, byte for byte.

The sha256 of each CSV was recorded before the engine's chunked readout
went in, so a refactor that moves any output byte of `configs/*.ini` fails
here. The CLI runs in-process at --threads 1, and the `sweep.ini` sweep
also at --threads 4; `sweep` is absent for the configs without a [sweep]
section, which it rejects.

`train`, `simulate` and `sweep` first train a model with float64 SGD, whose
BLAS GEMMs may round their last bits differently under another numpy or
BLAS build or CPU kernel, and those differences grow over training. `csnr`
prints its float64 reference GEMM (`act @ w`) to 12 digits, which another
kernel moves too. These hashes hold only for the numpy version, BLAS build
and BLAS kernels they were checked on (RECORDED_ON); elsewhere they are
skipped, naming both. The kernel is the one OpenBLAS runs, which its
DYNAMIC_ARCH build picks for the CPU at load time (OPENBLAS_CORETYPE
overrides it), not the build target that numpy's build record names.
The other CSVs come from the integer engine and Philox draws, and are
checked anywhere. So is VOTED_LINEARITY, the `linearity` CSV of
`linearity.ini` with majority voting and nonlinear noise switched on.
"""

import ctypes
import hashlib
import math
from pathlib import Path

import numpy as np
import pytest

from acimsim.cli import main
from acimsim.report import fmt_value

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BLAS_DEPENDENT = {"train", "simulate", "sweep", "csnr"}
_BUILD = ("2.4.6", "OpenBLAS 0.3.31.188.0  USE64BITINT DYNAMIC_ARCH "
                   "NO_AFFINITY Haswell MAX_THREADS=64")
RECORDED_ON = {(*_BUILD, "SkylakeX"), (*_BUILD, "Haswell")}


def _running_kernel():
    """The kernel the OpenBLAS bundled in numpy.libs runs, as its
    scipy_openblas_get_corename64_ names it; None without that library."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so*")):
        try:   # numpy has loaded it, so this is the same instance
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def _numpy_blas():
    """(numpy version, BLAS build, running BLAS kernel) of this
    interpreter."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy < 1.25 has no dict mode
        blas = {}
    return (np.__version__, blas.get("openblas configuration")
            or f"{blas.get('name')} {blas.get('version')}", _running_kernel())


GOLDEN = {
    ("linearity.ini", "simulate"):
        "4de8b0dcf1adf6da88f6e8e93ee9d00971f8e58222510a1f01b6df41ce3b3ac3",
    ("linearity.ini", "train"):
        "c73b3e0c41f3d29b10961bec9bb17e69c50b5d17a1e7efd953d08e80afa49139",
    ("linearity.ini", "csnr"):
        "ec865751f4e2b429d57ab71c13064a0029f34126b153378d53d46bad656cfb49",
    ("linearity.ini", "linearity"):
        "7c537618f8a5df8790ea34a14f6d350557a62798aee78e7a7ec329b242d37e9a",
    ("linearity.ini", "distribution"):
        "472b21edd993452a91630fcf791333b65fd78b4a214ef031bad9771b870aa353",
    ("linearity.ini", "sparsity"):
        "2b6ae4fa0611adc599bb0a3fede1d878981d2fbc640eae20b79fcd57fef4c902",
    ("simulate.ini", "simulate"):
        "fee54d3d4a2fa2f2fff6be2aa9d06a2edb5e5672cff801d5b9131870e764767e",
    ("simulate.ini", "train"):
        "c862a31118093dbd48ea7e4898d599cb29899d7586292708c6a57e15a0164d2e",
    ("simulate.ini", "csnr"):
        "3150d2e801cfd352ebc0971134b66d535c12d35718e3dae6981297fa82077596",
    ("simulate.ini", "linearity"):
        "749e50b355313f8c567a58b19c3f0aed0b1c0297b2ffa4d007fced04429d1eab",
    ("simulate.ini", "distribution"):
        "472b21edd993452a91630fcf791333b65fd78b4a214ef031bad9771b870aa353",
    ("simulate.ini", "sparsity"):
        "2b6ae4fa0611adc599bb0a3fede1d878981d2fbc640eae20b79fcd57fef4c902",
    ("sweep.ini", "simulate"):
        "670f931092c1788605f281ae51471586da01b3e5ae309a1962d28775e7bb5b1f",
    ("sweep.ini", "sweep"):
        "3b34d7be46e69776e261a3ffb1457d057a1439ec451ccef128be6ece9b5a4bd4",
    ("sweep.ini", "train"):
        "c862a31118093dbd48ea7e4898d599cb29899d7586292708c6a57e15a0164d2e",
    ("sweep.ini", "csnr"):
        "735d5bc5f414feed6f7be033654dc68e2391f6e19b20a10bfd601ccba322b0ba",
    ("sweep.ini", "linearity"):
        "842d1c3f32527c632fe8dc58c05b6a27c36c11ad1ff83dee317da8f6773d23af",
    ("sweep.ini", "distribution"):
        "472b21edd993452a91630fcf791333b65fd78b4a214ef031bad9771b870aa353",
    ("sweep.ini", "sparsity"):
        "2b6ae4fa0611adc599bb0a3fede1d878981d2fbc640eae20b79fcd57fef4c902",
}


def test_golden_covers_every_shipped_config():
    assert {ini for ini, _ in GOLDEN} == {p.name for p in CONFIGS.glob("*.ini")}


@pytest.mark.parametrize("value, text", [
    (math.nan, "nan"), (-math.nan, "nan"), (math.inf, "inf"),
    (-math.inf, "-inf"), (-0.0, "-0"), (np.float64(-math.inf), "-inf"),
    (np.float64(math.nan), "nan"), (0.1, "0.1"), (7, "7")])
def test_fmt_value_spelling(value, text):
    # the CSV spelling of non-finite floats, which no golden config prints
    assert fmt_value(value) == text


# every CSV at --threads 1; the sweep, whose plan classes may run on
# worker threads, also at --threads 4
CASES = [(ini, command, 1) for ini, command in sorted(GOLDEN)] \
    + [("sweep.ini", "sweep", 4)]


@pytest.mark.parametrize("ini,command,threads", [
    pytest.param(ini, command, threads, id=f"{ini}-{command}"
                 + ("" if threads == 1 else f"-threads{threads}"))
    for ini, command, threads in CASES])
def test_golden_csv(tmp_path, ini, command, threads):
    blas = _numpy_blas()
    # on the recorded build the bundled OpenBLAS is known to exist, so a
    # kernel lookup that finds nothing is a defect here, not a platform skip
    assert blas[:2] != _BUILD or blas[2] is not None, \
        f"no OpenBLAS kernel name found for numpy.libs of build {_BUILD}"
    if command in BLAS_DEPENDENT and blas not in RECORDED_ON:
        pytest.skip(f"{command} hash checked on numpy/BLAS/kernel "
                    f"{sorted(RECORDED_ON)}, running {blas}")
    rc = main([command, "--config", str(CONFIGS / ini), "--out",
               str(tmp_path), "--threads", str(threads)])
    assert rc == 0
    csv = (tmp_path / f"{command}.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == GOLDEN[ini, command]


# `linearity.ini` with its voting lines switched on and 0.5 LSB of nonlinear
# noise added: every trial is a 5-sample vote over random and nonlinear draws
VOTED_LINEARITY = \
    "4e8b80e389dc0c2bcf054742511feabea583b275977374d0bc126725069b1a49"


def test_golden_voted_linearity_csv(tmp_path):
    ini = (CONFIGS / "linearity.ini").read_text()
    voted = ini.replace("; voting_boundary = 3", "voting_boundary = 3") \
        .replace("; voting_samples = 5", "voting_samples = 5") \
        .replace("random_unit = lsb_rms\n",
                 "random_unit = lsb_rms\nnonlin = 0.5\n")
    for line in ("voting_boundary = 3", "voting_samples = 5", "nonlin = 0.5"):
        assert f"\n{line}\n" in voted, line   # every edit took
    config = tmp_path / "voted.ini"
    config.write_text(voted)
    rc = main(["linearity", "--config", str(config), "--out",
               str(tmp_path / "out"), "--threads", "1"])
    assert rc == 0
    csv = (tmp_path / "out" / "linearity.csv").read_bytes()
    assert hashlib.sha256(csv).hexdigest() == VOTED_LINEARITY
