"""Desk-scale datasets: seeded Gaussian blobs and IDX file loading."""

import math
import struct

import numpy as np

from .errors import DataError, check_int

_IDX_DTYPES = {
    0x08: np.dtype(">u1"),
    0x09: np.dtype(">i1"),
    0x0B: np.dtype(">i2"),
    0x0C: np.dtype(">i4"),
    0x0D: np.dtype(">f4"),
    0x0E: np.dtype(">f8"),
}
# the fewest samples whose test quarter, round(n / 4), holds one
MIN_SAMPLES = 3


def check_blobs(samples: int, features: int, classes: int) -> None:
    """Raise DataError unless make_blobs can draw this data."""
    check_int(samples, "samples", DataError, None)
    check_int(features, "features", DataError, 1)
    check_int(classes, "classes", DataError, 1)
    need = max(classes, MIN_SAMPLES)
    if samples < need:
        raise DataError(f"need at least {need} samples, got {samples}")


def make_blobs(samples: int, features: int, classes: int, seed: int,
               spread: float = 1.0):
    """Deterministic Gaussian-blob classification data.

    Class centers are drawn once from the seed and scaled to radius 2, so
    the class margin is controlled by 2 / spread.
    """
    check_blobs(samples, features, classes)
    check_int(seed, "seed", DataError, 0)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    centers = gen.normal(size=(classes, features))
    centers *= 2.0 / np.linalg.norm(centers, axis=1, keepdims=True)
    y = np.arange(samples) % classes
    x = centers[y] + spread * gen.normal(size=(samples, features))
    perm = gen.permutation(samples)
    return x[perm], y[perm]


def train_test_split(x: np.ndarray, y: np.ndarray):
    if len(x) < MIN_SAMPLES:
        raise DataError(f"need at least {MIN_SAMPLES} samples for a test "
                        f"set, got {len(x)}")
    n_test = round(len(x) * 0.25)   # the last quarter is the test set
    n_train = len(x) - n_test
    return (x[:n_train], y[:n_train]), (x[n_train:], y[n_train:])


def load_idx(path) -> np.ndarray:
    """Read an IDX file (the MNIST container format) into a numpy array."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read IDX file {path}: {exc}") from exc
    if len(raw) < 4 or raw[0] != 0 or raw[1] != 0:
        raise DataError(f"{path}: not an IDX file")
    type_code, ndim = raw[2], raw[3]
    if type_code not in _IDX_DTYPES:
        raise DataError(f"{path}: unknown IDX type code 0x{type_code:02x}")
    header = 4 + 4 * ndim
    if len(raw) < header:
        raise DataError(f"{path}: truncated IDX header")
    dims = struct.unpack(f">{ndim}I", raw[4:header])
    dtype = _IDX_DTYPES[type_code]
    body = raw[header:]
    if len(body) != math.prod(dims) * dtype.itemsize:
        raise DataError(f"{path}: IDX payload size mismatch")
    return np.frombuffer(body, dtype=dtype).reshape(dims).astype(np.float64)

