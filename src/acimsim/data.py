"""Desk-scale datasets: seeded Gaussian blobs and IDX file loading."""

import struct

import numpy as np

from .errors import DataError

_IDX_DTYPES = {
    0x08: np.dtype(">u1"),
    0x09: np.dtype(">i1"),
    0x0B: np.dtype(">i2"),
    0x0C: np.dtype(">i4"),
    0x0D: np.dtype(">f4"),
    0x0E: np.dtype(">f8"),
}


def check_blobs(samples: int, features: int, classes: int) -> None:
    """Raise DataError unless make_blobs can draw this data."""
    for name, value in (("features", features), ("classes", classes)):
        if value < 1:
            raise DataError(f"{name} must be >= 1, got {value}")
    if samples < classes:
        raise DataError(f"need at least {classes} samples, got {samples}")


def make_blobs(samples: int, features: int, classes: int, seed: int,
               spread: float = 1.0, center_scale: float = 2.0):
    """Deterministic Gaussian-blob classification data.

    Class centers are drawn once from the seed and scaled to a common radius,
    so the class margin is controlled by center_scale / spread.
    """
    check_blobs(samples, features, classes)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    centers = gen.normal(size=(classes, features))
    centers *= center_scale / np.linalg.norm(centers, axis=1, keepdims=True)
    y = np.arange(samples) % classes
    x = centers[y] + spread * gen.normal(size=(samples, features))
    perm = gen.permutation(samples)
    return x[perm], y[perm]


def train_test_split(x: np.ndarray, y: np.ndarray, test_fraction: float = 0.25):
    n_test = int(round(len(x) * test_fraction))
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
    count = int(np.prod(dims)) if dims else 1
    body = raw[header:]
    if len(body) != count * dtype.itemsize:
        raise DataError(f"{path}: IDX payload size mismatch")
    return np.frombuffer(body, dtype=dtype).reshape(dims).astype(np.float64)

