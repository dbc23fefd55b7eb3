"""Dataset helpers: blob generator determinism, IDX round trips."""

import numpy as np
import pytest

from acimsim.data import load_idx, make_blobs, train_test_split
from acimsim.errors import DataError

from oracles import save_idx


def test_blobs_deterministic():
    a = make_blobs(100, 8, 3, seed=7)
    b = make_blobs(100, 8, 3, seed=7)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = make_blobs(100, 8, 3, seed=8)
    assert not np.array_equal(a[0], c[0])


def test_blobs_shapes_and_labels():
    x, y = make_blobs(90, 5, 3, seed=1)
    assert x.shape == (90, 5) and y.shape == (90,)
    # round-robin assignment keeps classes balanced
    assert [int((y == k).sum()) for k in range(3)] == [30, 30, 30]


def test_blobs_margin_scales_with_spread():
    # tight blobs are linearly separable by the nearest-center rule
    x, y = make_blobs(300, 4, 3, seed=2, spread=0.1)
    centers = np.stack([x[y == k].mean(axis=0) for k in range(3)])
    pred = np.argmin(((x[:, None, :] - centers) ** 2).sum(-1), axis=1)
    assert np.mean(pred == y) == 1.0


def test_blobs_validates_sample_count():
    with pytest.raises(DataError):
        make_blobs(2, 4, 3, seed=0)


@pytest.mark.parametrize("features, classes, field", [
    (0, 3, "features"), (-2, 3, "features"), (4, 0, "classes"),
    (4, -1, "classes")])
def test_blobs_validates_features_and_classes(features, classes, field):
    with pytest.raises(DataError, match=f"{field} must be >= 1"):
        make_blobs(10, features, classes, seed=0)


def test_train_test_split_partition():
    x = np.arange(40.0).reshape(20, 2)
    y = np.arange(20)
    (xt, yt), (xe, ye) = train_test_split(x, y, test_fraction=0.25)
    assert len(xt) == 15 and len(xe) == 5
    assert np.array_equal(np.concatenate([xt, xe]), x)
    assert np.array_equal(np.concatenate([yt, ye]), y)


def test_idx_round_trip(tmp_path):
    path = tmp_path / "t.idx"
    arr = np.arange(24.0).reshape(2, 3, 4)
    save_idx(path, arr)
    back = load_idx(path)
    assert np.array_equal(back, arr)
    save_idx(path, arr, type_code=0x08)  # unsigned byte variant
    assert np.array_equal(load_idx(path), arr)


def test_idx_rejects_malformed(tmp_path):
    path = tmp_path / "bad.idx"
    path.write_bytes(b"\x01\x00\x0e\x01")
    with pytest.raises(DataError):
        load_idx(path)
    path.write_bytes(b"\x00\x00\xff\x01")
    with pytest.raises(DataError):
        load_idx(path)
    # declared 3 dims but header cut short
    path.write_bytes(b"\x00\x00\x0e\x03\x00\x00\x00\x01")
    with pytest.raises(DataError):
        load_idx(path)
    # payload shorter than the declared shape
    path.write_bytes(b"\x00\x00\x0e\x01\x00\x00\x00\x04" + b"\x00" * 8)
    with pytest.raises(DataError):
        load_idx(path)
    with pytest.raises(DataError):
        load_idx(tmp_path / "missing.idx")
