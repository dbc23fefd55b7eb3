"""Tensor helper tests: rounding, im2col lowering."""

import numpy as np
import pytest

from acimsim.errors import ShapeError
from acimsim.tensor import conv_output_shape, im2col, round_half_away

from oracles import sign_floor_round


def test_round_half_away_ties():
    # ties go away from zero, not to even
    x = np.array([0.5, 1.5, 2.5, -0.5, -2.5, 37.4, -37.6])
    got = round_half_away(x)
    assert np.array_equal(got, [1, 2, 3, -1, -3, 37, -38])


def test_round_half_away_scalar():
    assert round_half_away(0.49999) == 0
    assert round_half_away(-1.5) == -2


def test_round_half_away_equals_sign_floor():
    # trunc(x + copysign(0.5, x)) against sign(x) * floor(|x| + 0.5): the
    # same values everywhere, and the same bytes everywhere except at
    # x = -0.0, whose sign only an int cast or a + 0.0 would read
    gen = np.random.default_rng(11)
    halves = np.arange(-80, 81) / 4.0   # every tie and integer in [-20, 20]
    big = 2.0**52 + 1   # x + 0.5 rounds to even, 2^52 + 2, under both
    x = np.concatenate([
        halves, np.nextafter(halves, np.inf), np.nextafter(halves, -np.inf),
        [0.0, -0.0, 0.49999999999999994, -0.49999999999999994, big, -big,
         2.0**53, -(2.0**53), 1e300, -1e300, 5e-324, -5e-324, np.inf,
         -np.inf, np.nan],
        gen.normal(size=1_000_000) * 10.0 ** gen.integers(-3, 8, 1_000_000)])
    got, want = round_half_away(x), sign_floor_round(x)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got, want, equal_nan=True)
    flipped = np.signbit(got) != np.signbit(want)
    assert np.array_equal(flipped, (x == 0) & np.signbit(x))
    assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
    finite = np.isfinite(x) & (np.abs(x) < 2.0**62)
    assert np.array_equal(got[finite].astype(np.int64),
                          want[finite].astype(np.int64))
    assert (round_half_away(big), round_half_away(-big)) == (big + 1, -big - 1)


@pytest.mark.parametrize("x", [np.float32([2.5, -0.5, 0.25, -7.5]),
                               np.arange(-3, 4), 2.5, -0.0])
def test_round_half_away_keeps_dtype_and_shape(x):
    got, want = round_half_away(x), sign_floor_round(x)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.array_equal(got, want)


def test_im2col_kernel_validation():
    x = np.zeros((1, 4, 4))
    assert im2col(x, 3, 2).shape == (6, 6)
    with pytest.raises(ShapeError, match="kernel rows must be >= 1, got 0"):
        im2col(x, 0, 3)
    with pytest.raises(ShapeError,
                       match="kernel cols must be an integer, got 1.5"):
        im2col(x, 3, 1.5)


def test_im2col_identity_1x1():
    x = np.arange(12.0).reshape(3, 2, 2)
    cols = im2col(x, 1, 1)
    # each output position sees the C-vector at that pixel
    assert cols.shape == (4, 3)
    assert np.array_equal(cols[0], x[:, 0, 0])
    assert np.array_equal(cols[3], x[:, 1, 1])


def test_im2col_known_patch():
    x = np.arange(16.0).reshape(1, 4, 4)
    cols = im2col(x, 2, 2)
    assert cols.shape == (9, 4)
    assert np.array_equal(cols[0], [0, 1, 4, 5])
    assert np.array_equal(cols[8], [10, 11, 14, 15])


def test_im2col_stride_padding():
    x = np.ones((1, 3, 3))
    cols = im2col(x, 3, 3, stride=2, padding=1)
    out = conv_output_shape(3, 3, 3, 3, 2, 1)
    assert out == (2, 2)
    assert cols.shape == (4, 9)
    # corner patch: 4 real pixels, 5 zero-padded
    assert cols[0].sum() == 4


def test_im2col_matches_direct_conv():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 5, 5))
    w = rng.normal(size=(3, 2, 3, 3))
    cols = im2col(x, 3, 3)
    got = (cols @ w.reshape(3, -1).T).T.reshape(3, 3, 3)
    want = np.empty((3, 3, 3))
    for f in range(3):
        for i in range(3):
            for j in range(3):
                want[f, i, j] = np.sum(x[:, i:i + 3, j:j + 3] * w[f])
    assert np.allclose(got, want)


def test_im2col_geometry_errors():
    x = np.zeros((1, 2, 2))
    with pytest.raises(ShapeError):
        im2col(x, 3, 3)
    with pytest.raises(ShapeError):
        im2col(x, 1, 1, stride=0)
    with pytest.raises(ShapeError):
        im2col(x, 1, 1, padding=-1)
    with pytest.raises(ShapeError):
        im2col(np.zeros((2, 2)), 1, 1)


def _im2col_loop(x, kh, kw, stride, padding):
    # reference lowering: one receptive field per output position, row-major
    c, h, w = x.shape
    out_h, out_w = conv_output_shape(h, w, kh, kw, stride, padding)
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    cols = np.empty((out_h * out_w, c * kh * kw), dtype=x.dtype)
    for i in range(out_h):
        for j in range(out_w):
            cols[i * out_w + j] = xp[:, i * stride:i * stride + kh,
                                     j * stride:j * stride + kw].reshape(-1)
    return cols


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("padding", [0, 1, 2])
def test_im2col_matches_loop_oracle(stride, padding):
    gen = np.random.default_rng(10 * stride + padding)
    for dtype, (c, h, w), (kh, kw) in [(np.int64, (3, 7, 6), (3, 3)),
                                       (np.float64, (2, 5, 8), (2, 3)),
                                       (np.int64, (1, 4, 4), (1, 1))]:
        x = gen.integers(-8, 8, size=(c, h, w)).astype(dtype)
        got = im2col(x, kh, kw, stride, padding)
        want = _im2col_loop(x, kh, kw, stride, padding)
        assert got.dtype == x.dtype
        assert got.shape == want.shape
        assert np.array_equal(got, want)
