"""Dense tensor helpers: rounding, im2col.

Tensors are plain numpy float64 arrays in row-major order; this module only
adds the checks and shape manipulations the rest of the package relies on.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError, check_int


def round_half_away(x):
    """Round to nearest integer, halves away from zero (3.5 -> 4, -3.5 -> -4).

    numpy's `round` ties to even, which would bias quantization codes.
    -0.0 stays -0.0, a sign every caller erases.
    """
    x = np.asarray(x)
    r = np.copysign(0.5, x)
    r += x
    return np.trunc(r, out=r) if r.ndim else np.trunc(r)


def im2col(input: np.ndarray, kh: int, kw: int, stride: int = 1,
           padding: int = 0) -> np.ndarray:
    """Lower a [C,H,W] tensor to a [patches, C*kh*kw] matrix.

    Row r holds the flattened receptive field of output position r (row-major
    over output positions); zero padding outside the input bounds.
    """
    check_int(kh, "kernel rows", ShapeError, 1)
    check_int(kw, "kernel cols", ShapeError, 1)
    check_int(stride, "stride", ShapeError, 1)
    check_int(padding, "padding", ShapeError, 0)
    x = np.asarray(input)
    if x.ndim != 3:
        raise ShapeError(f"im2col expects [C,H,W], got shape {x.shape}")
    c, h, w = x.shape
    out_h, out_w = conv_output_shape(h, w, kh, kw, stride, padding)
    if out_h < 1 or out_w < 1:   # a kernel side past the padded input
        raise ShapeError(
            f"kernel {kh}x{kw} larger than padded input {h + 2 * padding}x{w + 2 * padding}")
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding)))
    # [C, out_h, out_w, kh, kw] view; the reshape copies into row order
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    return win.transpose(1, 2, 0, 3, 4).reshape(out_h * out_w, c * kh * kw)


def conv_output_shape(h: int, w: int, kh: int, kw: int, stride: int,
                      padding: int) -> tuple:
    return ((h + 2 * padding - kh) // stride + 1,
            (w + 2 * padding - kw) // stride + 1)
