"""Per-tensor uniform quantization and the bit fields the macro reads.

Signed tensors use symmetric 2's-complement quantization with the most
negative code never emitted. Weights are read as bit planes; activations
destined for a y-bit DAC are read as activation groups with the sign bit kept
bit-serial.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .tensor import round_half_away

BIT_RANGE = (2, 16)   # the code widths a tensor may be quantized at


def check_bits(bits: int, error: type, name: str) -> None:
    """Raise `error`, naming `name`, unless `bits` lies in BIT_RANGE."""
    if not BIT_RANGE[0] <= bits <= BIT_RANGE[1]:
        raise error(f"{name} must be in {list(BIT_RANGE)}, got {bits}")


class Signedness(Enum):
    UNSIGNED = "unsigned"
    TWOS_COMPLEMENT = "twos_complement"


@dataclass(frozen=True)
class QuantParams:
    """Scale (value per integer step), bit width and signedness of a tensor."""

    scale: float
    bits: int
    signedness: Signedness

    def __post_init__(self):
        check_bits(self.bits, DomainError, "bits")
        if not self.scale > 0:
            raise DomainError(f"scale must be positive, got {self.scale}")

    @property
    def code_min(self) -> int:
        return _code_range(self.bits, self.signedness)[0]

    @property
    def code_max(self) -> int:
        return _code_range(self.bits, self.signedness)[1]


@dataclass(frozen=True)
class QuantizedTensor:
    codes: np.ndarray
    params: QuantParams

    def __post_init__(self):
        codes = np.asarray(self.codes)
        if codes.dtype.kind not in "biu" and not (
                np.isfinite(codes).all() and (np.trunc(codes) == codes).all()):
            raise DomainError("codes must be finite integers")
        codes = codes.astype(np.int64, copy=False)
        if codes.size and (codes.min() < self.params.code_min
                           or codes.max() > self.params.code_max):
            raise DomainError("codes outside the signedness range of params")
        object.__setattr__(self, "codes", codes)

    @property
    def shape(self):
        return self.codes.shape


def signedness_of(t: np.ndarray) -> Signedness:
    """Unsigned when no entry is negative (e.g. post-ReLU data), else 2's
    complement: the one rule for choosing an activation's signedness."""
    return Signedness.UNSIGNED if t.size == 0 or t.min() >= 0 \
        else Signedness.TWOS_COMPLEMENT


def _code_range(bits: int, signedness: Signedness) -> tuple:
    """(code_min, code_max); signed codes span the full 2's-complement range."""
    if signedness is Signedness.UNSIGNED:
        return 0, (1 << bits) - 1
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


def _calibrated_codes(t, bits: int, signedness: Signedness):
    """(t as float64, scale, float codes): the one calibrate -> round rule.
    The scale is peak / code_max, the peak max|t| (max(t) unsigned); an
    all-zero tensor gets scale 1. A NaN or inf makes the peak non-finite. No
    clamp runs: the normal-scale check ensures |t / scale| < code_max + 0.5
    and code_min * scale <= -peak, which the asserts restate."""
    check_bits(bits, DomainError, "bits")
    t = np.asarray(t, dtype=np.float64)
    unsigned = signedness is Signedness.UNSIGNED
    peak = float(np.abs(t).max()) if t.size else 0.0
    if not math.isfinite(peak):
        raise DomainError("tensor contains non-finite values")
    if unsigned and t.size and t.min() < 0:
        raise DomainError("unsigned quantization of a tensor with negatives")
    code_min, code_max = _code_range(bits, signedness)
    scale = peak / code_max if peak > 0 else 1.0
    if not scale >= 2.0 ** -1022:   # 0 or subnormal: below the normal floats
        raise DomainError(
            f"scale must be a positive normal float, got {scale}")
    assert peak / scale < code_max + 0.5
    assert unsigned or code_min * scale <= -peak
    return t, scale, round_half_away(t / scale)


def quantize(t, bits: int, signedness: Signedness) -> QuantizedTensor:
    """Quantize a tensor symmetrically with per-tensor min/max calibration.

    Unsigned: scale = max(t)/(2^bits - 1), inputs must be non-negative.
    2's complement: scale = max|t|/(2^(bits-1) - 1), which keeps codes in
    [-(2^(bits-1) - 1), 2^(bits-1) - 1] so the most negative code never occurs.
    """
    _, scale, codes = _calibrated_codes(t, bits, signedness)
    return QuantizedTensor(codes.astype(np.int64),
                           QuantParams(scale, bits, signedness))


def dequantize(q: QuantizedTensor) -> np.ndarray:
    return q.codes * q.params.scale


def fake_quantize(t, bits: int, signedness: Signedness) -> tuple:
    """(dequantize(quantize(t, bits, signedness)), straight-through mask),
    both float64, without int codes. The mask is 1 inside the representable
    values [code_min * scale, code_max * scale] and 0 above them (no t lies
    below them).

    Same bytes as the int path: every code is an integer below 2^53, so
    float code * scale equals int code * scale."""
    t, scale, q = _calibrated_codes(t, bits, signedness)
    q *= scale
    q += 0.0   # rounding gives -0.0 in (-scale/2, 0]; int code 0 gives +0.0
    hi = _code_range(bits, signedness)[1] * scale
    return q, (t <= hi).astype(np.float64)


def decompose_bits(codes, bits: int) -> np.ndarray:
    """Bit planes of 2's-complement codes: int64 [bits, *codes.shape], LSB
    first. An arithmetic shift keeps a negative code's 2's-complement bits,
    so plane bits-1 of a signed code is its sign bit."""
    check_bits(bits, DomainError, "bits")
    codes = np.asarray(codes, dtype=np.int64)
    shifts = np.arange(bits).reshape(-1, *(1,) * codes.ndim)
    return _bit_field(codes, shifts, 1)


def group_layout(bits: int, signedness: Signedness, y: int) -> list:
    """(width, shift, sign_group) tuples for a y-bit encoding of `bits` codes.

    Grouping starts at the LSB; a short group holds leftover MSBs. For signed
    codes the sign bit is emitted last as its own width-1 group and carries
    weight -2^(bits-1).
    """
    if y < 1:
        raise DomainError(f"encoding width must be >= 1, got {y}")
    if y > bits:
        raise DomainError(f"encoding width {y} exceeds bit width {bits}")
    body = bits - 1 if signedness is Signedness.TWOS_COMPLEMENT else bits
    layout = []
    pos = 0
    while pos < body:
        width = min(y, body - pos)
        layout.append((width, pos, False))
        pos += width
    if signedness is Signedness.TWOS_COMPLEMENT:
        layout.append((1, bits - 1, True))
    return layout


def encode_activation_groups(codes, layout) -> list:
    """The DAC words of 2's-complement codes, one int64 array per
    group_layout entry (width, shift, sign_group): (codes >> shift) &
    (2^width - 1)."""
    codes = np.asarray(codes, dtype=np.int64)
    return [_bit_field(codes, shift, width) for width, shift, _ in layout]


def _bit_field(codes, shift, width: int) -> np.ndarray:
    """(codes >> shift) & (2^width - 1) with one int64 temporary, not two."""
    field = codes >> shift
    field &= (1 << width) - 1
    return field


def bit_sparsity(planes) -> list:
    """Fraction of ones in each plane of decompose_bits, LSB first."""
    return [float(np.mean(p)) for p in planes]
