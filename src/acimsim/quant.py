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

from .errors import DomainError, check_int, finite_real
from .tensor import round_half_away

BIT_RANGE = (2, 16)   # the code widths a tensor may be quantized at
CODE = np.int32       # dtype of codes and bit fields; holds all of BIT_RANGE


def check_bits(bits: int, error: type, name: str) -> None:
    """Raise `error`, naming `name`, unless `bits` is an int in BIT_RANGE."""
    check_int(bits, name, error, *BIT_RANGE)


class Signedness(Enum):
    UNSIGNED = "unsigned"
    TWOS_COMPLEMENT = "twos_complement"


def check_signedness(signedness, name: str = "signedness") -> None:
    """Raise DomainError naming `name` unless `signedness` is a Signedness."""
    if not isinstance(signedness, Signedness):
        raise DomainError(f"{name} must be a Signedness, got {signedness!r}")


@dataclass(frozen=True)
class QuantParams:
    """Scale (value per integer step), bit width and signedness of a tensor."""

    scale: float
    bits: int
    signedness: Signedness

    def __post_init__(self):
        check_bits(self.bits, DomainError, "bits")
        check_signedness(self.signedness)
        if not (finite_real(self.scale, "scale", DomainError)
                and self.scale > 0):
            raise DomainError(f"scale must be finite and > 0, got "
                              f"{self.scale}")

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
        # range check before the cast, which would wrap a wide code into it
        if codes.size and (codes.min() < self.params.code_min
                           or codes.max() > self.params.code_max):
            raise DomainError("codes outside the signedness range of params")
        object.__setattr__(self, "codes", codes.astype(CODE, copy=False))

    @property
    def shape(self):
        return self.codes.shape


def _code_range(bits: int, signedness: Signedness) -> tuple:
    """(code_min, code_max); signed codes span the full 2's-complement range."""
    if signedness is Signedness.UNSIGNED:
        return 0, (1 << bits) - 1
    return -(1 << (bits - 1)), (1 << (bits - 1)) - 1


def _calibrated_codes(t, bits: int, signedness: Signedness):
    """(t as float64, peak, scale, float codes, signedness): the one
    calibrate -> round rule, and for None the one activation signedness rule:
    unsigned if min t >= 0 (so for -0.0 and no t), else 2's complement. The
    scale is peak / code_max, the peak max|t|, and 1 for an all-zero tensor.
    A NaN or inf makes the peak non-finite. No clamp runs: the normal-scale
    check ensures |t / scale| < code_max + 0.5 and code_min * scale <= -peak.

    Exact identities save passes: max|t| is max(max t, -min t), from the
    reductions the signedness needs anyway (a NaN reaches both); for an
    unsigned x = t / scale >= -0.0, round_half_away(x) is trunc(x + 0.5)
    (IEEE + commutes), except that -0.0 rounds to +0.0, so no copysign pass
    runs and no unsigned code is -0.0."""
    check_bits(bits, DomainError, "bits")
    t = np.asarray(t, dtype=np.float64)
    high, low = (float(t.max()), float(t.min())) if t.size else (0.0, 0.0)
    peak = max(high, -low)
    if not math.isfinite(peak):
        raise DomainError("tensor contains non-finite values")
    if signedness is None:
        signedness = Signedness.UNSIGNED if low >= 0 \
            else Signedness.TWOS_COMPLEMENT
    check_signedness(signedness)
    unsigned = signedness is Signedness.UNSIGNED
    if unsigned and low < 0:
        raise DomainError("unsigned quantization of a tensor with negatives")
    code_min, code_max = _code_range(bits, signedness)
    scale = peak / code_max if peak > 0 else 1.0
    if not scale >= 2.0 ** -1022:   # 0 or subnormal: below the normal floats
        raise DomainError(
            f"scale must be a positive normal float, got {scale}")
    assert peak / scale < code_max + 0.5
    assert unsigned or code_min * scale <= -peak
    codes = t / scale
    if not unsigned:
        return t, peak, scale, round_half_away(codes), signedness
    codes += 0.5
    return t, peak, scale, np.trunc(codes, out=codes), signedness


def quantize(t, bits: int, signedness: Signedness = None) -> QuantizedTensor:
    """Quantize a tensor symmetrically with per-tensor min/max calibration.

    Unsigned: scale = max(t)/(2^bits - 1), inputs must be non-negative.
    2's complement: scale = max|t|/(2^(bits-1) - 1), which keeps codes in
    [-(2^(bits-1) - 1), 2^(bits-1) - 1] so the most negative code never occurs.
    None: unsigned if no t is negative, else 2's complement (the one rule).
    """
    _, _, scale, codes, signedness = _calibrated_codes(t, bits, signedness)
    return QuantizedTensor(codes.astype(CODE),
                           QuantParams(scale, bits, signedness))


def dequantize(q: QuantizedTensor) -> np.ndarray:
    return q.codes * q.params.scale


def fake_quantize(t, bits: int, signedness: Signedness = None) -> tuple:
    """(dequantize(quantize(t, bits, signedness)), straight-through mask),
    float64, without int codes. The mask is 1 inside the representable
    values [code_min * scale, code_max * scale] and 0 above them (no t lies
    below them); it is None when every t is inside, as x * 1.0 == x makes
    applying an all-ones mask the identity.

    Same bytes as the int path: every code is an integer below 2^53, so
    float code * scale equals int code * scale. Identities, each exact:
    t <= peak, so peak <= code_max * scale puts every t inside and no mask
    is built (code_max * scale < peak happens, when that product rounds
    down); an unsigned code is never -0.0 (_calibrated_codes), so code *
    scale is +0.0 or positive and, unlike a signed one, needs no + 0.0."""
    t, peak, scale, q, signedness = _calibrated_codes(t, bits, signedness)
    q *= scale
    if signedness is Signedness.TWOS_COMPLEMENT:
        q += 0.0   # rounding gives -0.0 in (-scale/2, 0]; int code 0, +0.0
    hi = _code_range(bits, signedness)[1] * scale
    return q, None if peak <= hi else (t <= hi).astype(np.float64)


def decompose_bits(codes, bits: int) -> np.ndarray:
    """Bit planes of 2's-complement codes: CODE [bits, *codes.shape], LSB
    first. An arithmetic shift keeps a negative code's 2's-complement bits,
    so plane bits-1 of a signed code is its sign bit."""
    check_bits(bits, DomainError, "bits")
    codes = np.asarray(codes, dtype=CODE)
    # CODE shifts, as int64 ones would promote the planes to int64
    shifts = np.arange(bits, dtype=CODE).reshape(-1, *(1,) * codes.ndim)
    return _bit_field(codes, shifts, 1)


def group_layout(bits: int, signedness: Signedness, y: int) -> list:
    """(width, shift, sign_group) tuples for a y-bit encoding of `bits` codes.

    Grouping starts at the LSB; a short group holds leftover MSBs. For signed
    codes the sign bit is emitted last as its own width-1 group and carries
    weight -2^(bits-1).
    """
    check_int(y, "encoding width", DomainError, 1, bits)
    check_signedness(signedness)
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
    """The DAC words of 2's-complement codes, one CODE array per
    group_layout entry (width, shift, sign_group): (codes >> shift) &
    (2^width - 1)."""
    codes = np.asarray(codes, dtype=CODE)
    return [_bit_field(codes, shift, width) for width, shift, _ in layout]


def _bit_field(codes, shift, width: int) -> np.ndarray:
    """(codes >> shift) & (2^width - 1) with one temporary, not two."""
    field = codes >> shift
    field &= (1 << width) - 1
    return field


def bit_sparsity(planes) -> list:
    """Fraction of ones in each plane of decompose_bits, LSB first."""
    return [float(np.mean(p)) for p in planes]
