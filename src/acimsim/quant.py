"""Per-tensor uniform quantization and the bit fields the macro reads.

Signed tensors use symmetric 2's-complement quantization with the most
negative code never emitted. Weights are read as bit planes; activations
destined for a y-bit DAC are read as activation groups with the sign bit kept
bit-serial.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError
from .tensor import as_tensor, round_half_away


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
        if not (2 <= self.bits <= 16):
            raise DomainError(f"bits must be in [2, 16], got {self.bits}")
        if not self.scale > 0:
            raise DomainError(f"scale must be positive, got {self.scale}")

    @property
    def code_min(self) -> int:
        if self.signedness is Signedness.UNSIGNED:
            return 0
        return -(1 << (self.bits - 1))

    @property
    def code_max(self) -> int:
        if self.signedness is Signedness.UNSIGNED:
            return (1 << self.bits) - 1
        return (1 << (self.bits - 1)) - 1

    @property
    def value_range(self) -> tuple:
        """Representable value interval (used by the straight-through mask)."""
        return self.code_min * self.scale, self.code_max * self.scale


@dataclass(frozen=True)
class QuantizedTensor:
    codes: np.ndarray
    params: QuantParams

    def __post_init__(self):
        codes = np.asarray(self.codes, dtype=np.int64)
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


def _calibrated_scale(t: np.ndarray, bits: int, signedness: Signedness) -> float:
    # min/max calibration; all-zero tensors get scale 1 so zeros stay exact
    if signedness is Signedness.UNSIGNED:
        peak = float(t.max()) if t.size else 0.0
        levels = (1 << bits) - 1
    else:
        peak = float(np.abs(t).max()) if t.size else 0.0
        levels = (1 << (bits - 1)) - 1
    return peak / levels if peak > 0 else 1.0


def quantize(t, bits: int, signedness: Signedness) -> QuantizedTensor:
    """Quantize a tensor symmetrically with per-tensor min/max calibration.

    Unsigned: scale = max(t)/(2^bits - 1), inputs must be non-negative.
    2's complement: scale = max|t|/(2^(bits-1) - 1); the clamp keeps codes in
    [-(2^(bits-1) - 1), 2^(bits-1) - 1] so the most negative code never occurs.
    """
    if not (2 <= bits <= 16):
        raise DomainError(f"bits must be in [2, 16], got {bits}")
    t = as_tensor(t)
    if signedness is Signedness.UNSIGNED and t.size and t.min() < 0:
        raise DomainError("unsigned quantization of a tensor with negatives")
    scale = _calibrated_scale(t, bits, signedness)
    params = QuantParams(scale, bits, signedness)
    lo = 0 if signedness is Signedness.UNSIGNED else -params.code_max
    codes = np.clip(round_half_away(t / scale), lo, params.code_max)
    return QuantizedTensor(codes.astype(np.int64), params)


def dequantize(q: QuantizedTensor) -> np.ndarray:
    return q.codes * q.params.scale


def decompose_bits(codes, bits: int) -> np.ndarray:
    """Bit planes of 2's-complement codes: int64 [bits, *codes.shape], LSB
    first. An arithmetic shift keeps a negative code's 2's-complement bits,
    so plane bits-1 of a signed code is its sign bit."""
    codes = np.asarray(codes, dtype=np.int64)
    shifts = np.arange(bits).reshape(-1, *(1,) * codes.ndim)
    return (codes >> shifts) & 1


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
    return [(codes >> shift) & ((1 << width) - 1)
            for width, shift, _ in layout]


def bit_sparsity(planes) -> list:
    """Fraction of ones in each plane of decompose_bits, LSB first."""
    return [float(np.mean(p)) for p in planes]
