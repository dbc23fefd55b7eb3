"""Per-tensor uniform quantization and bit-level decompositions.

Signed tensors use symmetric 2's-complement quantization with the most
negative code never emitted; activations destined for a y-bit DAC are regrouped
into activation groups with the sign bit kept bit-serial.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DomainError, ShapeError
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


def fake_quant(t, bits: int, signedness: Signedness) -> np.ndarray:
    """quantize -> dequantize in one step (the QAT forward-path view)."""
    return dequantize(quantize(t, bits, signedness))


@dataclass(frozen=True)
class BitPlanes:
    """Binary planes of a code tensor, ordered LSB to MSB."""

    planes: list
    params: QuantParams

    def __post_init__(self):
        if len(self.planes) != self.params.bits:
            raise ShapeError("plane count must equal params.bits")


def decompose_bits(q: QuantizedTensor) -> BitPlanes:
    """Split codes into binary planes (2's complement for signed tensors)."""
    bits = q.params.bits
    # masking with 2^bits - 1 yields the 2's-complement pattern for negatives
    u = np.bitwise_and(q.codes, (1 << bits) - 1)
    planes = [np.bitwise_and(u >> b, 1).astype(np.int64) for b in range(bits)]
    return BitPlanes(planes, q.params)


@dataclass(frozen=True)
class ActivationGroup:
    """One DAC word: values in [0, 2^width - 1] sitting at 2^shift."""

    values: np.ndarray
    width: int
    shift: int
    sign_group: bool = False


@dataclass(frozen=True)
class ActivationGroups:
    groups: list
    params: QuantParams

    def reconstruct(self) -> np.ndarray:
        codes = np.zeros_like(self.groups[0].values)
        for g in self.groups:
            sign = -1 if g.sign_group else 1
            codes = codes + sign * (1 << g.shift) * g.values
        return codes


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


def encode_activation_groups(b: BitPlanes, y: int) -> ActivationGroups:
    """Pack bit planes into DAC activation groups per group_layout."""
    groups = []
    for width, shift, sign in group_layout(b.params.bits, b.params.signedness, y):
        value = np.zeros_like(b.planes[0])
        for j in range(width):
            value = value + (b.planes[shift + j] << j)
        groups.append(ActivationGroup(value, width, shift, sign))
    return ActivationGroups(groups, b.params)


def bit_sparsity(b: BitPlanes) -> list:
    """Fraction of ones at each bit position, LSB first."""
    if not b.planes:
        raise ShapeError("bit_sparsity needs at least one plane")
    return [float(np.mean(p)) for p in b.planes]
