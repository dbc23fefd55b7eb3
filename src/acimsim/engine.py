"""Bit-wise simulation engine: cycle planning, tiling, shift-accumulate.

A matmul is executed as loops over row tiles and activation groups. One
float32 GEMM per (tile, activation group) produces the analog levels of every
weight bit of that group; float32 is exact because each level is an integer
below 2^24, a bound MacroConfig enforces. The group's analog levels are then
read out in chunks: runs of consecutive plan entries that share one
oversample, capped at _CHUNK_ELEMS levels, each passing through the macro's
noise, ADC and vote functions in one call per chunk. A count table maps each
ADC code to its integer count, and the counts are accumulated with their
signed power-of-two shift weights. The Philox keys of every noise stream of a
matmul are derived up front in one rng.StreamTable, with the same draws as
keying each stream on its own, so the chunking changes no draw. Accumulation
is exact integer arithmetic on counts; floating point enters only at the
final rescale. Conv2d and attention lower onto simulate_matmul;
SimLayerResult.compose accounts several matmuls as one.
"""

from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError, ShapeError
from .macro import (MacroConfig, NoiseSpec, adc_readout, apply_noise,
                    count_table, majority_vote_readout)
from .quant import (QuantizedTensor, Signedness, group_layout, quantize,
                    signedness_of)
from .rng import TAG_NONLIN, TAG_RANDOM, RngContext, StreamTable
from .tensor import Shape2D, conv_output_shape, im2col, round_half_away

# Readout chunk cap in levels (entries x oversample x B x M): a float64
# temporary of 2^14 levels is 128 KiB. A chunk holds at least one entry, so an
# entry above the cap is read out on its own.
_CHUNK_ELEMS = 1 << 14


class Domain(Enum):
    ANALOG = "analog"
    DIGITAL = "digital"


@dataclass(frozen=True)
class CycleEntry:
    w_bit: int
    w_sign: int
    act_group: int
    act_sign: int
    shift: int
    domain: Domain = Domain.ANALOG
    oversample: int = 1

    @property
    def sign(self) -> int:
        return self.w_sign * self.act_sign


@dataclass(frozen=True)
class VotingSpec:
    boundary: int
    samples: int

    def __post_init__(self):
        if self.boundary < 1 or self.samples < 1:
            raise ConfigError("voting boundary and samples must be >= 1")


@dataclass(frozen=True)
class EngineMode:
    """Scheme selection: enc_bits = 1 is bit-serial, > 1 is bit-parallel.

    hybrid_boundary L moves the top L shift levels to the digital domain;
    voting oversamples the top `boundary` analog shift levels `samples` times.
    """

    enc_bits: int = 1
    hybrid_boundary: Optional[int] = None
    voting: Optional[VotingSpec] = None

    def __post_init__(self):
        if self.enc_bits < 1:
            raise ConfigError(f"enc_bits must be >= 1, got {self.enc_bits}")

    @property
    def scheme(self) -> str:
        return "bit-serial" if self.enc_bits == 1 else "bit-parallel"

    @classmethod
    def bit_serial(cls, **kw) -> "EngineMode":
        return cls(enc_bits=1, **kw)

    @classmethod
    def bit_parallel(cls, enc_bits: int, **kw) -> "EngineMode":
        if enc_bits < 2:
            raise ConfigError("bit-parallel needs enc_bits >= 2")
        return cls(enc_bits=enc_bits, **kw)


@dataclass(frozen=True)
class CyclePlan:
    entries: tuple

    @property
    def cycles_per_tile(self) -> int:
        return sum(e.oversample for e in self.entries)

    @property
    def analog_ratio(self) -> float:
        analog = sum(1 for e in self.entries if e.domain is Domain.ANALOG)
        return analog / len(self.entries)

    @property
    def max_shift(self) -> int:
        return max(e.shift for e in self.entries)


def plan_cycles(w_bits: int, x_bits: int, x_signedness: Signedness,
                w_signedness: Signedness, mode: EngineMode) -> CyclePlan:
    """Expand bit widths and mode into the ordered per-tile cycle schedule.

    Weights are always bit-serial; activations follow the mode's y-bit group
    layout with a bit-serial sign group for signed tensors. Sign factors land
    on 2's-complement MSB planes/groups, and shift = weight bit + group shift.
    """
    for val, name in ((w_bits, "w_bits"), (x_bits, "x_bits")):
        if not (2 <= val <= 16):
            raise ConfigError(f"{name} must be in [2, 16], got {val}")
    layout = group_layout(x_bits, x_signedness, mode.enc_bits)
    entries = []
    for q in range(w_bits):
        w_sign = -1 if (w_signedness is Signedness.TWOS_COMPLEMENT
                        and q == w_bits - 1) else 1
        for gi, (_width, gshift, sign_group) in enumerate(layout):
            entries.append(CycleEntry(
                w_bit=q, w_sign=w_sign, act_group=gi,
                act_sign=-1 if sign_group else 1, shift=q + gshift))
    shifts = sorted({e.shift for e in entries}, reverse=True)
    if mode.hybrid_boundary is not None:
        lvl = mode.hybrid_boundary
        if not (1 <= lvl <= len(shifts)):
            raise ConfigError(
                f"hybrid boundary {lvl} outside the {len(shifts)} shift levels")
        digital = set(shifts[:lvl])
        entries = [replace(e, domain=Domain.DIGITAL) if e.shift in digital else e
                   for e in entries]
    if mode.voting is not None:
        analog_shifts = sorted({e.shift for e in entries
                                if e.domain is Domain.ANALOG}, reverse=True)
        lvl = mode.voting.boundary
        if not (1 <= lvl <= len(analog_shifts)):
            raise ConfigError(
                f"voting boundary {lvl} outside the {len(analog_shifts)} "
                "analog shift levels")
        voted = set(analog_shifts[:lvl])
        entries = [replace(e, oversample=mode.voting.samples)
                   if e.domain is Domain.ANALOG and e.shift in voted else e
                   for e in entries]
    return CyclePlan(tuple(entries))


@dataclass
class SimLayerResult:
    """Output and cycle accounting of one simulated layer.

    analog_ratio is the share of plan entries in the analog domain; an entry
    counts once, however many oversample repeats voting gives it. A composite
    (attention, a whole network) sums total_cycles, tiles and cycle_count over
    its parts and weights each part's analog_ratio by its total_cycles; its
    cycle_count is then the sum of its parts' per-tile counts, so
    tiles * cycle_count is not its total_cycles.
    """

    output: np.ndarray
    cycle_count: int          # per tile of one matmul, with oversample repeats
    analog_ratio: float
    tiles: int
    level_counts: Optional[dict] = None   # (w_bit, act_group) -> histogram
    total_cycles: Optional[int] = None    # default: tiles * cycle_count

    def __post_init__(self):
        if not (0.0 <= self.analog_ratio <= 1.0):
            raise ConfigError("analog_ratio must lie in [0, 1]")
        if self.total_cycles is None:
            self.total_cycles = self.tiles * self.cycle_count

    @classmethod
    def compose(cls, parts, output) -> "SimLayerResult":
        """Account `parts`, run one after another, as one result."""
        total = sum(p.total_cycles for p in parts)
        analog = sum(p.analog_ratio * p.total_cycles for p in parts)
        return cls(output=output, cycle_count=sum(p.cycle_count for p in parts),
                   analog_ratio=analog / total if total else 1.0,
                   tiles=sum(p.tiles for p in parts), total_cycles=total)


def _bit_pair(bits) -> tuple:
    if isinstance(bits, tuple):
        w_bits, x_bits = bits
        return int(w_bits), int(x_bits)
    return int(bits), int(bits)


def _stream_table(plan: CyclePlan, tiles: int, layer: int,
                  spec: NoiseSpec) -> Optional[StreamTable]:
    """Key every noise stream of one matmul in one StreamTable.

    One row per (tile, analog entry, oversample, tag with non-zero sigma),
    keyed as majority_vote_readout and apply_noise key their draws. None when
    no built-in noise source draws.
    """
    tags = [tag for tag, sigma in ((TAG_RANDOM, spec.random_sigma),
                                   (TAG_NONLIN, spec.nonlin_sigma))
            if sigma.value != 0]
    if not tags:
        return None
    if not 0 <= layer <= 0xFFFFFFFF:
        raise DomainError(f"spawn layer must lie in [0, 2^32), got {layer}")
    # (w_bit, act_group, column, sample) of every analog readout of a tile
    reads = np.array([(e.w_bit, e.act_group, 0, s) for e in plan.entries
                      if e.domain is Domain.ANALOG
                      for s in range(e.oversample)],
                     dtype=np.int64).reshape(-1, 4)
    rows = np.empty((tiles, len(reads), len(tags), 7), dtype=np.int64)
    rows[..., 0] = tags
    rows[..., 1] = layer
    rows[..., 2] = np.arange(tiles)[:, None, None]
    rows[..., 3:] = reads[None, :, None, :]
    return StreamTable(spec.seed, rows.reshape(-1, 7))


def _readout_chunks(entries, elems: int):
    """Runs of consecutive entries sharing one domain and one oversample.

    A chunk holds at most _CHUNK_ELEMS levels (entries x oversample x elems)
    and at least one entry. A single entry above the cap is read out with
    temporaries of its own elems levels, as one unchunked readout would be;
    a vote of it draws its samples in bounded runs (majority_vote_readout).
    """
    chunk = []
    for e in entries:
        if chunk and (e.domain is not chunk[0].domain
                      or e.oversample != chunk[0].oversample
                      or (len(chunk) + 1) * e.oversample * elems
                      > _CHUNK_ELEMS):
            yield chunk
            chunk = []
        chunk.append(e)
    if chunk:
        yield chunk


def simulate_matmul(act: QuantizedTensor, w: QuantizedTensor,
                    cfg: MacroConfig, spec: NoiseSpec, mode: EngineMode,
                    layer: int = 0, record_levels: bool = False) -> SimLayerResult:
    """Simulate act[B,D] @ w[D,M] with w stationary in the macro.

    D is tiled into ceil(D/rows) mappings. Per (tile, activation group) one
    float32 GEMM of the group's DAC words [B, rows] against the tile's stacked
    weight planes [rows, Q*M] yields the levels of all Q weight bits at once;
    float32 is exact here because every level is an integer below 2^24
    (MacroConfig enforces rows * (2^enc_bits - 1) < 2^24). Digital entries
    accumulate their exact levels. Analog entries are read out a chunk at a
    time (see _readout_chunks): one apply_noise and adc_readout call per
    chunk, or one majority_vote_readout call for a voted chunk, each entry
    drawing from its own streams in one stream table built for the whole
    call. count_table turns ADC codes into integer counts (a vote's mean is
    rounded to counts directly) before the signed shift-accumulate, and the
    final counts are scaled by both quantization scales.
    """
    if act.codes.ndim != 2 or w.codes.ndim != 2:
        raise ShapeError("simulate_matmul expects 2-D operands")
    b, d = act.shape
    d_w, m = w.shape
    if d != d_w:
        raise ShapeError(f"inner dimensions differ: {d} vs {d_w}")
    if mode.enc_bits != cfg.enc_bits:
        raise ConfigError(
            f"mode enc_bits {mode.enc_bits} != macro enc_bits {cfg.enc_bits}")
    plan = plan_cycles(w.params.bits, act.params.bits, act.params.signedness,
                       w.params.signedness, mode)
    layout = group_layout(act.params.bits, act.params.signedness, cfg.enc_bits)
    by_group = [[e for e in plan.entries if e.act_group == g]
                for g in range(len(layout))]
    # masking with 2^bits - 1 yields the 2's-complement pattern of negatives
    u_a = act.codes & ((1 << act.params.bits) - 1)
    u_w = w.codes & ((1 << w.params.bits) - 1)
    q_bits = w.params.bits
    bit_pos = np.arange(q_bits)[:, None]
    n_fs = cfg.full_scale_counts
    lut = count_table(cfg)
    accum = np.zeros((b, m), dtype=np.int64)
    hist = {} if record_levels else None
    tile_starts = range(0, d, cfg.rows)
    table = _stream_table(plan, len(tile_starts), layer, spec)
    for t, start in enumerate(tile_starts):
        stop = min(start + cfg.rows, d)
        rhs = ((u_w[start:stop, None, :] >> bit_pos) & 1).astype(np.float32)
        rhs = rhs.reshape(stop - start, q_bits * m)
        for (width, gshift, _), entries in zip(layout, by_group):
            lhs = (u_a[:, start:stop] >> gshift) & ((1 << width) - 1)
            lhs = lhs.astype(np.float32)
            # exact: levels are integers below 2^24 (MacroConfig.__post_init__)
            block = (lhs @ rhs).reshape(b, q_bits, m).transpose(1, 0, 2)
            if record_levels:
                for e in entries:
                    key = (e.w_bit, e.act_group)
                    levels = block[e.w_bit].astype(np.int64).ravel()
                    hist[key] = hist.get(key, 0) + np.bincount(
                        levels, minlength=n_fs + 1)
            for chunk in _readout_chunks(entries, b * m):
                # a group lists its entries by w_bit, so a chunk is a slice
                first = chunk[0]
                levels = block[first.w_bit:chunk[-1].w_bit + 1]
                ctx = [RngContext(layer, t, e.w_bit, e.act_group)
                       for e in chunk]
                if first.domain is Domain.DIGITAL:
                    counts = levels.astype(np.int64)
                elif first.oversample > 1:
                    _, mac = majority_vote_readout(levels, first.oversample,
                                                   spec, cfg, ctx, table)
                    counts = round_half_away(mac).astype(np.int64)
                else:
                    if not spec.silent:
                        levels = apply_noise(levels, spec, cfg, ctx, table)
                    counts = lut[adc_readout(levels, cfg)[0]]
                for e, counts_e in zip(chunk, counts):
                    counts_e *= e.sign << e.shift
                    accum += counts_e
    return SimLayerResult(
        output=accum * (act.params.scale * w.params.scale),
        cycle_count=plan.cycles_per_tile,
        analog_ratio=plan.analog_ratio,
        tiles=len(tile_starts),
        level_counts=hist)


def simulate_conv2d(act, w, stride: int, padding: int, bits,
                    cfg: MacroConfig, spec: NoiseSpec, mode: EngineMode,
                    layer: int = 0) -> SimLayerResult:
    """Quantize, lower [C,H,W] x [F,C,kh,kw] to im2col matmul, reshape back.

    `bits` is an int or a (w_bits, x_bits) pair. Activation signedness is
    chosen from the data (unsigned when everything is non-negative); padding
    zeros map to code 0 exactly under symmetric quantization.
    """
    w_bits, x_bits = _bit_pair(bits)
    act = np.asarray(act, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if act.ndim != 3 or w.ndim != 4:
        raise ShapeError("simulate_conv2d expects act[C,H,W] and w[F,C,kh,kw]")
    if act.shape[0] != w.shape[1]:
        raise ShapeError(f"channel mismatch: {act.shape[0]} vs {w.shape[1]}")
    f, _c, kh, kw = w.shape
    act_q = quantize(act, x_bits, signedness_of(act))
    w_q = quantize(w, w_bits, Signedness.TWOS_COMPLEMENT)
    patches = im2col(act_q.codes, Shape2D(kh, kw), stride, padding)
    res = simulate_matmul(
        QuantizedTensor(patches, act_q.params),
        QuantizedTensor(w_q.codes.reshape(f, -1).T, w_q.params),
        cfg, spec, mode, layer=layer)
    out_h, out_w = conv_output_shape(act.shape[1], act.shape[2],
                                     Shape2D(kh, kw), stride, padding)
    res.output = res.output.T.reshape(f, out_h, out_w)
    return res


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    z = z - z.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def simulate_attention(q, k, v, bits, cfg: MacroConfig, spec: NoiseSpec,
                       mode: EngineMode, layer: int = 0) -> SimLayerResult:
    """Single-head attention with both matmuls on the macro.

    QK^T runs with Q stationary and K broadcast; scaling and softmax stay in
    floating point; A V runs with V stationary and the unsigned post-softmax
    scores broadcast. The two matmuls use stream ids `layer` and `layer + 1`
    so their noise draws are independent. The result composes both matmuls
    (see SimLayerResult).
    """
    w_bits, x_bits = _bit_pair(bits)
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ShapeError("simulate_attention expects 2-D q, k, v")
    if q.shape[1] != k.shape[1] or k.shape[0] != v.shape[0]:
        raise ShapeError(
            f"incompatible attention shapes {q.shape}, {k.shape}, {v.shape}")
    head_dim = q.shape[1]
    q_q = quantize(q, w_bits, Signedness.TWOS_COMPLEMENT)
    k_q = quantize(k, x_bits, Signedness.TWOS_COMPLEMENT)
    qk = simulate_matmul(k_q, QuantizedTensor(q_q.codes.T, q_q.params),
                         cfg, spec, mode, layer=layer)
    scores = softmax(qk.output.T / np.sqrt(head_dim), axis=-1)
    a_q = quantize(scores, x_bits, Signedness.UNSIGNED)
    v_q = quantize(v, w_bits, Signedness.TWOS_COMPLEMENT)
    av = simulate_matmul(a_q, v_q, cfg, spec, mode, layer=layer + 1)
    return SimLayerResult.compose([qk, av], av.output)
