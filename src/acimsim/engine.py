"""Bit-wise simulation engine: cycle planning, tiling, shift-accumulate.

A CyclePlan holds one record per (weight bit, activation group) of a tile;
hybrid execution and majority voting are its per-entry `analog` and
`oversample` fields. Float32 GEMMs of a (tile, group)'s DAC words against the
tile's stacked weight planes yield the levels of every weight bit of the
group, exact as each is an integer below 2^24 (MacroConfig). One rule,
macro.runs, bounds every pass: both operands are formed in runs of rows of
one weight plane (the planes into one buffer that every tile reuses, with
one GEMM per run of DAC words); the levels are read out in runs of plan
entries by _read, which walks runs of rows. No buffer of a group outlives it.
A count table maps ADC codes to integer counts, which accumulate with
their signed power-of-two shift weights in int64, its overflow bound checked
first, so floating point enters only at the final rescale. A single-sample
analog entry of weight w = sign << shift reads its codes through the count
table times w, which is exact: table_w[code] = count(code) * w is the int64
that a multiply after the lookup gives (the bound covers every product), so
one gather and one add replace a lookup, a multiply and an add. A point
builds the tables of a run of a chunk and drops them with the run, and only
where a table is no longer than an entry's codes in the run, so a table
costs no more time or bytes than the multiply it saves; elsewhere (a 15- or
16-bit ADC, as a run holds 2^14 levels unless one row is longer) codes take
the count table, then the weight. A matmul keys all its noise streams in
one rng.StreamTable, and every draw reads it by position, the one stream
address of readout noise; RngContexts are built only for level hooks. The
points of one _simulate_grid group run in lockstep through one plan, table
and chunk list, each chunk drawn once and read by every point in turn.
Conv2d and attention lower onto simulate_matmul.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import groupby
from typing import Optional

import numpy as np

from . import macro
from .errors import ConfigError, DomainError, ShapeError, check_int
from .macro import (MacroConfig, NoiseSpec, adc_readout, apply_noise,
                    count_table, draw_noise, majority_vote_readout,
                    noise_tags)
from .quant import (QuantizedTensor, Signedness, check_bits, check_signedness,
                    decompose_bits, encode_activation_groups, group_layout,
                    quantize)
from .rng import StreamTable
from .tensor import conv_output_shape, im2col, round_half_away

_PLAN_DTYPE = [("w_bit", np.int64), ("act_group", np.int64),
               ("sign", np.int64), ("shift", np.int64), ("analog", bool),
               ("oversample", np.int64)]


@dataclass(frozen=True)
class VotingSpec:
    boundary: int
    samples: int

    def __post_init__(self):
        for name in ("boundary", "samples"):
            check_int(getattr(self, name), f"voting_{name}", ConfigError, 1)


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
        check_int(self.enc_bits, "enc_bits", ConfigError, 1)
        if not isinstance(self.voting, (VotingSpec, type(None))):
            raise ConfigError(f"voting must be a VotingSpec or None, got "
                              f"{self.voting!r}")
        if self.hybrid_boundary is not None:   # _level_cut checks its range
            check_int(self.hybrid_boundary, "hybrid_boundary", ConfigError,
                      None)


@dataclass(frozen=True)
class CyclePlan:
    """The cycle schedule of one tile, one entry per (w_bit, act_group).

    `entries` is a numpy structured array in (w_bit, act_group) order, so
    group g's entries are every len(layout)-th one, by weight bit. Its fields:
    sign (+-1, the 2's-complement MSB factors of both operands), shift
    (weight bit + group shift), analog (False for a hybrid digital entry)
    and oversample (the samples of a voted entry, else 1).
    """

    entries: np.ndarray

    @property
    def cycles_per_tile(self) -> int:
        return int(self.entries["oversample"].sum())


def _level_cut(shifts: np.ndarray, lvl: int, key: str, levels: str) -> int:
    """Lowest of the top `lvl` distinct `shifts`; past the last, a
    ConfigError that names the EngineMode field `key` that set `lvl`.

    sorted(set()) rather than np.unique, which imports numpy.ma on first use.
    """
    distinct = sorted(set(shifts.tolist()), reverse=True)
    if not (1 <= lvl <= len(distinct)):
        raise ConfigError(f"{key}: {key.replace('_', ' ')} {lvl} outside "
                          f"the {len(distinct)} {levels}")
    return distinct[lvl - 1]


def plan_cycles(w_bits: int, x_bits: int, x_signedness: Signedness,
                w_signedness: Signedness, mode: EngineMode) -> CyclePlan:
    """Expand bit widths and mode into the ordered per-tile cycle schedule.

    Weights are always bit-serial; activations follow the mode's y-bit group
    layout with a bit-serial sign group for signed tensors. Sign factors land
    on 2's-complement MSB planes/groups, and shift = weight bit + group shift.
    Hybrid and voting are masks over the top distinct shift levels: hybrid
    over all of them, voting over those left analog.
    """
    check_bits(w_bits, ConfigError, "w_bits")
    check_bits(x_bits, ConfigError, "x_bits")
    check_signedness(w_signedness, "w_signedness")   # group_layout checks x
    layout = group_layout(x_bits, x_signedness, mode.enc_bits)
    _, g_shift, g_neg = np.array(layout, dtype=np.int64).T
    w_neg = np.zeros(w_bits, dtype=np.int64)
    w_neg[-1] = w_signedness is Signedness.TWOS_COMPLEMENT
    e = np.empty(w_bits * len(layout), dtype=_PLAN_DTYPE)
    e["w_bit"] = w_bit = np.repeat(np.arange(w_bits), len(layout))
    e["act_group"] = group = np.tile(np.arange(len(layout)), w_bits)
    e["sign"] = 1 - 2 * (w_neg[w_bit] ^ g_neg[group])
    e["shift"] = shift = w_bit + g_shift[group]
    e["analog"] = True
    e["oversample"] = 1
    if mode.hybrid_boundary is not None:
        e["analog"] = shift < _level_cut(shift, mode.hybrid_boundary,
                                         "hybrid_boundary", "shift levels")
    if mode.voting is not None:
        analog = e["analog"]
        cut = _level_cut(shift[analog], mode.voting.boundary,
                         "voting_boundary", "analog shift levels")
        e["oversample"][analog & (shift >= cut)] = mode.voting.samples
    return CyclePlan(e)


@dataclass
class SimLayerResult:
    """Output and cycles by domain of one simulated layer.

    Over all tiles: analog_cycles and digital_cycles count each plan entry
    once, and repeat_cycles counts the extra readouts voting adds to voted
    entries. analog_ratio is the analog share of the entries, so voting
    does not move it; with no entries it is 1.0. A composite (attention, a
    whole network) is the field-wise sum of its parts (compose).
    """

    output: np.ndarray
    tiles: int
    analog_cycles: int
    digital_cycles: int
    repeat_cycles: int

    @property
    def total_cycles(self) -> int:
        return self.analog_cycles + self.digital_cycles + self.repeat_cycles

    @property
    def analog_ratio(self) -> float:
        entries = self.analog_cycles + self.digital_cycles
        return self.analog_cycles / entries if entries else 1.0

    @classmethod
    def compose(cls, parts, output) -> "SimLayerResult":
        """Account `parts`, run one after another, as one result."""
        return cls(output, *(sum(getattr(p, f) for p in parts)
                             for f in ("tiles", "analog_cycles",
                                       "digital_cycles", "repeat_cycles")))


def _bit_pair(bits) -> tuple:
    """(w_bits, x_bits) of an int or a pair, as given: quantize checks each."""
    pair = bits if isinstance(bits, tuple) else (bits, bits)
    if len(pair) != 2:
        raise DomainError(f"bits must be an int or a (w_bits, x_bits) pair, "
                          f"got {bits!r}")
    return pair


def _readout_chunks(analog: list, oversample: list, elems: int):
    """(start, stop, analog, oversample) of each readout chunk of a group: a
    run (macro.runs) of consecutive entries of one domain and one oversample,
    of oversample x elems levels each. An entry above the cap is drawn and
    noised whole (a vote in runs of samples), then read out in runs of
    rows."""
    lo = 0
    for (is_analog, samples), run in groupby(zip(analog, oversample)):
        hi = lo + sum(1 for _ in run)
        for start, stop in macro.runs(hi - lo, samples * elems):
            yield lo + start, lo + stop, is_analog, samples
        lo = hi


def _weight_planes(codes: np.ndarray, out: np.ndarray):
    """The weight stack [rows, bits*M] of one tile's codes [rows, M], formed
    in `out` [rows, bits, M]: column q*M + j is plane q of output j. Built
    from decompose_bits of a run of rows (macro.runs, M levels a row) at a
    time, so no integer stack of the whole tile exists."""
    rows, bits, m = out.shape
    for r0, r1 in macro.runs(rows, m):
        out[r0:r1] = decompose_bits(codes[r0:r1], bits).transpose(1, 0, 2)
    return out.reshape(rows, bits * m)


def _level_block(codes: np.ndarray, group: tuple, rhs: np.ndarray,
                 m: int) -> np.ndarray:
    """The float32 levels [B, bits*M] of one (tile, group): the group's DAC
    words of the tile's activation codes [B, rows] times the weight stack,
    one GEMM per run of rows (macro.runs, M levels a row, as for the weight
    planes), each exact as its levels are integers below 2^24 (MacroConfig).
    A run's CODE words die at their float32 cast, and the cast with its
    GEMM."""
    levels = np.empty((len(codes), rhs.shape[1]), dtype=np.float32)
    for r0, r1 in macro.runs(len(codes), m):
        np.matmul(encode_activation_groups(codes[r0:r1], [group])[0]
                  .astype(np.float32), rhs, out=levels[r0:r1])
    return levels


def _read(vs: list, samples: int, specs: list, cfgs: list, reads,
          table: StreamTable):
    """The one readout of a chunk's ideal levels, vs[p] for point p: yields
    (p, r0, r1, x) per point and run [r0, r1) of axis 1 (macro.runs), x the
    int64 total of each level's `samples` ADC codes, the noise drawn once
    for all points from the range of table positions `reads`."""
    if samples > 1:   # each point's code totals
        vs = majority_vote_readout(vs, samples, specs, cfgs, reads, table)
    else:
        draws, buf, ctxs = draw_noise(table, reads, vs[0].shape, specs)
    for p, (v, spec, cfg) in enumerate(zip(vs, specs, cfgs)):
        if samples == 1 and not spec.silent:
            v = apply_noise(v, spec, cfg, ctxs, draws, buf)
        for r0, r1 in macro.runs(v.shape[1], v[:, :1].size):
            x = v[:, r0:r1]
            yield p, r0, r1, x if samples > 1 else adc_readout(x, cfg)[0]


def simulate_matmul(act: QuantizedTensor, w: QuantizedTensor,
                    cfg: MacroConfig, spec: NoiseSpec, mode: EngineMode,
                    layer: int = 0) -> SimLayerResult:
    """Simulate act[B,D] @ w[D,M] with w stationary in the macro.

    D is tiled into ceil(D/rows) mappings, none if B or M is 0. Per (tile,
    activation group) the GEMMs of the group's DAC words [B, rows], a row
    slice at a time, against the tile's stacked weight planes [rows, Q*M]
    yield the levels of all Q weight bits at once.
    Digital entries accumulate their exact levels, analog ones the counts
    of their chunks' readout (_read). The one-point case of _simulate_points.
    """
    return _simulate_points([act], w, [cfg], [spec], mode, layer)[0]


def _simulate_points(acts: list, w: QuantizedTensor, cfgs: list,
                     specs: list, mode: EngineMode, layer: int = 0,
                     out=None) -> list:
    """simulate_matmul of the points of one _simulate_grid group in lockstep.

    Point p is the macro cfgs[p] with the noise specs[p]. `acts` holds one
    QuantizedTensor that every point reads, or one per point, each sharing
    _simulate_grid's group key. Each chunk is read out once for all points
    (_read), and every point applies its own count table and accumulator,
    with the ops and bytes of running it alone. Returns one SimLayerResult
    per point; `out`, one float64 [B, M] array per point, receives the
    outputs if given.
    """
    owner = [0] * len(cfgs) if len(acts) == 1 else range(len(acts))
    if w.codes.ndim != 2 or any(a.codes.ndim != 2 for a in acts):
        raise ShapeError("simulate_matmul expects 2-D operands")
    b, d = acts[0].shape
    d_w, m = w.shape
    if d != d_w:
        raise ShapeError(f"inner dimensions differ: {d} vs {d_w}")
    x_bits, x_sign = acts[0].params.bits, acts[0].params.signedness
    cfg, seed = cfgs[0], specs[0].seed
    if mode.enc_bits != cfg.enc_bits:
        raise ConfigError(
            f"mode enc_bits {mode.enc_bits} != macro enc_bits {cfg.enc_bits}")
    plan = plan_cycles(w.params.bits, x_bits, x_sign, w.params.signedness,
                       mode)
    layout = group_layout(x_bits, x_sign, cfg.enc_bits)
    q_bits = w.params.bits
    # column g of the (w_bit, act_group) grid is group g by weight bit, so a
    # chunk of it is a slice of the group's level block
    groups = plan.entries.reshape(q_bits, len(layout)).T
    chunks = [list(_readout_chunks(g["analog"].tolist(),
                                   g["oversample"].tolist(), b * m))
              for g in groups]
    weights = groups["sign"] << groups["shift"]   # int64 [groups, Q]
    tile_starts = range(0, d if b and m else 0, cfg.rows)   # empty: no tile
    tiles = len(tile_starts)
    # each count accumulated, a count table entry, rounded vote or digital
    # level, is at most full_scale_counts, so this bounds every |accum|
    if tiles * cfg.full_scale_counts * int(np.abs(weights).sum()) >= 1 << 63:
        raise ConfigError(
            f"{q_bits}b weights x {x_bits}b activations over {tiles} tiles "
            f"of {cfg.rows} rows can overflow the int64 accumulator")
    # per point: its count table and accumulator
    luts = [count_table(c) for c in cfgs]
    accums = [np.zeros((b, m), dtype=np.int64) for _ in cfgs]
    # the table lists the reads in the order the loop below takes them: per
    # tile, each analog entry once per oversample, keyed with every noise
    # tag (none for a silent run, whose reads only a level hook sees)
    keyed = groups[groups["analog"]]
    copies = keyed["oversample"]
    entry_start = np.repeat(np.cumsum(copies) - copies, copies)
    table = StreamTable(seed, noise_tags(specs), layer=layer,
                        tile=np.arange(tiles)[:, None],
                        w_bit=np.repeat(keyed["w_bit"], copies),
                        act_group=np.repeat(keyed["act_group"], copies),
                        sample=np.arange(len(entry_start)) - entry_start)
    read = 0   # the table position of the next read
    # one weight stack [rows, Q, M], which every tile overwrites
    stack = np.empty((min(cfg.rows, d), q_bits, m), dtype=np.float32)
    for start in tile_starts:
        stop = min(start + cfg.rows, d)
        rhs = _weight_planes(w.codes[start:stop], stack[:stop - start])
        for g, group in enumerate(layout):
            blocks = [_level_block(a.codes[:, start:stop], group, rhs, m)
                      .reshape(b, q_bits, m).transpose(1, 0, 2) for a in acts]
            for lo, hi, analog, samples in chunks[g]:
                if analog:
                    reads = range(read, read + (hi - lo) * samples)
                    read = reads.stop
                    xs = _read([blocks[o][lo:hi] for o in owner], samples,
                               specs, cfgs, reads, table)
                else:   # the exact levels
                    xs = ((p, r0, r1, blocks[o][lo:hi, r0:r1])
                          for p, o in enumerate(owner)
                          for r0, r1 in macro.runs(b, (hi - lo) * m))
                for p, r0, r1, x in xs:
                    accum = accums[p][r0:r1]
                    if analog and samples == 1 and luts[p].size <= x[0].size:
                        # codes read their weighted counts (module docstring)
                        folded = np.multiply.outer(weights[g, lo:hi], luts[p])
                        for counts, codes in zip(folded, x):
                            accum += counts[codes]
                        continue
                    # x becomes the run's counts: no codes outlive their use
                    if not analog:
                        x = x.astype(np.int64)
                    elif samples > 1:   # the vote in whole counts
                        x = (x / samples) * cfgs[p].lsb_counts
                        x = round_half_away(x).astype(np.int64)
                    else:
                        x = luts[p][x]
                    for weight, counts_e in zip(weights[g, lo:hi], x):
                        counts_e *= weight
                        accum += counts_e
            # no view or buffer of this group outlives it into the next
            # group's operands
            blocks = None
    analog = int(plan.entries["analog"].sum())
    entries = len(plan.entries)
    results = []
    for p, o in enumerate(owner):
        accum, accums[p] = accums[p], None   # counts go as the output lands
        results.append(SimLayerResult(
            output=np.multiply(accum, acts[o].params.scale * w.params.scale,
                               out=None if out is None else out[p]),
            tiles=tiles, analog_cycles=tiles * analog,
            digital_cycles=tiles * (entries - analog),
            repeat_cycles=tiles * (plan.cycles_per_tile - entries)))
    return results


def _simulate_grid(acts: list, w: QuantizedTensor, points: list, layer: int,
                   threads: int, out: np.ndarray) -> list:
    """One layer's simulate_matmul at every (macro, noise, mode) point, from
    acts[0] or acts[p] into out[p]. The lockstep rule: points that match in
    the key below run as one _simulate_points group; several groups map over
    `threads` worker threads. Returns the results in point order."""
    shared = len(acts) == 1
    groups = {}
    for p, (cfg, spec, mode) in enumerate(points):
        a = acts[0 if shared else p]
        groups.setdefault((cfg.rows, cfg.enc_bits, spec.seed, mode, a.shape,
                           a.params.bits, a.params.signedness), []).append(p)

    def run(idx):
        return _simulate_points(
            acts if shared else [acts[p] for p in idx], w,
            [points[p][0] for p in idx], [points[p][1] for p in idx],
            points[idx[0]][2], layer, out=[out[p] for p in idx])
    results = {}
    with ThreadPoolExecutor(threads) as pool:   # starts no thread until used
        mapper = pool.map if threads > 1 and len(groups) > 1 else map
        for idx, group in zip(groups.values(), mapper(run, groups.values())):
            results.update(zip(idx, group))
    return [results[p] for p in range(len(points))]


def simulate_conv2d(act, w, stride: int, padding: int, bits,
                    cfg: MacroConfig, spec: NoiseSpec, mode: EngineMode,
                    layer: int = 0) -> SimLayerResult:
    """Quantize, lower [C,H,W] x [F,C,kh,kw] to im2col matmul, reshape back.

    `bits` is an int or a (w_bits, x_bits) pair. The activation quantizes
    with quantize's data rule (unsigned when nothing is negative); padding
    zeros map to code 0 exactly under symmetric quantization.
    """
    w_bits, x_bits = _bit_pair(bits)
    act = np.asarray(act, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    if act.ndim != 3 or w.ndim != 4:
        raise ShapeError("simulate_conv2d expects act[C,H,W] and w[F,C,kh,kw]")
    if act.shape[0] != w.shape[1]:
        raise ShapeError(f"channel mismatch: {act.shape[0]} vs {w.shape[1]}")
    f, c, kh, kw = w.shape
    act_q = quantize(act, x_bits)
    w_q = quantize(w, w_bits, Signedness.TWOS_COMPLEMENT)
    patches = im2col(act_q.codes, kh, kw, stride, padding)
    res = simulate_matmul(
        QuantizedTensor(patches, act_q.params),
        QuantizedTensor(w_q.codes.reshape(f, c * kh * kw).T, w_q.params),
        cfg, spec, mode, layer=layer)
    out_h, out_w = conv_output_shape(act.shape[1], act.shape[2], kh, kw,
                                     stride, padding)
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
    floating point; A V runs with V stationary and the scores broadcast, each
    broadcast operand signed by quantize's rule (the scores, > 0, unsigned).
    The matmuls use stream ids `layer` and `layer + 1`, so their noise draws
    are independent. The result composes both (see SimLayerResult).
    """
    w_bits, x_bits = _bit_pair(bits)
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ShapeError("simulate_attention expects 2-D q, k, v")
    if q.shape[1] != k.shape[1] or k.shape[0] != v.shape[0] or 0 in k.shape:
        raise ShapeError(  # softmax needs a key, the 1/sqrt scale a width
            f"incompatible attention shapes {q.shape}, {k.shape}, {v.shape}")
    head_dim = q.shape[1]
    q_q = quantize(q, w_bits, Signedness.TWOS_COMPLEMENT)
    k_q = quantize(k, x_bits)
    qk = simulate_matmul(k_q, QuantizedTensor(q_q.codes.T, q_q.params),
                         cfg, spec, mode, layer=layer)
    scores = softmax(qk.output.T / np.sqrt(head_dim), axis=-1)
    a_q = quantize(scores, x_bits)
    v_q = quantize(v, w_bits, Signedness.TWOS_COMPLEMENT)
    av = simulate_matmul(a_q, v_q, cfg, spec, mode, layer=layer + 1)
    return SimLayerResult.compose([qk, av], av.output)
