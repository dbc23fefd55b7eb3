"""Engine tests: cycle planning, exactness, tiling, layer entry points."""

import ast
import pathlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from acimsim import engine, macro, rng
from acimsim.engine import (EngineMode, VotingSpec, plan_cycles,
                            simulate_attention, simulate_conv2d,
                            simulate_matmul, softmax)
from acimsim.errors import ConfigError, DomainError, ShapeError
from acimsim.macro import (NOISELESS, MacroConfig, NoiseSpec, NoiseUnit, Sigma,
                           adc_readout, count_table)
from acimsim.metrics import MacHistogram, linearity_sweep, mac_distribution
from acimsim.models import LinearLayer, TinyModel, engine_forward
from acimsim.quant import (CODE, QuantParams, QuantizedTensor, Signedness,
                           group_layout, quantize)
from acimsim.rng import RngContext
from acimsim.tensor import round_half_away
from oracles import int_matmul, total_mass
from streams import noise_at, vote_at

U = Signedness.UNSIGNED
TC = Signedness.TWOS_COMPLEMENT
SERIAL = EngineMode()


def lsb(value):
    return Sigma(value, NoiseUnit.LSB_RMS)


def rand_q(gen, shape, bits, signedness, scale=None):
    p = QuantParams(scale or float(gen.uniform(0.5, 2.0)), bits, signedness)
    codes = gen.integers(p.code_min, p.code_max + 1, size=shape)
    return QuantizedTensor(codes, p)


def oracle(act, w):
    # single scale product, exactly mirroring the engine's final rescale
    return int_matmul(act.codes, w.codes) * (act.params.scale
                                             * w.params.scale)


# ---------------------------------------------------------------- plan_cycles

def test_plan_bit_serial_8x8():
    plan = plan_cycles(8, 8, TC, TC, SERIAL)
    assert len(plan.entries) == 64
    assert plan.cycles_per_tile == 64
    assert set(plan.entries.shift) == set(range(15))
    assert plan.entries.shift.max() == 14
    assert plan.entries.analog.all()
    # sign lands on 2's-complement MSBs; both-MSB cycles multiply back to +1
    for e in plan.entries:
        want = (-1 if e.w_bit == 7 else 1) * (-1 if e.act_group == 7 else 1)
        assert e.sign == want
    assert plan.entries[-1].sign == 1


def test_plan_grouped_signed_activations():
    # 9-bit signed activations at y=4: two 4-bit body groups plus the sign
    # group, times 8 weight bits
    plan = plan_cycles(8, 9, TC, TC, EngineMode(enc_bits=4))
    assert len(plan.entries) == 24


def test_plan_y_doubling_halves_groups():
    counts = {y: len(plan_cycles(8, 8, U, TC, EngineMode(enc_bits=y)).entries)
              for y in (1, 2, 4)}
    assert counts == {1: 64, 2: 32, 4: 16}


def test_plan_hybrid_split():
    plan = plan_cycles(8, 8, TC, TC, EngineMode(hybrid_boundary=3))
    digital = [e for e in plan.entries if not e.analog]
    assert len(digital) == 6
    assert {e.shift for e in digital} == {12, 13, 14}
    assert plan.entries.analog.mean() == 58 / 64
    assert all(e.oversample == 1 for e in digital)


def test_plan_voting_oversamples_top_shifts():
    mode = EngineMode(voting=VotingSpec(boundary=3, samples=7))
    plan = plan_cycles(8, 8, TC, TC, mode)
    voted = [e for e in plan.entries if e.oversample == 7]
    assert len(voted) == 6
    assert {e.shift for e in voted} == {12, 13, 14}
    assert plan.cycles_per_tile == 58 + 6 * 7


def test_plan_hybrid_then_voting():
    mode = EngineMode(hybrid_boundary=2,
                      voting=VotingSpec(boundary=1, samples=3))
    plan = plan_cycles(8, 8, TC, TC, mode)
    voted = [e for e in plan.entries if e.oversample == 3]
    # voting applies to the top *analog* shift after the hybrid split
    assert {e.shift for e in voted} == {12}
    assert all(e.analog for e in voted)


def test_plan_validation():
    with pytest.raises(ConfigError):
        plan_cycles(8, 8, TC, TC, EngineMode(hybrid_boundary=16))
    with pytest.raises(ConfigError):
        plan_cycles(8, 8, TC, TC, EngineMode(voting=VotingSpec(16, 3)))
    with pytest.raises(ConfigError):
        plan_cycles(1, 8, TC, TC, SERIAL)
    with pytest.raises(ConfigError):
        plan_cycles(8, 17, TC, TC, SERIAL)
    with pytest.raises(ConfigError):
        VotingSpec(0, 3)
    with pytest.raises(ConfigError):
        EngineMode(enc_bits=0)


def test_plan_reconstructs_scalar_products():
    # sum of sign * 2^shift * (group value * weight plane) over the plan must
    # equal the plain integer product for every signed 4-bit code pair
    from acimsim.quant import decompose_bits, encode_activation_groups
    codes = np.arange(-8, 8)
    planes = decompose_bits(codes, 4)
    for y in (1, 2, 3):
        plan = plan_cycles(4, 4, TC, TC, EngineMode(enc_bits=y))
        groups = encode_activation_groups(codes, group_layout(4, TC, y))
        got = np.zeros((16, 16), dtype=np.int64)
        for e in plan.entries:
            got += (e.sign << e.shift) * np.outer(groups[e.act_group],
                                                  planes[e.w_bit])
        assert np.array_equal(got, np.outer(codes, codes))


# ------------------------------------------------------------ simulate_matmul

def test_matmul_zero_activations():
    # noise-free but deliberately non-boundary ADC: zeros stay exactly zero
    cfg = MacroConfig(rows=256, adc_bits=4)
    act = QuantizedTensor(np.zeros((2, 16), dtype=int), QuantParams(0.3, 4, U))
    w = rand_q(np.random.default_rng(0), (16, 5), 4, TC)
    res = simulate_matmul(act, w, cfg, NOISELESS, SERIAL)
    assert not res.output.any()


def test_matmul_signed_scalar_case():
    cfg = MacroConfig.at_boundary(256)
    act = QuantizedTensor(np.array([[-3]]), QuantParams(0.25, 4, TC))
    w = QuantizedTensor(np.array([[2]]), QuantParams(0.5, 4, TC))
    res = simulate_matmul(act, w, cfg, NOISELESS, SERIAL)
    assert res.output[0, 0] == -6 * 0.25 * 0.5


@pytest.mark.parametrize("x_sgn", [U, TC])
@pytest.mark.parametrize("w_sgn", [U, TC])
def test_matmul_exhaustive_3bit_pairs(x_sgn, w_sgn):
    # every (act pair, weight pair) over the full 3-bit code spaces at D=2
    cfg = MacroConfig.at_boundary(256)
    pa = QuantParams(1 / 3, 3, x_sgn)
    pw = QuantParams(1 / 5, 3, w_sgn)
    span_a = np.arange(pa.code_min, pa.code_max + 1)
    span_w = np.arange(pw.code_min, pw.code_max + 1)
    act = QuantizedTensor(
        np.array([(i, j) for i in span_a for j in span_a]), pa)
    w = QuantizedTensor(
        np.array([(i, j) for i in span_w for j in span_w]).T, pw)
    res = simulate_matmul(act, w, cfg, NOISELESS, SERIAL)
    assert np.array_equal(res.output, oracle(act, w))


def test_matmul_multi_tile_exact():
    # D=300 spans a full 256-row tile plus a short 44-row tile
    cfg = MacroConfig.at_boundary(256)
    gen = np.random.default_rng(5)
    act = rand_q(gen, (4, 300), 4, TC)
    w = rand_q(gen, (300, 6), 4, TC)
    res = simulate_matmul(act, w, cfg, NOISELESS, SERIAL)
    assert np.array_equal(res.output, oracle(act, w))
    assert res.tiles == 2
    assert res.total_cycles == 2 * 16


def test_matmul_16bit_sums_above_2_pow_31_exact():
    # 16-bit codes sum past 2^31, where an int32 @ of the codes wraps; the
    # engine's int64 accumulator matches the widened oracle
    gen = np.random.default_rng(47)
    act = rand_q(gen, (3, 64), 16, TC, scale=1.0)
    w = rand_q(gen, (64, 2), 16, TC, scale=1.0)
    act.codes[0] = w.codes[:, 0] = (1 << 15) - 1
    want = int_matmul(act.codes, w.codes)
    assert want[0, 0] == 64 * ((1 << 15) - 1) ** 2 > 1 << 31
    assert (act.codes @ w.codes)[0, 0] != want[0, 0]
    res = simulate_matmul(act, w, MacroConfig.at_boundary(64), NOISELESS,
                          SERIAL)
    assert np.array_equal(res.output, want)


def test_accumulator_bound_is_checked_before_allocating(monkeypatch):
    # 16b x 16b on 2^16 rows at y = 8: a tile's counts reach
    # full_scale_counts * sum|sign << shift| ~ 2^55, so about 2^8 tiles can
    # pass 2^63. Broadcast codes make that 2^24-deep matmul without memory.
    cfg = MacroConfig(1 << 16, 8, 8)
    mode = EngineMode(enc_bits=8)
    reach = cfg.full_scale_counts * ((1 << 16) - 1) * (1 + (1 << 8)
                                                       + (1 << 15))
    assert reach == cfg.full_scale_counts * sum(
        1 << int(s) for s in plan_cycles(16, 16, TC, TC, mode).entries.shift)
    edge = ((1 << 63) - 1) // reach   # the most tiles that cannot overflow

    def operands(tiles):
        p = QuantParams(1.0, 16, TC)
        d = tiles * cfg.rows
        code = np.array((1 << 15) - 1, dtype=CODE)
        return (QuantizedTensor(np.broadcast_to(code, (1, d)), p),
                QuantizedTensor(np.broadcast_to(code, (d, 1)), p))

    class Allocating(Exception):
        pass

    def allocating(c):
        raise Allocating

    monkeypatch.setattr(engine, "count_table", allocating)
    with pytest.raises(Allocating):
        simulate_matmul(*operands(edge), cfg, NOISELESS, mode)
    with pytest.raises(ConfigError, match=f"16b weights x 16b activations "
                       f"over {edge + 1} tiles"):
        simulate_matmul(*operands(edge + 1), cfg, NOISELESS, mode)


@pytest.mark.parametrize("y", [2, 3])
def test_matmul_scheme_equivalence(y):
    gen = np.random.default_rng(6)
    act = rand_q(gen, (3, 40), 5, TC)
    w = rand_q(gen, (40, 7), 5, TC)
    serial = simulate_matmul(act, w, MacroConfig.at_boundary(256, 1),
                             NOISELESS, SERIAL)
    parallel = simulate_matmul(act, w, MacroConfig.at_boundary(256, y),
                               NOISELESS, EngineMode(enc_bits=y))
    assert np.array_equal(serial.output, parallel.output)
    assert np.array_equal(serial.output, oracle(act, w))
    assert parallel.total_cycles < serial.total_cycles


def test_matmul_full_hybrid_ignores_noise():
    # a hybrid boundary covering every shift level is the exact digital result
    gen = np.random.default_rng(7)
    act = rand_q(gen, (2, 32), 4, TC)
    w = rand_q(gen, (32, 3), 4, TC)
    plan = plan_cycles(4, 4, TC, TC, SERIAL)
    levels = len({e.shift for e in plan.entries})
    mode = EngineMode(hybrid_boundary=levels)
    spec = NoiseSpec(random_sigma=lsb(2.0), seed=99)
    res = simulate_matmul(act, w, MacroConfig(256, 4), spec, mode)
    assert np.array_equal(res.output, oracle(act, w))
    assert res.analog_ratio == 0.0


def test_float32_levels_exact_at_the_2_pow_24_edge():
    # rows * (2^y - 1) = 4097 * 4095 = 2^24 - 1, the largest full scale
    # MacroConfig admits; a weight column of code -1 sets every plane bit,
    # so each of its levels against activations of 4095 sits at that edge
    rows, y = 4097, 12
    cfg = MacroConfig(rows, 16, y)
    assert cfg.full_scale_counts == (1 << 24) - 1
    gen = np.random.default_rng(24)
    act = QuantizedTensor(np.full((2, rows), 4095), QuantParams(1.0, 12, U))
    act.codes[1] = gen.integers(0, 4096, size=rows)
    w = rand_q(gen, (rows, 3), 8, TC, scale=1.0)
    w.codes[:, 0] = -1
    plan = plan_cycles(8, 12, U, TC, EngineMode(enc_bits=y))
    mode = EngineMode(enc_bits=y,
                      hybrid_boundary=len({e.shift for e in plan.entries}))
    res = simulate_matmul(act, w, cfg, NOISELESS, mode)
    assert res.analog_ratio == 0.0
    assert res.output[0, 0] == -((1 << 24) - 1)
    assert np.array_equal(res.output, int_matmul(act.codes, w.codes))


def test_matmul_partial_hybrid_and_voting_noiseless_exact():
    gen = np.random.default_rng(8)
    act = rand_q(gen, (2, 20), 4, TC)
    w = rand_q(gen, (20, 3), 4, TC)
    cfg = MacroConfig.at_boundary(256)
    for mode in (EngineMode(hybrid_boundary=2),
                 EngineMode(voting=VotingSpec(2, 5))):
        res = simulate_matmul(act, w, cfg, NOISELESS, mode)
        assert np.array_equal(res.output, oracle(act, w))


def _random_exactness_case(gen):
    """One randomized (rows, y, bits, signedness, hybrid, voting) config."""
    rows = int(gen.integers(1, 65))
    d = int(gen.integers(1, 3 * rows + 2))
    y = int(gen.integers(1, 5))
    w_bits = int(gen.integers(2, 9))
    x_bits = int(gen.integers(max(2, y), 9))
    x_sgn = (U, TC)[int(gen.integers(2))]
    w_sgn = (U, TC)[int(gen.integers(2))]
    shifts = len({e.shift for e in plan_cycles(
        w_bits, x_bits, x_sgn, w_sgn, EngineMode(enc_bits=y)).entries})
    hybrid = None
    if gen.random() < 0.5:
        hybrid = int(gen.integers(1, shifts + 1))
    voting = None
    analog = shifts - (hybrid or 0)
    if analog and gen.random() < 0.5:
        voting = VotingSpec(int(gen.integers(1, analog + 1)),
                            int(gen.integers(2, 6)))
    mode = EngineMode(enc_bits=y, hybrid_boundary=hybrid, voting=voting)
    act = rand_q(gen, (int(gen.integers(1, 6)), d), x_bits, x_sgn)
    w = rand_q(gen, (d, int(gen.integers(1, 6))), w_bits, w_sgn)
    return MacroConfig.at_boundary(rows, y), mode, act, w


def test_matmul_randomized_configs_bit_exact():
    # noiseless engine at the boundary ADC equals the integer oracle over
    # randomized tilings, encodings, bit widths, signedness, hybrid and voting
    seen = set()
    for seed in range(50):
        cfg, mode, act, w = _random_exactness_case(np.random.default_rng(seed))
        res = simulate_matmul(act, w, cfg, NOISELESS, mode)
        what = (seed, cfg, mode, act.params, w.params, act.shape, w.shape)
        assert np.array_equal(res.output, oracle(act, w)), what
        plan = plan_cycles(w.params.bits, act.params.bits,
                           act.params.signedness, w.params.signedness, mode)
        b, m = act.shape[0], w.shape[1]
        mass = total_mass(mac_distribution(act, w, cfg))
        assert mass == res.tiles * len(plan.entries) * b * m, what
        seen |= {f"y{cfg.enc_bits}", act.params.signedness.value}
        if mode.hybrid_boundary is not None:
            seen.add("hybrid")
        if mode.voting is not None:
            seen.add("voting")
        if act.shape[1] % cfg.rows and res.tiles > 1:
            seen.add("ragged tiles")
    # the drawn configs reach every feature the test claims to cover
    assert seen == {"y1", "y2", "y3", "y4", U.value, TC.value, "hybrid",
                    "voting", "ragged tiles"}


def _reference_matmul(act, w, cfg, spec, mode, layer):
    """The engine loop without the matmul's stream table: int64 levels per
    plan entry, walked group by group, each entry's streams keyed in a table
    of their own (streams.py)."""
    plan = plan_cycles(w.params.bits, act.params.bits, act.params.signedness,
                       w.params.signedness, mode)
    layout = group_layout(act.params.bits, act.params.signedness,
                          cfg.enc_bits)
    u_a = act.codes & ((1 << act.params.bits) - 1)
    u_w = w.codes & ((1 << w.params.bits) - 1)
    accum = np.zeros((act.shape[0], w.shape[1]), dtype=np.int64)
    for t, start in enumerate(range(0, act.shape[1], cfg.rows)):
        rows = slice(start, start + cfg.rows)
        for g, (width, gshift, _) in enumerate(layout):
            a_g = (u_a[:, rows] >> gshift) & ((1 << width) - 1)
            for e in (e for e in plan.entries if e.act_group == g):
                levels = a_g @ ((u_w[rows] >> e.w_bit) & 1)
                if not e.analog:
                    accum += (e.sign << e.shift) * levels
                    continue
                ctx = RngContext(layer=layer, tile=t, w_bit=e.w_bit,
                                 act_group=g)
                if e.oversample > 1:
                    total, = vote_at(
                        [levels[None]], e.oversample, [spec], [cfg],
                        [replace(ctx, sample=s) for s in range(e.oversample)])
                    mac = (total[0] / e.oversample) * cfg.lsb_counts
                else:
                    _, mac = adc_readout(
                        noise_at(levels[None], spec, cfg, [ctx])[0], cfg)
                accum += (e.sign << e.shift) * round_half_away(mac).astype(
                    np.int64)
    return accum * (act.params.scale * w.params.scale)


def _noisy_cases():
    """40 seeded noisy configs: (seed, cfg, mode, act, w, sigmas, layer)."""
    for seed in range(40):
        gen = np.random.default_rng(seed)
        cfg, mode, act, w = _random_exactness_case(gen)
        cfg = MacroConfig(cfg.rows, max(1, cfg.adc_bits - 2), cfg.enc_bits)
        sigmas = ((0.7, 0.0), (0.0, 0.5), (0.7, 0.5), (0.0, 0.0))[seed % 4]
        yield seed, cfg, mode, act, w, sigmas, int(gen.integers(0, 4))


def _logging_spec(seed, sigmas, log):
    """The case's noise with a level hook that logs every RngContext."""
    def hook(levels, ctx):
        log.append(ctx)
        return levels
    random_lsb, nonlin_lsb = sigmas
    return NoiseSpec(random_sigma=lsb(random_lsb),
                     nonlin_sigma=Sigma(nonlin_lsb, NoiseUnit.VPP_PCT),
                     seed=seed, level_hook=hook)


def test_matmul_noisy_equals_reference_loop():
    # the stream table changes no draw: every noisy output equals the loop
    # that keys each stream on its own, and a level hook sees the same
    # RngContext sequence in the same order
    seen = set()
    for seed, cfg, mode, act, w, sigmas, layer in _noisy_cases():
        random_lsb, nonlin_lsb = sigmas
        calls = {"engine": [], "reference": []}
        got = simulate_matmul(act, w, cfg,
                              _logging_spec(seed, sigmas, calls["engine"]),
                              mode, layer=layer).output
        want = _reference_matmul(
            act, w, cfg, _logging_spec(seed, sigmas, calls["reference"]),
            mode, layer)
        what = (seed, cfg, mode, act.params, w.params, act.shape, w.shape)
        assert np.array_equal(got, want), what
        assert calls["engine"] == calls["reference"], what
        assert calls["engine"] or mode.hybrid_boundary, what
        seen |= {f"y{cfg.enc_bits}", f"random{random_lsb}",
                 f"nonlin{nonlin_lsb}"}
        if layer:
            seen.add("layer")
        if mode.hybrid_boundary is not None:
            seen.add("hybrid")
        if mode.voting is not None:
            seen.add("voting")
        if act.shape[1] % cfg.rows and act.shape[1] > cfg.rows:
            seen.add("ragged tiles")
    assert {"y1", "y4", "random0.7", "random0.0", "nonlin0.5", "nonlin0.0",
            "layer", "hybrid", "voting", "ragged tiles"} <= seen


def test_readout_draws_read_stream_tables_only(monkeypatch):
    # a StreamTable position is the one stream address of readout noise:
    # noisy matmuls and linearity sweeps run with rng.stream failing
    def refuse(*args, **kw):
        raise AssertionError("a readout draw keyed a stream by RngContext")
    gen = np.random.default_rng(21)
    act = rand_q(gen, (3, 40), 6, TC)
    w = rand_q(gen, (40, 4), 5, TC)
    cfg = MacroConfig(16, 5)
    spec = NoiseSpec(lsb(0.7), Sigma(2.0, NoiseUnit.VPP_PCT), seed=3)
    mode = EngineMode(hybrid_boundary=1, voting=VotingSpec(2, 3))
    noiseless = simulate_matmul(act, w, cfg, NOISELESS, mode).output
    monkeypatch.setattr(rng, "stream", refuse)
    with pytest.raises(AssertionError, match="keyed a stream"):
        rng.stream(3, RngContext(), rng.TAG_RANDOM)
    noisy = simulate_matmul(act, w, cfg, spec, mode).output
    assert not np.array_equal(noisy, noiseless)
    entries = plan_cycles(5, 6, TC, TC, mode).entries   # hybrid and voted
    assert not entries["analog"].all() and entries["oversample"].max() == 3
    for samples in (1, 3):
        sweep = linearity_sweep(cfg, spec, 100, samples=samples)
        assert sweep.sigma.max() > 0


@pytest.mark.parametrize("rows", [64, 48, 3, 1])
def test_matmul_integer_and_rounded_steps_equal_reference(rows):
    # count tables that are code * step (an integer ADC step) and tables
    # that round a fractional step both equal the reference loop, alone and
    # in one lockstep run over ADC widths and noise levels
    cfgs, specs, exact = [], [], set()
    for adc_bits in range(1, 10):
        cfg = MacroConfig(rows, adc_bits)
        table = count_table(cfg)
        linear = np.array_equal(table, np.arange(table.size) * table[1])
        assert linear == (cfg.lsb_counts.is_integer() or adc_bits == 1), cfg
        exact.add(linear)
        for sigma in (0.0, 0.4, 1.5):
            cfgs.append(cfg)
            specs.append(NoiseSpec(random_sigma=lsb(sigma), seed=3))
    assert exact == {True, False}
    gen = np.random.default_rng(rows)
    act = rand_q(gen, (5, 2 * rows + 3), 6, TC)
    w = rand_q(gen, (2 * rows + 3, 4), 5, TC)
    points = engine._simulate_points([act], w, cfgs, specs, SERIAL, layer=1)
    for cfg, spec, res in zip(cfgs, specs, points):
        want = _reference_matmul(act, w, cfg, spec, SERIAL, 1)
        assert np.array_equal(res.output, want), (cfg, spec)
        alone = simulate_matmul(act, w, cfg, spec, SERIAL, layer=1).output
        assert alone.tobytes() == res.output.tobytes(), (cfg, spec)


def test_matmul_any_readout_chunking_gives_same_bytes(monkeypatch):
    # one entry per chunk and whole groups per chunk draw the same streams
    # and hand the level hook the same RngContext sequence as the default
    multi_entry = 0
    for seed, cfg, mode, act, w, sigmas, layer in _noisy_cases():
        runs = []
        for cap in (macro._CHUNK_ELEMS, 1, 1 << 30):
            monkeypatch.setattr(macro, "_CHUNK_ELEMS", cap)
            log = []
            out = simulate_matmul(act, w, cfg, _logging_spec(seed, sigmas, log),
                                  mode, layer=layer).output
            runs.append((out, log))
        monkeypatch.undo()
        what = (seed, cfg, mode, act.shape, w.shape)
        for out, log in runs[1:]:
            assert np.array_equal(out, runs[0][0]), what
            assert log == runs[0][1], what
        plan = plan_cycles(w.params.bits, act.params.bits,
                           act.params.signedness, w.params.signedness, mode)
        layout = group_layout(act.params.bits, act.params.signedness,
                              cfg.enc_bits)
        groups = [plan.entries[plan.entries.act_group == g]
                  for g in range(len(layout))]
        elems = act.shape[0] * w.shape[1]
        multi_entry += sum(
            stop - start > 1 for e in groups
            for start, stop, *_ in engine._readout_chunks(
                e.analog.tolist(), e.oversample.tolist(), elems))
    # the default cap does group several entries into one chunk
    assert multi_entry > 100


def test_conv_attention_lockstep_any_chunking_give_same_bytes(monkeypatch):
    # operand slices, readout chunks and row blocks of any size change no
    # byte of a y=4 unsigned conv on a ragged last tile, of attention, or of
    # a lockstep class with an input per point
    gen = np.random.default_rng(31)
    noisy = NoiseSpec(lsb(0.6), Sigma(2.0, NoiseUnit.VPP_PCT), seed=9)
    voted = EngineMode(4, hybrid_boundary=1, voting=VotingSpec(1, 3))
    image = gen.uniform(0, 1, (3, 6, 6))        # C*kh*kw = 27 on 16 rows
    filters = gen.normal(size=(4, 3, 3, 3))
    q, k, v = (gen.normal(size=(5, 20)) for _ in range(3))
    acts = [rand_q(gen, (7, 40), 6, TC) for _ in range(2)]
    w = rand_q(gen, (40, 9), 5, TC)
    cfg = MacroConfig(16, 5)
    runs = {
        "conv": lambda: simulate_conv2d(image, filters, 1, 1, 8,
                                        MacroConfig(16, 6, 4), noisy, voted,
                                        layer=3).output,
        "attention": lambda: simulate_attention(q, k, v, 6, cfg, noisy,
                                                SERIAL).output,
        "lockstep": lambda: [r.output for r in engine._simulate_points(
            acts, w, [cfg, MacroConfig(16, 3)],
            [noisy, NoiseSpec(random_sigma=lsb(0.3), seed=9)],
            EngineMode(hybrid_boundary=2), layer=1)],
    }
    assert quantize(image, 8).params.signedness is U
    for name, run in runs.items():
        outs = []
        for cap in (macro._CHUNK_ELEMS, 1, 1 << 30):
            monkeypatch.setattr(macro, "_CHUNK_ELEMS", cap)
            outs.append(np.asarray(run()).tobytes())
        monkeypatch.undo()
        assert outs[1] == outs[0] and outs[2] == outs[0], name


def _oversized_layer():
    """A 2700x20 @ 20x24 layer on 16 rows: each plan entry holds about 4x
    macro._CHUNK_ELEMS levels, so its readout splits into row blocks of
    _CHUNK_ELEMS // 24 = 682 rows and a ragged last block of 654."""
    gen = np.random.default_rng(44)
    act = rand_q(gen, (2700, 20), 3, TC)
    w = rand_q(gen, (20, 24), 3, TC)
    assert 3.9 < 2700 * 24 / macro._CHUNK_ELEMS < 4
    assert 2700 % (macro._CHUNK_ELEMS // 24) == 654
    return act, w, MacroConfig(16, 4)


# CODE DAC words and their float32 cast of one operand slice of the
# 16-row tiles of _oversized_layer and _two_group_layer
_WORD_SLICE = (macro._CHUNK_ELEMS // 24) * 16 * (np.dtype(CODE).itemsize + 4)


def _traced_peak(run) -> int:
    """The tracemalloc peak of run(), after one untraced warm-up run."""
    run()   # warm caches and imports
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oversized_entry_is_read_out_in_row_blocks(monkeypatch):
    # every engine ADC call, alone, silent or in lockstep, reads at most
    # _CHUNK_ELEMS levels, and together they read every analog level once
    act, w, cfg = _oversized_layer()
    sizes = []

    def recording(v, c):
        sizes.append(np.size(v))
        return adc_readout(v, c)

    monkeypatch.setattr(engine, "adc_readout", recording)
    noisy = NoiseSpec(random_sigma=lsb(0.7), seed=5)
    runs = (([cfg], [noisy]), ([cfg], [NOISELESS]),
            ([cfg, MacroConfig(16, 3), cfg],
             [noisy, NoiseSpec(seed=5), replace(noisy, nonlin_sigma=lsb(1.0))]))
    entries = len(plan_cycles(3, 3, TC, TC, SERIAL).entries)
    for cfgs, specs in runs:
        sizes.clear()
        engine._simulate_points([act], w, cfgs, specs, SERIAL)
        assert max(sizes) <= macro._CHUNK_ELEMS
        assert 654 * 24 in sizes
        assert sum(sizes) == len(cfgs) * 2 * entries * 2700 * 24


def test_oversized_entry_equals_reference_loop():
    # row blocks change no byte: hybrid, voted and lockstep runs of the
    # oversized layer equal the reference loop at the default cap
    act, w, cfg = _oversized_layer()
    voted = EngineMode(hybrid_boundary=1, voting=VotingSpec(1, 3))
    entries = plan_cycles(3, 3, TC, TC, voted).entries
    assert not entries["analog"].all() and entries["oversample"].max() == 3
    specs = [NoiseSpec(lsb(0.7), Sigma(3.0, NoiseUnit.VPP_PCT), seed=8),
             NoiseSpec(random_sigma=lsb(0.4), seed=8), NoiseSpec(seed=8)]
    cfgs = [cfg, MacroConfig(16, 5), cfg]
    for mode in (SERIAL, voted):
        points = engine._simulate_points([act], w, cfgs, specs, mode, layer=2)
        for c, spec, res in zip(cfgs, specs, points):
            want = _reference_matmul(act, w, c, spec, mode, 2)
            assert res.output.tobytes() == want.tobytes(), (c, spec, mode)


def test_oversized_entry_peak_memory():
    # the readout's temporaries are row blocks, not whole entries: the peak
    # stays within the accumulator, one entry's draws, one group's GEMM
    # block, one slice of DAC words and 6 block-sized temporaries
    act, w, cfg = _oversized_layer()
    spec = NoiseSpec(random_sigma=lsb(0.7), seed=5)
    entry = 2700 * 24 * 8
    bound = 2 * entry + 2700 * 3 * 24 * 4 + _WORD_SLICE \
        + 6 * macro._CHUNK_ELEMS * 8
    peak = _traced_peak(lambda: simulate_matmul(act, w, cfg, spec, SERIAL))
    assert peak < bound, (peak, bound)


def _two_group_layer():
    """A 2700x20 @ 20x24 layer on 16 rows at y=2: two activation groups (2
    body bits and the sign) of four 4-bit weight planes, 1 MB of float32
    levels per (tile, group)."""
    gen = np.random.default_rng(45)
    act = rand_q(gen, (2700, 20), 3, TC)
    w = rand_q(gen, (20, 24), 4, TC)
    assert len(group_layout(3, TC, 2)) == 2
    return act, w, MacroConfig(16, 4, 2)


def test_weight_planes_peak_memory():
    # two 256-row tiles of 8-bit weights for 256 outputs: the tiles share one
    # float32 weight stack (2 MB), built from CODE planes of 64 rows at a
    # time (0.5 MB), never from an integer stack of a whole tile (2 MB)
    gen = np.random.default_rng(46)
    act = rand_q(gen, (4, 512), 8, TC)
    w = rand_q(gen, (512, 256), 8, TC)
    stack = 256 * 8 * 256 * 4
    planes = 64 * 8 * 256 * np.dtype(CODE).itemsize
    bound = stack + planes + 4 * macro._CHUNK_ELEMS * 8
    peak = _traced_peak(lambda: simulate_matmul(
        act, w, MacroConfig.at_boundary(256), NOISELESS, SERIAL))
    assert peak < bound, (peak, bound)


@pytest.mark.parametrize("hybrid", [None, 3])
def test_no_level_block_outlives_its_group(hybrid):
    # a silent run, alone or hybrid with every group ending on a digital
    # chunk, holds one group's level block at a time: the peak stays within
    # the accumulator, one level block, one operand slice and 5 row-block
    # temporaries (the ADC's four and one spare), with no draws
    act, w, cfg = _two_group_layer()
    mode = EngineMode(2, hybrid_boundary=hybrid)
    entries = plan_cycles(4, 3, TC, TC, mode).entries
    assert hybrid is None or not entries[entries.w_bit == 3].analog.any()
    bound = 2700 * 24 * 8 + 2700 * 4 * 24 * 4 + _WORD_SLICE \
        + 5 * macro._CHUNK_ELEMS * 8
    peak = _traced_peak(lambda: simulate_matmul(act, w, cfg, NOISELESS, mode))
    assert peak < bound, (peak, bound)


@pytest.mark.parametrize("bad", ["nan", "none", "scalar", "one row", "half"])
def test_level_hook_result_is_checked(bad):
    # a hook result that is not real levels of its row's shape without NaN
    # raises DomainError naming the hook and the RngContext, in plain and
    # voted matmuls and in linearity sweeps
    hook = {"nan": lambda v, c: v * np.nan, "none": lambda v, c: None,
            "scalar": lambda v, c: 1.0, "one row": lambda v, c: v[:1],
            "half": lambda v, c: v[..., ::2]}[bad]
    gen = np.random.default_rng(3)
    act = rand_q(gen, (3, 20), 4, TC)
    w = rand_q(gen, (20, 5), 4, TC)
    spec = NoiseSpec(random_sigma=lsb(0.5), level_hook=hook)
    match = r"level_hook .* for RngContext\(layer=0, tile=0"
    for mode in (SERIAL, EngineMode(voting=VotingSpec(1, 3))):
        with pytest.raises(DomainError, match=match):
            simulate_matmul(act, w, MacroConfig(8, 4), spec, mode)
    with pytest.raises(DomainError, match="level_hook .* for RngContext"):
        linearity_sweep(MacroConfig(8, 4), spec, 100)


def test_level_hook_infinities_read_clamped_codes():
    cfg = MacroConfig(8, 4)
    for shift, code in ((np.inf, 15), (-np.inf, 0)):
        spec = NoiseSpec(level_hook=lambda v, c: v + shift)
        sweep = linearity_sweep(cfg, spec, 100)
        assert np.all(sweep.mean == code) and np.all(sweep.sigma == 0)


def test_matmul_rejects_layer_outside_spawn_word():
    gen = np.random.default_rng(2)
    act = rand_q(gen, (2, 8), 4, TC)
    w = rand_q(gen, (8, 2), 4, TC)
    spec = NoiseSpec(random_sigma=lsb(0.5), seed=1)
    for layer in (-1, 2**32, 2**70):
        with pytest.raises(DomainError, match="layer"):
            simulate_matmul(act, w, MacroConfig(8, 4), spec, SERIAL,
                            layer=layer)


def test_matmul_deterministic_replay():
    gen = np.random.default_rng(9)
    act = rand_q(gen, (2, 64), 6, TC)
    w = rand_q(gen, (64, 4), 6, TC)
    cfg = MacroConfig(256, 8)
    spec = NoiseSpec(random_sigma=lsb(1.0), nonlin_sigma=lsb(0.5), seed=17)
    a = simulate_matmul(act, w, cfg, spec, SERIAL)
    b = simulate_matmul(act, w, cfg, spec, SERIAL)
    assert np.array_equal(a.output, b.output)
    c = simulate_matmul(act, w, cfg, spec, SERIAL, layer=1)
    assert not np.array_equal(a.output, c.output)


def test_matmul_noise_degrades_monotonically():
    gen = np.random.default_rng(10)
    act = rand_q(gen, (4, 64), 8, TC)
    w = rand_q(gen, (64, 8), 8, TC)
    cfg = MacroConfig.at_boundary(256)
    exact = oracle(act, w)
    mse = []
    for sigma in (0.25, 1.0):
        errs = []
        for seed in range(5):
            spec = NoiseSpec(random_sigma=lsb(sigma), seed=seed)
            out = simulate_matmul(act, w, cfg, spec, SERIAL).output
            errs.append(np.mean((out - exact) ** 2))
        mse.append(np.mean(errs))
    assert mse[0] < mse[1]


def test_matmul_forced_msb_error_dominates():
    # +1-count bump on the top-shift cycle vs the bottom one; at step = 1 the
    # output displacement ratio is exactly 2^max_shift
    rows, bits = 16, 4
    cfg = MacroConfig(rows=rows, adc_bits=4)  # step = 16/16 = 1
    gen = np.random.default_rng(11)
    act = rand_q(gen, (1, rows), bits, U, scale=1.0)
    w = rand_q(gen, (rows, 1), bits, U, scale=1.0)
    base = simulate_matmul(act, w, cfg, NOISELESS, SERIAL).output[0, 0]

    def bump(w_bit, act_group):
        def hook(levels, ctx):
            if ctx.w_bit == w_bit and ctx.act_group == act_group:
                return levels + 1.0
            return levels
        spec = NoiseSpec(level_hook=hook)
        return simulate_matmul(act, w, cfg, spec, SERIAL).output[0, 0]

    msb = bump(bits - 1, bits - 1) - base
    lsb_disp = bump(0, 0) - base
    assert msb == 2 ** 6 * lsb_disp
    assert lsb_disp == 1.0  # one count at shift 0, scales are 1


def test_matmul_record_levels_mass():
    gen = np.random.default_rng(12)
    act = rand_q(gen, (3, 300), 4, U)
    w = rand_q(gen, (300, 5), 4, TC)
    cfg = MacroConfig.at_boundary(256)
    res = simulate_matmul(act, w, cfg, NOISELESS, SERIAL)
    hist = mac_distribution(act, w, cfg)
    assert len(hist.counts) == 16  # (w_bit, act_group) pairs
    assert total_mass(hist) == res.total_cycles * 3 * 5


def _reference_levels(act, w, cfg):
    """Level counts by (w_bit, act_group), tallied from int64 levels."""
    layout = group_layout(act.params.bits, act.params.signedness,
                          cfg.enc_bits)
    u_a = act.codes & ((1 << act.params.bits) - 1)
    u_w = w.codes & ((1 << w.params.bits) - 1)
    counts = {}
    for start in range(0, act.shape[1], cfg.rows):
        rows = slice(start, start + cfg.rows)
        for g, (width, gshift, _) in enumerate(layout):
            a_g = (u_a[:, rows] >> gshift) & ((1 << width) - 1)
            for q in range(w.params.bits):
                levels = a_g @ ((u_w[rows] >> q) & 1)
                counts[q, g] = counts.get((q, g), 0) + np.bincount(
                    levels.ravel(), minlength=cfg.full_scale_counts + 1)
    return counts


def test_mac_distribution_ignores_hybrid_and_voting():
    # the level hook sees each (tile, w_bit, act_group) block once, so the
    # histogram equals a tally of int64 levels
    for seed in range(40):
        cfg, _, act, w = _random_exactness_case(np.random.default_rng(seed))
        rows = mac_distribution(act, w, cfg).to_rows()
        want = MacHistogram(_reference_levels(act, w, cfg)).to_rows()
        assert rows == want, seed


def test_matmul_shape_and_mode_errors():
    cfg = MacroConfig(256, 9)
    q1 = QuantizedTensor(np.zeros(4, dtype=int), QuantParams(1.0, 4, U))
    q2 = QuantizedTensor(np.zeros((4, 2), dtype=int), QuantParams(1.0, 4, U))
    q3 = QuantizedTensor(np.zeros((3, 2), dtype=int), QuantParams(1.0, 4, U))
    with pytest.raises(ShapeError):
        simulate_matmul(q1, q2, cfg, NOISELESS, SERIAL)
    with pytest.raises(ShapeError):
        simulate_matmul(q2, q3, cfg, NOISELESS, SERIAL)
    q4 = QuantizedTensor(np.zeros((2, 3), dtype=int), QuantParams(1.0, 4, U))
    with pytest.raises(ConfigError):
        # mode says y=2 but the macro is configured for y=1
        simulate_matmul(q2, q4, cfg, NOISELESS, EngineMode(enc_bits=2))


# ---------------------------------------------------- layer-level entry points

def test_linear_zero_weights_broadcasts_bias():
    # a linear layer is the engine matmul plus a float bias, added by the
    # model's layer walker
    bias = np.array([1.5, -2.0])
    model = TinyModel([LinearLayer(np.zeros((8, 2)), bias)], w_bits=4, x_bits=4)
    (out, _), = engine_forward(
        model, np.ones((3, 8)),
        [(MacroConfig.at_boundary(256), NOISELESS, SERIAL)])
    assert np.array_equal(out, np.tile(bias, (3, 1)))


def test_linear_equals_matmul_plus_bias():
    gen = np.random.default_rng(13)
    x = gen.normal(size=(4, 32))
    w = gen.normal(size=(32, 5))
    bias = gen.normal(size=5)
    cfg = MacroConfig(256, 8)
    spec = NoiseSpec(random_sigma=lsb(0.7), seed=3)
    model = TinyModel([LinearLayer(w, bias)], w_bits=6, x_bits=6)
    (with_bias, _), = engine_forward(model, x, [(cfg, spec, SERIAL)])
    bare = simulate_matmul(quantize(x, 6, TC), quantize(w, 6, TC), cfg, spec,
                           SERIAL, layer=0)
    assert np.array_equal(with_bias, bare.output + bias)


def test_conv_single_pixel_scalar_multiply():
    cfg = MacroConfig.at_boundary(256)
    act = np.full((1, 1, 1), 2.0)
    w = np.full((1, 1, 1, 1), -0.5)
    res = simulate_conv2d(act, w, 1, 0, 8, cfg, NOISELESS, SERIAL)
    assert res.output.shape == (1, 1, 1)
    assert res.output[0, 0, 0] == pytest.approx(-1.0)


def test_conv_zero_input():
    cfg = MacroConfig.at_boundary(256)
    act = np.zeros((2, 4, 4))
    w = np.random.default_rng(14).normal(size=(3, 2, 3, 3))
    res = simulate_conv2d(act, w, 1, 0, 8, cfg, NOISELESS, SERIAL)
    assert not res.output.any()


def test_conv_zero_filters():
    # as a matmul of zero output columns runs, so does a conv of no filters;
    # its weight reshape once raised numpy's bare ValueError
    cfg = MacroConfig.at_boundary(256)
    res = simulate_conv2d(np.ones((2, 5, 5)), np.ones((0, 2, 3, 3)), 1, 0, 8,
                          cfg, NOISELESS, SERIAL)
    assert res.output.shape == (0, 3, 3)


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1)])
def test_conv_matches_direct_convolution(stride, padding):
    # noiseless boundary run equals the direct convolution of the
    # fake-quantized operands
    gen = np.random.default_rng(15)
    act = np.abs(gen.normal(size=(2, 6, 6)))
    w = gen.normal(size=(3, 2, 3, 3))
    cfg = MacroConfig.at_boundary(256)
    res = simulate_conv2d(act, w, stride, padding, 8, cfg, NOISELESS, SERIAL)
    aq = quantize(act, 8, U)
    wq = quantize(w, 8, TC)
    a = (aq.codes * aq.params.scale)
    k = (wq.codes * wq.params.scale)
    ap = np.pad(a, ((0, 0), (padding, padding), (padding, padding)))
    oh = (6 + 2 * padding - 3) // stride + 1
    want = np.empty((3, oh, oh))
    for f in range(3):
        for i in range(oh):
            for j in range(oh):
                patch = ap[:, i * stride:i * stride + 3, j * stride:j * stride + 3]
                want[f, i, j] = np.sum(patch * k[f])
    assert res.output.shape == want.shape
    assert np.allclose(res.output, want, rtol=1e-10, atol=1e-12)


def test_conv_signed_activations_auto():
    gen = np.random.default_rng(16)
    act = gen.normal(size=(1, 4, 4))  # mixed sign input
    w = gen.normal(size=(2, 1, 2, 2))
    cfg = MacroConfig.at_boundary(256)
    res = simulate_conv2d(act, w, 1, 0, (8, 6), cfg, NOISELESS, SERIAL)
    aq = quantize(act, 6, TC)
    wq = quantize(w, 8, TC)
    want0 = np.sum(aq.codes[:, :2, :2] * aq.params.scale
                   * wq.codes[0] * wq.params.scale)
    assert res.output[0, 0, 0] == pytest.approx(want0, rel=1e-10)


def test_conv_geometry_error():
    cfg = MacroConfig.at_boundary(256)
    with pytest.raises(ShapeError):
        simulate_conv2d(np.ones((1, 2, 2)), np.ones((1, 1, 3, 3)), 1, 0, 8,
                        cfg, NOISELESS, SERIAL)
    with pytest.raises(ShapeError):
        simulate_conv2d(np.ones((2, 4, 4)), np.ones((1, 1, 2, 2)), 1, 0, 8,
                        cfg, NOISELESS, SERIAL)


def test_attention_single_token():
    cfg = MacroConfig.at_boundary(256)
    gen = np.random.default_rng(17)
    q = gen.normal(size=(1, 8))
    k = gen.normal(size=(1, 8))
    v = gen.normal(size=(1, 8))
    res = simulate_attention(q, k, v, 8, cfg, NOISELESS, SERIAL)
    # softmax over one key is exactly 1, so the output is v (quantized twice)
    assert np.allclose(res.output, v, atol=2 * np.abs(v).max() / 127)


def test_attention_close_to_float():
    cfg = MacroConfig.at_boundary(256)
    gen = np.random.default_rng(18)
    q = gen.normal(size=(5, 16))
    k = gen.normal(size=(7, 16))
    v = gen.normal(size=(7, 16))
    res = simulate_attention(q, k, v, 8, cfg, NOISELESS, SERIAL)
    want = softmax((q @ k.T) / np.sqrt(16), axis=-1) @ v
    err = np.abs(res.output - want).max() / np.abs(want).max()
    assert err < 0.05
    assert 0.0 <= res.analog_ratio <= 1.0
    assert res.total_cycles > 0


def test_attention_non_negative_k_runs_the_unsigned_plan():
    # K quantizes by quantize's rule, as every other broadcast operand does:
    # an all-non-negative K runs QK^T on the unsigned plan, which at y=2 is
    # shorter than the signed one; the post-softmax scores are unsigned too
    mode = EngineMode(enc_bits=2)
    gen = np.random.default_rng(18)
    q = gen.normal(size=(5, 16))
    k = np.abs(gen.normal(size=(7, 16)))
    v = gen.normal(size=(7, 16))
    res = simulate_attention(q, k, v, 8, MacroConfig.at_boundary(256, 2),
                             NOISELESS, mode)
    unsigned, signed = (plan_cycles(8, 8, s, TC, mode).cycles_per_tile
                        for s in (U, TC))
    assert unsigned < signed
    assert res.total_cycles == 2 * unsigned   # one tile per matmul
    want = softmax((q @ k.T) / np.sqrt(16), axis=-1) @ v
    assert np.abs(res.output - want).max() / np.abs(want).max() < 0.05


def test_attention_total_cycles_sum_both_matmuls():
    # QK^T has D=16 (1 tile x 64 cycles); AV has D=300 (2 tiles x 64)
    cfg = MacroConfig.at_boundary(256)
    gen = np.random.default_rng(19)
    q, k, v = (gen.normal(size=(300, 16)) for _ in range(3))
    res = simulate_attention(q, k, v, 8, cfg, NOISELESS, SERIAL)
    assert res.total_cycles == 1 * 64 + 2 * 64 == 192


def test_attention_analog_ratio_weights_total_cycles():
    # QK^T (signed K, 1 tile) and AV (unsigned scores, 2 tiles) get different
    # plans at y=2, hybrid L=2; each counts by its total cycles
    mode = EngineMode(enc_bits=2, hybrid_boundary=2)
    gen = np.random.default_rng(19)
    q, k, v = (gen.normal(size=(300, 16)) for _ in range(3))
    res = simulate_attention(q, k, v, 8, MacroConfig.at_boundary(256, 2),
                             NOISELESS, mode)
    analog = total = 0
    for x_signedness, tiles in ((TC, 1), (U, 2)):
        entries = plan_cycles(8, 8, x_signedness, TC, mode).entries
        analog += tiles * sum(e.analog for e in entries)
        total += tiles * len(entries)
    assert (analog, total) == (97, 104)
    assert res.total_cycles == total
    assert res.analog_ratio == pytest.approx(analog / total, rel=1e-12)


def test_attention_shape_errors():
    cfg = MacroConfig.at_boundary(256)
    with pytest.raises(ShapeError):
        simulate_attention(np.ones((2, 4)), np.ones((3, 5)), np.ones((3, 4)),
                           8, cfg, NOISELESS, SERIAL)
    with pytest.raises(ShapeError):
        simulate_attention(np.ones((2, 4)), np.ones((3, 4)), np.ones((2, 4)),
                           8, cfg, NOISELESS, SERIAL)


# ------------------------------------------------------------ cycle counts

def test_plan_counts_voting_cycles():
    mode = EngineMode(voting=VotingSpec(boundary=3, samples=7))
    plan = plan_cycles(8, 8, TC, TC, mode)
    assert plan.cycles_per_tile == 100  # 58 plain + 6 * 7 oversampled
    # 5 samples keep the overhead under 40% of the 64-cycle baseline
    plan5 = plan_cycles(8, 8, TC, TC, EngineMode(voting=VotingSpec(3, 5)))
    assert plan5.cycles_per_tile == 88
    assert (plan5.cycles_per_tile - 64) / 64 < 0.40


# ------------------------------------------------------------ one readout

def test_read_is_the_one_readout_site():
    # engine._read is the only code outside macro that draws, noises, reads
    # out or votes a chunk's levels; within macro only the vote calls the
    # first three
    readout = {"draw_noise", "apply_noise", "adc_readout",
               "majority_vote_readout"}
    calls = set()   # (module, innermost enclosing function, callee)

    class Calls(ast.NodeVisitor):
        fn = None   # at module level

        def visit_FunctionDef(self, node):
            outer, self.fn = self.fn, node.name
            self.generic_visit(node)
            self.fn = outer

        def visit_Call(self, node):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
            if name in readout:
                calls.add((module, self.fn, name))
            self.generic_visit(node)

    for path in pathlib.Path(engine.__file__).parent.glob("*.py"):
        module = path.stem
        Calls().visit(ast.parse(path.read_text()))
    assert calls == ({("engine", "_read", n) for n in readout}
                     | {("macro", "majority_vote_readout", n)
                        for n in readout - {"majority_vote_readout"}})
