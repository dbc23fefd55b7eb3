"""Lockstep grids: the points of one group walk the layers together and
share each noise chunk's draws, yet every point must come out exactly as it
does alone.

`engine_forward` runs each layer through `engine._simulate_grid`, whose key
groups the (macro, noise, mode) points; each group is one
`engine._simulate_points` call, and a layer's groups map over worker threads.
Every point's logits must be `array_equal`, and its per-layer results equal,
to `engine_forward` on that point alone, at any thread count, and every
point's level hook must see its solo RngContext sequence.
"""

import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from acimsim import engine, macro, rng
from acimsim.engine import EngineMode, SimLayerResult, VotingSpec, plan_cycles
from acimsim.errors import ConfigError, DomainError, ShapeError
from acimsim.macro import MacroConfig, NoiseSpec, NoiseUnit, Sigma
from acimsim.models import (LinearLayer, Relu, TinyModel, engine_forward,
                            init_mlp)
from acimsim.quant import QuantizedTensor, Signedness, quantize
from streams import table_of, vote_at

LSB, VPP = NoiseUnit.LSB_RMS, NoiseUnit.VPP_PCT


class Recorder:
    """A level hook that logs its contexts and writes into its rows."""

    def __init__(self, bump=0.25):
        self.seen, self.bump = [], bump

    def __call__(self, levels, ctx):
        self.seen.append(ctx)
        levels += self.bump * (1 + ctx.w_bit % 3)
        return levels


def _rand_noise(gen, seed) -> NoiseSpec:
    """Random, nonlinear (either unit, or off) noise, maybe with a hook."""
    def sigma(scale):
        if gen.random() < 0.3:
            return Sigma(0.0)
        unit = (LSB, VPP)[int(gen.integers(2))]
        return Sigma(float(gen.uniform(0.05, 1.5)) * (scale if unit is VPP
                                                      else 1.0), unit)
    hook = Recorder(float(gen.uniform(-0.5, 0.5))) if gen.random() < 0.4 \
        else None
    return NoiseSpec(sigma(2.0), sigma(2.0), seed, hook)


def _rand_grid(gen):
    """A random model, input and grid of >= 2 plan classes."""
    depth = int(gen.integers(1, 4))
    dims = [int(v) for v in gen.integers(2, 24, size=depth + 1)]
    model = init_mlp(dims, seed=int(gen.integers(1 << 16)))
    model.w_bits, model.x_bits = (int(v) for v in gen.integers(4, 9, 2))
    for layer in model.linear_layers():
        layer.b = gen.normal(scale=0.1, size=layer.b.shape)
    rows = int(gen.integers(4, 40))
    hybrid = int(gen.integers(1, 3)) if gen.random() < 0.5 else None
    voting = (VotingSpec(int(gen.integers(1, 3)), int(gen.integers(2, 5)))
              if gen.random() < 0.5 else None)
    seeds = [int(s) for s in gen.integers(1 << 20, size=2)]
    points = []
    for enc_bits in sorted({1, int(gen.integers(2, 4))}):
        boundary = MacroConfig.at_boundary(rows, enc_bits).adc_bits
        mode = EngineMode(enc_bits=enc_bits, hybrid_boundary=hybrid,
                          voting=voting)
        for _ in range(int(gen.integers(2, 6))):
            cfg = MacroConfig(rows, int(gen.integers(2, boundary + 1)),
                              enc_bits)
            seed = seeds[int(gen.integers(2))]
            points.append((cfg, _rand_noise(gen, seed), mode))
    x = gen.normal(size=(int(gen.integers(1, 6)), dims[0]))
    return model, x, points


def _fresh_hooks(points):
    """The points with a new Recorder wherever one had a hook."""
    return [(cfg, replace(spec, level_hook=Recorder(spec.level_hook.bump))
             if spec.level_hook else spec, mode)
            for cfg, spec, mode in points]


def _assert_same(got, want, what):
    assert len(got) == len(want), what
    for (g_logits, g_layers), (w_logits, w_layers) in zip(got, want):
        assert np.array_equal(g_logits, w_logits), what
        assert g_layers == w_layers, what   # outputs None, counters equal


def _hook_logs(points):
    return [spec.level_hook.seen if spec.level_hook else None
            for _, spec, _ in points]


def test_lockstep_grid_equals_every_point_alone():
    seen = set()
    for case in range(14):
        gen = np.random.default_rng(case)
        model, x, points = _rand_grid(gen)
        solo_points = _fresh_hooks(points)
        solo = [engine_forward(model, x, [point])[0] for point in solo_points]
        for threads in (1, 2, 4):
            run_points = _fresh_hooks(points)
            got = engine_forward(model, x, run_points, threads)
            what = (case, threads)
            _assert_same(got, solo, what)
            assert _hook_logs(run_points) == _hook_logs(solo_points), what
        classes = {(c.enc_bits, s.seed) for c, s, _ in points}
        mode = points[0][2]
        seen |= {"classes" if len(classes) >= 2 else "one class",
                 "hybrid" if mode.hybrid_boundary else "no hybrid",
                 "voting" if mode.voting else "no voting"}
        for _, spec, _ in points:
            for sigma in (spec.random_sigma, spec.nonlin_sigma):
                if sigma.value:
                    seen.add(sigma.unit.value)
            if spec.nonlin_sigma.value:
                seen.add("nonlin")
            if spec.level_hook:
                seen.add("hook")
    assert {"classes", "hybrid", "no hybrid", "voting", "no voting",
            "vpp_pct", "lsb_rms", "nonlin", "hook"} <= seen


def test_lockstep_draws_each_chunk_once(monkeypatch):
    # a class of noisy points makes the draws of one point alone
    gen = np.random.default_rng(5)
    model = init_mlp([12, 20, 3], seed=2)
    x = gen.normal(size=(9, 12))
    mode = EngineMode()
    points = [(MacroConfig(16, k), NoiseSpec(Sigma(s), Sigma(0.4, VPP), 7),
               mode) for k in (4, 6) for s in (0.25, 1.0)]
    draws = []

    def counting(*args, **kw):
        out = normal(*args, **kw)
        draws.append(out.size)
        return out
    normal = rng.normal
    monkeypatch.setattr(rng, "normal", counting)
    engine_forward(model, x, points[:1])
    solo = list(draws)
    draws.clear()
    engine_forward(model, x, points, threads=2)
    assert solo and draws == solo


def _recording_calls(monkeypatch):
    """Log (thread, layer, mode, point count) of every _simulate_points
    call engine_forward makes."""
    calls, simulate = [], engine._simulate_points

    def recording(acts, w, cfgs, specs, mode, layer, **kw):
        calls.append((threading.get_ident(), layer, mode, len(cfgs)))
        return simulate(acts, w, cfgs, specs, mode, layer, **kw)
    monkeypatch.setattr(engine, "_simulate_points", recording)
    return calls


def test_workers_start_only_for_layers_of_several_groups(monkeypatch):
    model = init_mlp([10, 12, 3], seed=6)
    x = np.random.default_rng(6).normal(size=(5, 10))
    modes = [EngineMode(enc_bits=y) for y in (1, 2)]
    spec = NoiseSpec(Sigma(0.5), seed=9)
    points = [(MacroConfig(8, k, y), spec, m)
              for m, y in zip(modes, (1, 2)) for k in (3, 5)]
    solo = [engine_forward(model, x, [point])[0] for point in points]
    calls = _recording_calls(monkeypatch)
    # one class: each layer is one group, run on the calling thread
    _assert_same(engine_forward(model, x, points[:2], threads=4), solo[:2],
                 "one class")
    assert calls == [(threading.get_ident(), layer, modes[0], 2)
                     for layer in (0, 1)]
    # two classes: one call per (layer, group), each on a worker thread
    calls.clear()
    _assert_same(engine_forward(model, x, points, threads=2), solo,
                 "two classes")
    assert sorted((layer, m.enc_bits, n) for _, layer, m, n in calls) == [
        (layer, y, 2) for layer in (0, 1) for y in (1, 2)]
    assert threading.get_ident() not in {t for t, *_ in calls}
    with pytest.raises(DomainError, match="threads must be >= 1, got 0"):
        engine_forward(model, x, points, threads=0)


def test_macro_and_mode_enc_bits_must_agree():
    # the group key holds the macro's enc_bits and the mode, so a point
    # whose macro holds another enc_bits than its mode is a group of its
    # own, which the engine refuses wherever the point stands in the grid
    model = init_mlp([6, 3], seed=1)
    mode = EngineMode(enc_bits=1)
    for position in (0, 1):
        points = [(MacroConfig(8, 5), NoiseSpec(seed=1), mode)] * 2
        points.insert(position, (MacroConfig(8, 5, 2), NoiseSpec(seed=1),
                                 mode))
        for threads in (1, 2):
            with pytest.raises(ConfigError,
                               match="mode enc_bits 1 != macro enc_bits 2"):
                engine_forward(model, np.ones((2, 6)), points, threads)


def test_mixed_mode_grid_equals_every_point_alone(monkeypatch):
    # the paper's remedies as one grid on the sweep config's 16-64-3 MLP:
    # each mode is its own group, so each layer maps six groups over the
    # threads, and each point costs what its plans count
    model = init_mlp([16, 64, 3], seed=3)
    x = np.random.default_rng(8).normal(size=(8, 16))
    modes = [EngineMode(), *(EngineMode(hybrid_boundary=h) for h in (1, 2, 3)),
             EngineMode(voting=VotingSpec(2, 3)),
             EngineMode(voting=VotingSpec(3, 5))]

    def grid():
        return [(MacroConfig(256, 8), NoiseSpec(Sigma(1.0), seed=4,
                                                level_hook=Recorder()), mode)
                for mode in modes]
    solo_points = grid()
    solo = [engine_forward(model, x, [point])[0] for point in solo_points]
    calls = _recording_calls(monkeypatch)
    for threads in (1, 2):
        calls.clear()
        run_points = grid()
        _assert_same(engine_forward(model, x, run_points, threads), solo,
                     threads)
        assert _hook_logs(run_points) == _hook_logs(solo_points), threads
        assert sorted((layer, n) for _, layer, _, n in calls) == [
            (layer, 1) for layer in (0, 1) for _ in modes]
        on_caller = {t for t, *_ in calls} == {threading.get_ident()}
        assert on_caller == (threads == 1)
    nets = [SimLayerResult.compose(layers, None) for _, layers in solo]
    # layer 0 reads the signed input, layer 1 the unsigned ReLU output
    for mode, net in zip(modes, nets):
        plans = [plan_cycles(8, 8, sign, Signedness.TWOS_COMPLEMENT, mode)
                 .entries for sign in (Signedness.TWOS_COMPLEMENT,
                                       Signedness.UNSIGNED)]
        assert net.total_cycles == sum(int(e["oversample"].sum())
                                       for e in plans)
        assert net.analog_ratio == (sum(int(e["analog"].sum()) for e in plans)
                                    / sum(len(e) for e in plans))
    assert [net.total_cycles for net in nets] == [128] * 4 + [140, 176]
    assert [round(net.analog_ratio, 3) for net in nets] == [
        1.0, 0.984, 0.953, 0.906, 1.0, 1.0]


def test_a_model_without_linear_layers_returns_each_points_input():
    x = np.array([[-1.0, 2.0], [3.0, -4.0]])
    points = [(MacroConfig(8, k), NoiseSpec(seed=1), EngineMode())
              for k in (3, 5)]
    for layers, want in (([], x), ([Relu()], np.maximum(x, 0.0))):
        got = engine_forward(TinyModel(layers), x, points, threads=2)
        assert len(got) == 2
        for logits, results in got:
            assert np.array_equal(logits, want) and results == []


def test_points_quantized_with_different_signedness_split():
    # without a ReLU, a saturating hook drives one point's layer-1 output
    # positive and the other's negative: layer 2 then quantizes them with
    # different signedness, whose plans differ at y = 2, so it runs as two
    # engine calls (one lockstep call would refuse the mixed inputs)
    w1 = np.full((6, 4), 0.5)
    model = TinyModel([LinearLayer(w1, np.zeros(4)),
                       LinearLayer(np.eye(4)[:, :2], np.zeros(2))],
                      w_bits=4, x_bits=4)
    mode = EngineMode(enc_bits=2)
    cfg = MacroConfig(8, 5, 2)
    x = np.ones((3, 6))
    high = NoiseSpec(seed=1, level_hook=lambda v, c: v + 1000.0)
    low = NoiseSpec(seed=1, level_hook=lambda v, c: v - 1000.0)
    model.layers[0].b = np.full(4, -0.5 * float(
        engine_forward(TinyModel(model.layers[:1], 4, 4), x,
                       [(cfg, high, mode)])[0][0].max()))
    points = [(cfg, high, mode), (cfg, low, mode)]
    got = engine_forward(model, x, points, threads=1)
    # the high hook saturates the weights' sign plane too, so its layer-1
    # output is the negative one
    plans = [plan_cycles(4, 4, s, Signedness.TWOS_COMPLEMENT, mode)
             for s in (Signedness.TWOS_COMPLEMENT, Signedness.UNSIGNED)]
    assert plans[0].cycles_per_tile != plans[1].cycles_per_tile
    assert [layers[1].total_cycles for _, layers in got] == [
        p.cycles_per_tile for p in plans]
    _assert_same(got, [engine_forward(model, x, [point])[0]
                       for point in points], "split")


def test_lockstep_vote_in_bounded_runs_equals_solo_votes(monkeypatch):
    # one row above the run cap: each sample run is drawn once for every
    # point, and every point totals and hooks as its solo vote does
    monkeypatch.setattr(macro, "_CHUNK_ELEMS", 7)
    cfgs = [MacroConfig(16, 3), MacroConfig(16, 5), MacroConfig(16, 5)]

    def specs():
        return [NoiseSpec(Sigma(0.6), Sigma(1.0, VPP), 11, Recorder()),
                NoiseSpec(Sigma(0.2), seed=11, level_hook=Recorder(-0.5)),
                NoiseSpec(seed=11)]
    v = np.random.default_rng(3).integers(0, 17, size=(1, 4, 3)).astype(
        np.float32)
    ctx = [rng.RngContext(layer=1, tile=2, w_bit=3, sample=s)
           for s in range(5)]
    solo_specs, lock_specs = specs(), specs()
    want = [vote_at([v], 5, [s], [c], ctx)[0]
            for s, c in zip(solo_specs, cfgs)]
    got = vote_at([v] * 3, 5, lock_specs, cfgs, ctx)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert _hook_logs([(None, s, None) for s in lock_specs]) == _hook_logs(
        [(None, s, None) for s in solo_specs])
    assert len(lock_specs[0].level_hook.seen) == 5


def test_hooked_points_share_each_chunks_contexts(monkeypatch):
    # a chunk's or vote run's RngContexts are built once for the class, not
    # once per hooked point, and every hooked point sees the same ones
    built, init = [], rng.RngContext.__init__

    def counting_init(self, *args, **kw):
        built.append(None)
        init(self, *args, **kw)
    gen = np.random.default_rng(4)
    act = quantize(gen.normal(size=(4, 40)), 6, Signedness.TWOS_COMPLEMENT)
    w = quantize(gen.normal(size=(40, 5)), 6, Signedness.TWOS_COMPLEMENT)
    mode = EngineMode(hybrid_boundary=2, voting=VotingSpec(2, 3))
    counts = []
    for hooked in (1, 3):
        specs = [NoiseSpec(Sigma(0.3), seed=5, level_hook=Recorder())
                 for _ in range(hooked)] + [NoiseSpec(Sigma(0.3), seed=5)]
        built.clear()
        with monkeypatch.context() as m:
            m.setattr(rng.RngContext, "__init__", counting_init)
            engine._simulate_points([act], w, [MacroConfig(16, 6)] * len(specs),
                                    specs, mode)
        counts.append(len(built))
        logs = _hook_logs([(None, s, None) for s in specs[:hooked]])
        assert logs[0] and all(log == logs[0] for log in logs)
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("samples", [2, 5])
def test_vote_reads_range_rows_as_the_list_path_does(monkeypatch, samples):
    # a (1, 4, 3) level block and 2 x 12 levels a run: 2 samples fit one
    # run, which draws `rows` as given, and 5 are split into runs of 2, 2
    # and 1, each the slice of `rows` of its samples. The split vote must
    # total and hook as the same vote read in one run, from positions 3..
    # of a table whose first three reads it never draws
    cfgs = [MacroConfig(16, 4), MacroConfig(16, 6)]

    def specs():
        return [NoiseSpec(Sigma(0.6), Sigma(1.0, VPP), 11, Recorder()),
                NoiseSpec(Sigma(0.3), seed=11, level_hook=Recorder(-0.5))]
    v = np.random.default_rng(5).integers(0, 17, size=(1, 4, 3)).astype(
        np.float32)
    ctxs = [rng.RngContext(layer=9, column=c) for c in range(3)] + [
        rng.RngContext(layer=2, tile=1, w_bit=4, sample=s)
        for s in range(samples)]
    table = table_of(11, ctxs, macro.noise_tags(specs()))
    rows = range(3, 3 + samples)
    whole, split = specs(), specs()
    want = macro.majority_vote_readout([v] * 2, samples, whole, cfgs, rows,
                                       table)
    drawn, draw = [], macro.draw_noise

    def spy(table, rows, shape, specs):
        drawn.append(rows)
        return draw(table, rows, shape, specs)
    monkeypatch.setattr(macro, "draw_noise", spy)
    monkeypatch.setattr(macro, "_CHUNK_ELEMS", 24)
    got = macro.majority_vote_readout([v] * 2, samples, split, cfgs, rows,
                                      table)
    assert drawn == ([range(3, 5)] if samples == 2 else [
        range(3, 5), range(5, 7), range(7, 8)])
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert _hook_logs([(None, s, None) for s in split]) == _hook_logs(
        [(None, s, None) for s in whole])
    assert split[0].level_hook.seen == ctxs[3:]


def test_vote_split_over_several_rows_raises_shape_error(monkeypatch):
    # a run of fewer than all samples holds one leading row: on two rows
    # its reads would not be a range of the table, so it raises before any
    # draw instead of reading wrong streams
    monkeypatch.setattr(macro, "_CHUNK_ELEMS", 24)
    spec, cfg = NoiseSpec(Sigma(0.5), seed=3), MacroConfig(16, 4)
    table = table_of(3, [rng.RngContext(sample=s) for s in range(6)],
                     [rng.TAG_RANDOM])
    with pytest.raises(ShapeError, match="split"):
        macro.majority_vote_readout([np.zeros((2, 4, 3))], 3, [spec], [cfg],
                                    range(6), table)
    # the same two rows in one run of every sample read as they did
    monkeypatch.setattr(macro, "_CHUNK_ELEMS", 72)
    total, = macro.majority_vote_readout([np.zeros((2, 4, 3))], 3, [spec],
                                         [cfg], range(6), table)
    assert total.shape == (2, 4, 3) and total.dtype == np.int64
    # a list of positions is no read address
    with pytest.raises(TypeError, match="rows must be a range"):
        macro.majority_vote_readout([np.zeros((1, 4, 3))], 3, [spec], [cfg],
                                    [0, 1, 2], table)


def _wide_points(adc_bits: int, m: int, noisy: bool):
    """A 16-point lockstep call on a 2-bit act[1, 2] @ w[2, m] at one ADC
    width: every point's output, and the call's traced peak in bytes."""
    gen = np.random.default_rng(8)
    tc = Signedness.TWOS_COMPLEMENT
    act = quantize(gen.normal(size=(1, 2)), 2, tc)
    w = quantize(gen.normal(size=(2, 1 << 16)), 2, tc)
    w = QuantizedTensor(w.codes[:, :m], w.params)
    specs = [NoiseSpec(Sigma(0.1 * (p % 4) * noisy), seed=5)
             for p in range(16)]
    out = [np.empty((1, m)) for _ in specs]
    tracemalloc.start()
    try:
        engine._simulate_points([act], w, [MacroConfig(2, adc_bits)] * 16,
                                specs, EngineMode(), out=out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_weighted_count_tables_die_with_their_run():
    # one row of 2^16 columns is a run of 2^16 codes an entry, as long as a
    # 16-bit count table (512 KiB), so every analog entry reads through its
    # weighted table. Past the 16 count tables, the 16-bit call may hold two
    # tables' bytes (the live table and its gather); tables kept per point
    # for a whole activation group would hold 32 at once
    table = (1 << 16) * 8
    wide = _wide_points(16, 1 << 16, noisy=True)[1]
    narrow = _wide_points(2, 1 << 16, noisy=True)[1]
    assert wide - narrow <= 16 * table + 2 * table
    # noiseless, the folded and the unfolded paths read the same counts: at
    # 2^10 columns a 16-bit table is longer than a run's codes, so the
    # codes take the count table, then the weight
    folded, _ = _wide_points(16, 1 << 16, noisy=False)
    unfolded, _ = _wide_points(16, 1 << 10, noisy=False)
    assert all(f[:, :1 << 10].tobytes() == u.tobytes()
               for f, u in zip(folded, unfolded))
