"""Lockstep grids: the points of a plan class walk the layers together and
share each noise chunk's draws, yet every point must come out exactly as it
does alone.

`cli._forward_points` groups (macro, noise, mode) points into plan classes
(rows, enc_bits, seed, mode) and runs each class through one
`engine_forward` call. Every point's logits must be `array_equal`, and its
per-layer results equal, to `engine_forward` on that point alone, at any
thread count, and every point's level hook must see its solo RngContext
sequence.
"""

from dataclasses import replace

import numpy as np

from acimsim import cli, engine, macro, rng
from acimsim.engine import EngineMode, VotingSpec, plan_cycles
from acimsim.macro import MacroConfig, NoiseSpec, NoiseUnit, Sigma
from acimsim.models import LinearLayer, TinyModel, engine_forward, init_mlp
from acimsim.quant import Signedness, quantize
from streams import vote_at

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
        solo = [engine_forward(model, x, [cfg], [spec], mode)[0]
                for cfg, spec, mode in solo_points]
        for threads in (1, 2, 4):
            run_points = _fresh_hooks(points)
            got = cli._forward_points(model, x, run_points, threads)
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
    engine_forward(model, x, [points[0][0]], [points[0][1]], mode)
    solo = list(draws)
    draws.clear()
    cli._forward_points(model, x, points, threads=2)
    assert solo and draws == solo


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
        engine_forward(TinyModel(model.layers[:1], 4, 4), x, [cfg], [high],
                       mode)[0][0].max()))
    points = [(cfg, high, mode), (cfg, low, mode)]
    got = cli._forward_points(model, x, points, threads=1)
    # the high hook saturates the weights' sign plane too, so its layer-1
    # output is the negative one
    plans = [plan_cycles(4, 4, s, Signedness.TWOS_COMPLEMENT, mode)
             for s in (Signedness.TWOS_COMPLEMENT, Signedness.UNSIGNED)]
    assert plans[0].cycles_per_tile != plans[1].cycles_per_tile
    assert [layers[1].total_cycles for _, layers in got] == [
        p.cycles_per_tile for p in plans]
    _assert_same(got, [engine_forward(model, x, [c], [s], m)[0]
                       for c, s, m in points], "split")


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
