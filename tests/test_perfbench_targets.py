"""The perfbench span tracer patches acimsim functions by name and counts
work from what they return; every name it lists must exist, and its hooks
must count what the engine does, or only traced benchmark runs would notice
the loss."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from acimsim import engine, rng
from acimsim.engine import EngineMode, VotingSpec, plan_cycles
from acimsim.macro import MacroConfig, NoiseSpec, Sigma
from acimsim.quant import Signedness, group_layout, quantize

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
TC = Signedness.TWOS_COMPLEMENT


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_targets_resolve():
    spans = _spans()
    missing = [f"acimsim.{mod}.{name}" for mod, name in spans.TARGETS
               if not hasattr(importlib.import_module(f"acimsim.{mod}"), name)]
    assert spans.TARGETS and not missing


def test_tracer_hooks_count_plan_readouts_and_votes():
    # the _plan hook reads len(plan.entries), _adc the code of adc_readout's
    # (code, mac), and _vote the codes of the adc_readout calls of a vote
    spans = _spans()
    b, d, m = 3, 40, 5
    gen = np.random.default_rng(0)
    act = quantize(gen.normal(size=(b, d)), 6, TC)
    w = quantize(gen.normal(size=(d, m)), 6, TC)
    mode = EngineMode(hybrid_boundary=2, voting=VotingSpec(2, 3))
    spec = NoiseSpec(random_sigma=Sigma(0.5), seed=3)
    tracer = spans.Tracer()
    tracer.install()
    try:
        res = engine.simulate_matmul(act, w, MacroConfig(16, 5), spec, mode)
    finally:
        tracer.uninstall()
    e = plan_cycles(6, 6, TC, TC, mode).entries
    assert res.tiles == 3 and (~e["analog"]).any()
    assert (e["oversample"] > 1).any()
    metrics = spans.layer_metrics(tracer, ops=1, threads=1)
    assert metrics["macro.readouts"] == (
        res.tiles * b * m * int(e["oversample"][e["analog"]].sum()))
    agg = tracer.summary()
    assert agg[spans.VOTE]["n"] == (
        res.tiles * b * m * int((e["oversample"] > 1).sum()))
    matmul = [s for s in tracer.spans if s[3] == spans.MATMUL]
    assert len(matmul) == 1
    assert matmul[0][spans.COLUMNS.index("n")] == b * d * m * len(e)
    # the engine reads its bit fields through quant: one weight-plane split
    # per tile and one DAC-word extraction per (tile, activation group)
    parent, mm_id = spans.COLUMNS.index("parent"), matmul[0][1]
    for label, count in (("quant.decompose_bits", res.tiles),
                         ("quant.encode_activation_groups",
                          res.tiles * len(group_layout(6, TC, 1)))):
        found = [s for s in tracer.spans if s[3] == label]
        assert len(found) == count, label
        assert all(s[parent] == mm_id for s in found), label


def test_tracer_counts_two_draws_per_analog_readout(monkeypatch):
    # every noise draw goes through rng.normal, once per tag and readout, so
    # a refactor that draws around it fails here and not only in a traced
    # benchmark run; RngContexts are built for level hooks alone
    spans = _spans()
    b, d, m = 4, 50, 6
    gen = np.random.default_rng(1)
    act = quantize(gen.normal(size=(b, d)), 6, TC)
    w = quantize(gen.normal(size=(d, m)), 6, TC)
    mode = EngineMode(hybrid_boundary=1, voting=VotingSpec(2, 5))
    cfg = MacroConfig(16, 5)
    built = []
    init = rng.RngContext.__init__

    def counting_init(self, *args, **kw):
        built.append(1)
        init(self, *args, **kw)
    monkeypatch.setattr(rng.RngContext, "__init__", counting_init)
    for hooked in (False, True):
        spec = NoiseSpec(Sigma(0.5), Sigma(0.4), seed=7, level_hook=(
            (lambda levels, ctx: levels) if hooked else None))
        built.clear()
        tracer = spans.Tracer()
        tracer.install()
        try:
            res = engine.simulate_matmul(act, w, cfg, spec, mode)
        finally:
            tracer.uninstall()
        e = plan_cycles(6, 6, TC, TC, mode).entries
        assert (e["oversample"] > 1).any() and (~e["analog"]).any()
        reads = res.tiles * int(e["oversample"][e["analog"]].sum())
        metrics = spans.layer_metrics(tracer, ops=1, threads=1)
        assert metrics["macro.readouts"] == reads * b * m
        assert metrics["rng.draws"] == 2 * reads * b * m
        assert len(built) == (reads if hooked else 0)
