"""Fast self-test of the benchmark: oracle gate, tracer, result schema.

    python3 -m pytest perfbench -q

Not part of the tier-1 suite (pytest's testpaths is tests/).
"""

import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import acimsim  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
from workloads import (SLOTS, WORKLOADS, CheckFailed,  # noqa: E402
                       ConvWorkload, MatmulWorkload)


def tiny_matmul(**kw):
    return MatmulWorkload(seed=3, name="tiny", batch=3, depth=40, cols=5,
                          rows=16, adc_bits=5, **kw)


def tiny_voted():
    return tiny_matmul(nonlin_lsb=0.5, hybrid=2, voting=(2, 3))


def tiny_conv():
    return ConvWorkload(seed=3, name="tiny", channels=2, size=6, filters=3,
                        rows=16, adc_bits=6)


def bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("make", [tiny_matmul, tiny_voted, tiny_conv])
def test_oracle_gate_passes_on_tiny_shapes(make):
    make().oracle_gate()


def test_oracle_gate_catches_one_lsb_error(monkeypatch):
    wl = tiny_matmul()
    real = acimsim.simulate_matmul

    def off_by_one(act, w, *args, **kw):
        res = real(act, w, *args, **kw)
        res.output[0, 0] += act.params.scale * w.params.scale
        return res
    monkeypatch.setattr(acimsim, "simulate_matmul", off_by_one)
    with pytest.raises(CheckFailed, match="1 of 15 outputs differ"):
        wl.oracle_gate()


def test_oracle_gate_does_not_trust_the_program_im2col(monkeypatch):
    wl = tiny_conv()
    real = acimsim.engine.im2col
    monkeypatch.setattr(acimsim.engine, "im2col",
                        lambda *a, **kw: np.roll(real(*a, **kw), 1, axis=0))
    with pytest.raises(CheckFailed, match="differ from the integer oracle"):
        wl.oracle_gate()


def _bindings() -> dict:
    return {(name, attr): value for name, mod in list(sys.modules.items())
            if name == "acimsim" or name.startswith("acimsim.")
            for attr, value in vars(mod).items() if callable(value)}


def test_tracer_wraps_every_binding_and_restores_them():
    wl = tiny_voted()
    before = _bindings()
    plain, _ = wl.op(0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert acimsim.engine.apply_noise is not before[("acimsim.macro",
                                                         "apply_noise")]
        assert acimsim.macro.rng.normal is not before[("acimsim.rng", "normal")]
        traced, _ = wl.op(0)
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert np.array_equal(plain, traced)
    agg = tracer.summary()
    assert agg["engine.simulate_matmul"]["calls"] == 1
    for label, a in agg.items():
        assert 0.0 <= a["self_s"] <= a["s"] + 1e-9, label
    metrics = spans.layer_metrics(tracer, ops=1, threads=1)
    assert metrics["rng.draws"] == agg["rng.normal"]["n"] > 0
    assert 0.0 < metrics["macro.vote_useful_frac"] <= 1.0


def test_tracer_keeps_one_span_stack_per_thread():
    wl = tiny_voted()
    tracer = spans.Tracer()
    tracer.install()
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(wl.op, range(SLOTS)))
    finally:
        tracer.uninstall()
    by_id = {s[1]: s for s in tracer.spans}
    children = [s for s in tracer.spans if s[2] is not None]
    assert children
    for span in children:
        parent = by_id[span[2]]
        assert parent[4] == span[4]                 # same thread
        assert parent[5] <= span[5] <= span[6] <= parent[6]


def test_traced_and_untraced_ops_alternate_over_every_slot():
    loop = worker.Loop(tiny_voted(), expected=None)
    before = _bindings()
    tracer = spans.Tracer()
    plain, traced = loop.timed(0.0, tracer)
    assert _bindings() == before
    assert loop.failed == 0
    assert len(plain) == len(traced) == SLOTS
    traced_ops = sorted({s[0] for s in tracer.spans})
    assert traced_ops == [i for i, _, _ in traced]
    assert sorted(op % SLOTS for op in traced_ops) == list(range(SLOTS))
    assert sorted(i // 2 for i, _, _ in plain) == sorted(
        i // 2 for i, _, _ in traced)
    assert worker.overhead_frac(plain, traced) > -1.0


def test_benchmark_json_matches_the_runner():
    bench = bench_json()
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    raw = {"op_s": [1.0] * 12, "op_ref_s": [1.0] * 12, "macs_per_op": 1,
           "peak_rss_mb": 1.0, "sim_cycles": 1, "mean_snr": 10.0}
    assert set(run.end_to_end(raw, [0.1])) == {
        m["name"] for m in bench["end_to_end"]}
    layers = set(spans.layer_metrics(spans.Tracer(), ops=1, threads=1))
    assert layers | {"trace.op_s", "trace.overhead_frac"} == {
        m["name"] for m in bench["per_layer"]}
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)
    for name, (_why, _threads, factory) in WORKLOADS.items():
        for seed in (expected["default_seed"], expected["held_out_seed"]):
            assert str(seed) in expected["digests"][name]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_schema(trace, section):
    proc = run_bench("--workload", "mm-readout", "--seed", "5", "--seconds",
                     "0.5", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in bench_json()[section]}
    assert {k: m["unit"] for k, m in line["metrics"].items()} == units
    assert all(isinstance(m["value"], (int, float))
               for m in line["metrics"].values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "mm-gemm", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
