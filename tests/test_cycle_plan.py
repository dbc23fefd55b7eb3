"""Cycle plan and cycle accounting.

`_loop_plan` is a frozen copy of the planner as it was while the plan was a
tuple of per-entry objects rewritten with dataclasses.replace; the record
array of plan_cycles must match it record by record, errors included. The
accounting tests check that SimLayerResult's cycles by domain add up over
tiles, layers and multi-matmul ops.
"""

from dataclasses import dataclass, replace

import numpy as np
import pytest

from acimsim import cli, engine
from acimsim.checkpoint import save_checkpoint
from acimsim.config import load_config
from acimsim.engine import (EngineMode, SimLayerResult, VotingSpec,
                            plan_cycles, simulate_attention, simulate_matmul)
from acimsim.errors import ConfigError
from acimsim.macro import NOISELESS, MacroConfig, NoiseSpec, Sigma
from acimsim.models import engine_forward, init_mlp
from acimsim.quant import (QuantParams, QuantizedTensor, Signedness,
                           group_layout)
from acimsim.report import fmt_value

from oracles import activation_signedness

U = Signedness.UNSIGNED
TC = Signedness.TWOS_COMPLEMENT
FIELDS = ("w_bit", "act_group", "sign", "shift", "analog", "oversample")


@dataclass(frozen=True)
class _Entry:
    w_bit: int
    w_sign: int
    act_group: int
    act_sign: int
    shift: int
    analog: bool = True
    oversample: int = 1


def _loop_plan(w_bits, x_bits, x_signedness, w_signedness, mode):
    for val, name in ((w_bits, "w_bits"), (x_bits, "x_bits")):
        if not (2 <= val <= 16):
            raise ConfigError(f"{name} must be in [2, 16], got {val}")
    layout = group_layout(x_bits, x_signedness, mode.enc_bits)
    entries = []
    for q in range(w_bits):
        w_sign = -1 if (w_signedness is TC and q == w_bits - 1) else 1
        for gi, (_width, gshift, sign_group) in enumerate(layout):
            entries.append(_Entry(w_bit=q, w_sign=w_sign, act_group=gi,
                                  act_sign=-1 if sign_group else 1,
                                  shift=q + gshift))
    shifts = sorted({e.shift for e in entries}, reverse=True)
    if mode.hybrid_boundary is not None:
        lvl = mode.hybrid_boundary
        if not (1 <= lvl <= len(shifts)):
            raise ConfigError(f"hybrid_boundary: hybrid boundary {lvl} "
                              f"outside the {len(shifts)} shift levels")
        digital = set(shifts[:lvl])
        entries = [replace(e, analog=False) if e.shift in digital else e
                   for e in entries]
    if mode.voting is not None:
        analog_shifts = sorted({e.shift for e in entries if e.analog},
                               reverse=True)
        lvl = mode.voting.boundary
        if not (1 <= lvl <= len(analog_shifts)):
            raise ConfigError(
                f"voting_boundary: voting boundary {lvl} outside the "
                f"{len(analog_shifts)} analog shift levels")
        voted = set(analog_shifts[:lvl])
        entries = [replace(e, oversample=mode.voting.samples)
                   if e.analog and e.shift in voted else e
                   for e in entries]
    return entries


def _plan_case(gen):
    """Random bits, signedness and y; hybrid and voting up to one level past
    the last, so some draws hit the boundary errors."""
    y = int(gen.integers(1, 5))
    w_bits = int(gen.integers(2, 17))
    x_bits = int(gen.integers(max(2, y), 17))
    x_sgn, w_sgn = (U, TC)[int(gen.integers(2))], (U, TC)[int(gen.integers(2))]
    levels = len({e.shift for e in _loop_plan(w_bits, x_bits, x_sgn, w_sgn,
                                              EngineMode(enc_bits=y))})
    hybrid = int(gen.integers(0, levels + 2)) if gen.random() < 0.5 else None
    voting = None
    if gen.random() < 0.5:
        analog = levels - (hybrid or 0)
        voting = VotingSpec(int(gen.integers(1, max(1, analog) + 2)),
                            int(gen.integers(1, 8)))
    mode = EngineMode(enc_bits=y, hybrid_boundary=hybrid, voting=voting)
    return w_bits, x_bits, x_sgn, w_sgn, mode


def test_plan_matches_loop_planner_record_by_record():
    seen, errors = set(), set()
    for seed in range(400):
        args = _plan_case(np.random.default_rng(seed))
        try:
            want = _loop_plan(*args)
        except ConfigError as err:
            with pytest.raises(ConfigError) as got:
                plan_cycles(*args)
            assert str(got.value) == str(err), (seed, args)
            errors.add(str(err).split()[0])
            continue
        entries = plan_cycles(*args).entries
        assert entries.dtype.names == FIELDS
        assert len(entries) == len(want), (seed, args)
        for got, e in zip(entries, want):
            assert (got.w_bit, got.act_group, got.sign, got.shift, got.analog,
                    got.oversample) == (e.w_bit, e.act_group,
                                        e.w_sign * e.act_sign, e.shift,
                                        e.analog, e.oversample), (seed, args)
        mode = args[-1]
        seen |= {f"y{mode.enc_bits}", f"x{args[2].value}", f"w{args[3].value}"}
        if mode.hybrid_boundary is not None:
            seen.add("hybrid")
        if mode.voting is not None:
            seen.add("voting")
    assert {"y1", "y2", "y3", "y4", f"x{U.value}", f"x{TC.value}",
            f"w{U.value}", f"w{TC.value}", "hybrid", "voting"} <= seen
    # both boundary errors were raised, with the loop planner's message
    assert errors == {"hybrid_boundary:", "voting_boundary:"}


def test_plan_rejects_bit_widths_like_loop_planner():
    for w_bits, x_bits in ((1, 8), (8, 17), (17, 2)):
        with pytest.raises(ConfigError) as want:
            _loop_plan(w_bits, x_bits, TC, TC, EngineMode())
        with pytest.raises(ConfigError) as got:
            plan_cycles(w_bits, x_bits, TC, TC, EngineMode())
        assert str(got.value) == str(want.value)


# ------------------------------------------------------------- accounting

def _rand_q(gen, shape, bits, signedness):
    p = QuantParams(float(gen.uniform(0.5, 2.0)), bits, signedness)
    return QuantizedTensor(gen.integers(p.code_min, p.code_max + 1,
                                        size=shape), p)


def _assert_adds_up(res):
    assert res.total_cycles == (res.analog_cycles + res.digital_cycles
                                + res.repeat_cycles)
    entries = res.analog_cycles + res.digital_cycles
    assert res.analog_ratio == (res.analog_cycles / entries if entries
                                else 1.0)


def _recording(monkeypatch, module):
    """Record every SimLayerResult simulate_matmul returns via `module`."""
    parts = []

    def record(*args, **kw):
        parts.append(simulate_matmul(*args, **kw))
        return parts[-1]
    monkeypatch.setattr(module, "simulate_matmul", record)
    return parts


def _assert_follows_plan(res, plan, depth, rows):
    """res, a matmul of inner dimension `depth` on `rows`-row tiles, counts
    each tile's entries of `plan` by domain and its votes' extra reads."""
    e = plan.entries
    _assert_adds_up(res)
    assert res.tiles == -(-depth // rows)
    assert res.total_cycles == res.tiles * plan.cycles_per_tile
    assert res.analog_cycles == res.tiles * int(e.analog.sum())
    assert res.repeat_cycles == res.tiles * int((e.oversample - 1).sum())


def _sums(parts) -> tuple:
    return tuple(sum(getattr(p, f) for p in parts)
                 for f in ("tiles", "analog_cycles", "digital_cycles",
                           "repeat_cycles"))


def _fields(res) -> tuple:
    return (res.tiles, res.analog_cycles, res.digital_cycles,
            res.repeat_cycles)


def _rand_mode(gen, y):
    """Hybrid and voting within the levels of every 6..8-bit layer plan."""
    hybrid = int(gen.integers(1, 3)) if gen.random() < 0.5 else None
    voting = None
    if gen.random() < 0.5:
        voting = VotingSpec(int(gen.integers(1, 3)), int(gen.integers(2, 6)))
    return EngineMode(enc_bits=y, hybrid_boundary=hybrid, voting=voting)


def test_matmul_accounting_follows_plan():
    for seed in range(30):
        gen = np.random.default_rng(seed)
        y = int(gen.integers(1, 4))
        mode = _rand_mode(gen, y)
        rows = int(gen.integers(4, 40))
        d = int(gen.integers(1, 3 * rows))
        bits = int(gen.integers(6, 9))
        act = _rand_q(gen, (int(gen.integers(1, 4)), d), bits,
                      (U, TC)[seed % 2])
        w = _rand_q(gen, (d, int(gen.integers(1, 4))), bits, TC)
        cfg = MacroConfig.at_boundary(rows, y)
        res = simulate_matmul(act, w, cfg, NOISELESS, mode)
        plan = plan_cycles(bits, bits, act.params.signedness, TC, mode)
        _assert_follows_plan(res, plan, d, rows)
        e = plan.entries
        assert res.analog_ratio == int(e.analog.sum()) / len(e)
        # voting repeats entries but does not move the analog share
        unvoted = simulate_matmul(act, w, cfg, NOISELESS,
                                  replace(mode, voting=None))
        assert unvoted.repeat_cycles == 0
        assert unvoted.analog_ratio == res.analog_ratio


def test_zero_depth_matmul_runs_no_cycles():
    # 8b/8b signed at hybrid L=2: the plan has 61 of 64 entries analog, but
    # with D = 0, or M = 0 (no weight on the array), no tile runs, so no
    # cycle is counted in either domain; M = 0 once counted its tiles'
    mode = EngineMode(hybrid_boundary=2)
    assert plan_cycles(8, 8, TC, TC, mode).entries.analog.sum() == 61
    for d, m in ((0, 3), (40, 0)):
        act = QuantizedTensor(np.ones((2, d), dtype=np.int64),
                              QuantParams(1.0, 8, TC))
        w = QuantizedTensor(np.ones((d, m), dtype=np.int64),
                            QuantParams(1.0, 8, TC))
        res = simulate_matmul(act, w, MacroConfig(16, 5),
                              NoiseSpec(random_sigma=Sigma(0.5), seed=1),
                              mode)
        assert _fields(res) == (0, 0, 0, 0), (d, m)
        assert res.total_cycles == 0 and res.analog_ratio == 1.0
        assert np.array_equal(res.output, np.zeros((2, m)))


def test_compose_is_field_sum():
    gen = np.random.default_rng(3)
    for n in range(4):
        parts = [SimLayerResult(None, *map(int, gen.integers(0, 50, size=4)))
                 for _ in range(n)]
        net = SimLayerResult.compose(parts, "out")
        assert net.output == "out"
        assert _fields(net) == _sums(parts)
        assert net.total_cycles == sum(p.total_cycles for p in parts)
        _assert_adds_up(net)


def _stack_config(tmp_path, ckpt, cfg, mode, features, seed) -> str:
    """A simulate config of the checkpoint `ckpt` on the macro `cfg` and the
    noiseless `mode`, over blobs of `features` features."""
    voting = (f"voting_boundary = {mode.voting.boundary}\n"
              f"voting_samples = {mode.voting.samples}\n" if mode.voting
              else "")
    hybrid = (f"hybrid_boundary = {mode.hybrid_boundary}\n"
              if mode.hybrid_boundary else "")
    path = tmp_path / "stack.ini"
    path.write_text(
        f"[macro]\nrows = {cfg.rows}\nadc_bits = {cfg.adc_bits}\n"
        f"enc_bits = {cfg.enc_bits}\n[noise]\nseed = 1\n[mode]\n{hybrid}"
        f"{voting}[data]\nsamples = 12\nfeatures = {features}\n"
        f"seed = {seed}\n[model]\ncheckpoint = {ckpt}\n")
    return str(path)


def test_engine_forward_accounting_over_random_stacks(tmp_path):
    # each linear layer's result follows the plan of its depth and input
    # signedness (signed data in, unsigned after every ReLU), and the
    # composed layers are the cycles and ratio that simulate's CSV prints
    for seed in range(12):
        gen = np.random.default_rng(seed)
        depth = int(gen.integers(1, 4))
        dims = [int(v) for v in gen.integers(2, 40, size=depth + 1)]
        model = init_mlp(dims, seed=seed)
        model.w_bits, model.x_bits = (int(v) for v in gen.integers(6, 9, 2))
        y = int(gen.integers(1, 4))
        mode = _rand_mode(gen, y)
        cfg = MacroConfig.at_boundary(int(gen.integers(4, 33)), y)
        ckpt = str(tmp_path / "stack.ackpt")
        save_checkpoint(model, ckpt)
        ini = _stack_config(tmp_path, ckpt, cfg, mode, dims[0], seed)
        exp = load_config(ini)
        assert (exp.macro, exp.mode) == (cfg, mode)
        x = cli._dataset(exp)[1][0]
        (logits, layers), = engine_forward(model, x,
                                           [(cfg, NOISELESS, mode)])
        assert len(layers) == depth
        signs = [activation_signedness(x)] + [U] * (depth - 1)
        for res, layer, sign in zip(layers, model.linear_layers(), signs):
            assert res.output is None
            _assert_follows_plan(res, plan_cycles(
                model.w_bits, model.x_bits, sign, TC, mode),
                layer.w.shape[0], cfg.rows)
        net = SimLayerResult.compose(layers, logits)
        assert net.total_cycles == sum(p.total_cycles for p in layers)
        analog, entries = _sums(layers)[1], sum(_sums(layers)[1:3])
        assert net.analog_ratio == analog / entries
        assert cli.main(["simulate", "--config", ini,
                         "--out", str(tmp_path / "out")]) == 0
        row = (tmp_path / "out" / "simulate.csv").read_text().splitlines()[1]
        assert row.split(",")[2:] == [fmt_value(net.total_cycles),
                                      fmt_value(net.analog_ratio)]


def test_attention_accounting_over_random_shapes(monkeypatch):
    for seed in range(10):
        gen = np.random.default_rng(seed)
        n, t, dh = (int(v) for v in gen.integers(1, 40, size=3))
        q, k, v = (gen.normal(size=s) for s in ((n, dh), (t, dh), (t, dh)))
        y = int(gen.integers(1, 4))
        mode = _rand_mode(gen, y)
        cfg = MacroConfig.at_boundary(int(gen.integers(4, 33)), y)
        parts = _recording(monkeypatch, engine)
        res = simulate_attention(q, k, v, 8, cfg, NOISELESS, mode)
        monkeypatch.undo()
        assert len(parts) == 2
        assert _fields(res) == _sums(parts)
        _assert_adds_up(res)


def test_attention_ratio_counts_each_voted_entry_once():
    # QK^T (1 tile x 40 entries) and AV (3 tiles x 32 entries) at y=2,
    # L=2: 127 of 136 entries are analog, with or without voting
    gen = np.random.default_rng(19)
    q, k, v = (gen.normal(size=(300, 16)) for _ in range(3))
    cfg = MacroConfig.at_boundary(128, 2)
    ratios = []
    for voting in (None, VotingSpec(1, 5)):
        mode = EngineMode(enc_bits=2, hybrid_boundary=2, voting=voting)
        res = simulate_attention(q, k, v, 8, cfg, NOISELESS, mode)
        assert (res.analog_cycles, res.digital_cycles) == (127, 9)
        ratios.append(res.analog_ratio)
    assert ratios == [127 / 136] * 2
