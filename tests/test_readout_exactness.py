"""The block readout against pinned copies of the per-entry formulas.

The `pinned_*` functions of oracles.py are frozen copies of the macro's
noise, ADC and vote arithmetic as they were while every level was read out
one entry at a time, each noise model drawing from its own rng.stream. The
in-place block versions must give the same bytes, so these copies never
follow a change to `acimsim.macro`.
"""

from dataclasses import replace

import numpy as np
import pytest

from acimsim import macro
from acimsim.errors import ShapeError
from acimsim.macro import (MacroConfig, NoiseSpec, NoiseUnit, Sigma,
                           adc_readout, apply_noise, count_table, draw_noise,
                           majority_vote_readout)
from acimsim.rng import TAG_NONLIN, TAG_RANDOM, RngContext, normal, stream
from oracles import (pinned_adc, pinned_nonlin, pinned_random, pinned_vote,
                     sign_floor_round)
from streams import noise_at, table_of, vote_at

CTX = RngContext(layer=1, tile=2, w_bit=3, act_group=1, column=0, sample=4)
DTYPES = (np.int64, np.float32, np.float64)


def _noise(v, spec, cfg, ctx=CTX):
    """apply_noise on one row of levels, drawn from `ctx`."""
    return noise_at(np.asarray(v)[None], spec, cfg, [ctx])[0]


def _sample_rows(ctx, samples):
    """The RngContext of each sample of a vote of one row."""
    return [replace(ctx, sample=ctx.sample + s) for s in range(samples)]


def _vote(v, samples, spec, cfg, ctx=CTX):
    """majority_vote_readout of one point on one row of levels."""
    total, = vote_at([np.asarray(v)[None]], samples, [spec], [cfg],
                     _sample_rows(ctx, samples))
    return total[0]


def _vote_mac(total, samples, cfg):
    """A vote's mean in counts, formed from its code totals as the engine
    and linearity_sweep form it."""
    assert total.dtype == np.int64
    return (total / samples) * cfg.lsb_counts


def _configs():
    """Every ADC precision 1..16 over odd, even and power-of-two full scales."""
    for k in range(1, 17):
        for rows, y in ((1, 1), (3, 2), (128, 1), (255, 4), (1000, 1)):
            yield MacroConfig(rows, k, y)


def _levels(cfg):
    """Exact ties, near-ties, negatives, out-of-range and infinite levels."""
    delta = cfg.lsb_counts
    top = (1 << cfg.adc_bits) - 1
    n = np.arange(-3, top + 4, max(1, top // 64), dtype=np.float64)
    ties = (n + 0.5) * delta
    v = np.concatenate([
        n * delta, ties, np.nextafter(ties, np.inf), np.nextafter(ties, -np.inf),
        [-0.0, 0.0, -0.5 * delta, 0.49999999999999994 * delta,
         cfg.full_scale_counts, 2.0 * cfg.full_scale_counts, 1e300, -1e300,
         np.inf, -np.inf]])
    return v


def test_adc_readout_equals_pinned_formula():
    checked = 0
    for cfg in _configs():
        v = _levels(cfg)
        ints = np.round(v[np.abs(v) < 2.0**62]).astype(np.int64)
        with np.errstate(over="ignore"):   # +-1e300 become +-inf
            singles = v.astype(np.float32)
        for arr in (v, singles, ints):
            code, mac = adc_readout(arr, cfg)
            want_code, want_mac = pinned_adc(arr, cfg)
            assert code.dtype == np.int64
            assert np.array_equal(code, want_code), cfg
            assert np.array_equal(mac, want_mac), cfg
            checked += arr.size
        for x in (v[5], float(v[7]), np.asarray(v[9]), int(cfg.rows)):
            code, mac = adc_readout(x, cfg)
            want_code, want_mac = pinned_adc(x, cfg)
            assert np.shape(code) == () and code == want_code, (cfg, x)
            assert mac == want_mac, (cfg, x)
    assert checked > 50_000


def test_adc_readout_codes_at_both_clamps():
    # clamp x + 0.5 to [0, 2^k - 1], then truncate, against the pinned floor
    # then clamp: levels around code 0, around code 2^k - 1 and below 0
    for cfg in _configs():
        delta = cfg.lsb_counts
        top = (1 << cfg.adc_bits) - 1
        n = np.array([-2, -1, 0, 1, 2, top - 2, top - 1, top, top + 1,
                      top + 2], dtype=np.float64)
        x = np.concatenate([(n + f) * delta
                            for f in (-0.5, -0.25, 0, 0.25, 0.5)])
        v = np.concatenate([x, np.nextafter(x, np.inf),
                            np.nextafter(x, -np.inf),
                            [-0.0, -5e-324, -1e-300, -delta, -top * delta]])
        code, mac = adc_readout(v, cfg)
        want_code, want_mac = pinned_adc(v, cfg)
        assert np.array_equal(code, want_code), cfg
        assert np.array_equal(mac, want_mac), cfg
        assert code.min() == 0 and code.max() == top
        assert not code[np.signbit(v)].any()


def test_adc_readout_leaves_input_unmodified():
    cfg = MacroConfig(128, 7)
    v = _levels(cfg)
    before = v.copy()
    adc_readout(v, cfg)
    assert np.array_equal(v, before)


def test_count_table_equals_rounded_code_counts():
    for cfg in _configs():
        table = count_table(cfg)
        codes = np.arange(1 << cfg.adc_bits)
        want = sign_floor_round(codes * cfg.lsb_counts).astype(np.int64)
        assert table.dtype == np.int64
        assert np.array_equal(table, want), cfg


def _spec(random_lsb, nonlin_pct, seed=13):
    return NoiseSpec(random_sigma=Sigma(random_lsb, NoiseUnit.LSB_RMS),
                     nonlin_sigma=Sigma(nonlin_pct, NoiseUnit.VPP_PCT),
                     seed=seed)


SPECS = (_spec(0.7, 0.0), _spec(0.0, 2.0), _spec(0.7, 2.0), _spec(0.0, 0.0))


def _one_model(spec):
    """`spec` with only its random noise, and with only its nonlinearity."""
    return (replace(spec, nonlin_sigma=Sigma(0.0)),
            replace(spec, random_sigma=Sigma(0.0)))


@pytest.mark.parametrize("dtype", DTYPES)
def test_noise_equals_pinned_formula(dtype):
    gen = np.random.default_rng(3)
    for cfg in (MacroConfig(128, 7), MacroConfig(255, 10, 4), MacroConfig(3, 1)):
        n_fs = cfg.full_scale_counts
        levels = [gen.integers(-2, n_fs + 3, size=(4, 5)).astype(dtype),
                  dtype(n_fs // 2), np.asarray(n_fs, dtype=dtype),
                  np.zeros((0, 3), dtype=dtype)]
        for spec in SPECS:
            random_only, nonlin_only = _one_model(spec)
            for v in levels:
                got = _noise(v, random_only, cfg)
                assert np.array_equal(got, pinned_random(v, spec, cfg, CTX))
                got = _noise(v, nonlin_only, cfg)
                assert np.array_equal(got, pinned_nonlin(v, spec, cfg, CTX))
                want = pinned_nonlin(pinned_random(v, spec, cfg, CTX), spec,
                                     cfg, CTX)
                assert np.array_equal(_noise(v, spec, cfg), want)


@pytest.mark.parametrize("samples", range(1, 8))
def test_vote_equals_pinned_formula(samples):
    gen = np.random.default_rng(samples)
    for cfg in (MacroConfig(128, 7), MacroConfig(255, 10, 4), MacroConfig(3, 1)):
        for dtype in DTYPES:
            v = gen.integers(0, cfg.full_scale_counts + 1,
                             size=(3, 4)).astype(dtype)
            for spec in SPECS:
                total = _vote(v, samples, spec, cfg)
                _, want_mac = pinned_vote(v, samples, spec, cfg, CTX)
                assert np.array_equal(_vote_mac(total, samples, cfg),
                                      want_mac)
                total = _vote(v[0, 0], samples, spec, cfg)
                _, want_mac = pinned_vote(v[0, 0], samples, spec, cfg, CTX)
                assert np.array_equal(_vote_mac(total, samples, cfg),
                                      want_mac)


def test_large_vote_draws_its_samples_in_bounded_runs(monkeypatch):
    # one row above the run cap draws one sample per apply_noise call, in
    # sample order, and gives the bytes of the pinned per-sample vote
    cfg = MacroConfig(64, 6)
    spec = _spec(0.7, 2.0)
    v = np.random.default_rng(8).integers(
        0, cfg.full_scale_counts + 1, size=(1, 48, 60)).astype(np.float32)
    want = pinned_vote(v[0], 5, spec, cfg, CTX)
    sizes = []

    def spy(levels, *args):
        sizes.append(np.size(levels))
        return apply_noise(levels, *args)

    monkeypatch.setattr(macro, "apply_noise", spy)
    for cap, per_call in ((2 * v.size + 1, 2 * v.size), (v.size - 1, v.size),
                          (1, v.size), (1 << 30, 5 * v.size)):
        monkeypatch.setattr(macro, "_CHUNK_ELEMS", cap)
        sizes.clear()
        seen = []
        logged = NoiseSpec(spec.random_sigma, spec.nonlin_sigma, spec.seed,
                           lambda levels, ctx: seen.append(ctx) or levels)
        for total in (vote_at([v], 5, [logged], [cfg],
                              _sample_rows(CTX, 5))[0],
                      _vote(v[0], 5, logged, cfg)):
            mac = _vote_mac(total, 5, cfg)
            assert np.array_equal(mac.reshape(v[0].shape), want[1]), cap
        assert max(sizes) == per_call, cap
        assert sum(sizes) == 2 * 5 * v.size, cap
        assert seen == 2 * [replace(CTX, sample=CTX.sample + s)
                            for s in range(5)], cap


# ------------------------------------------------------- row-wise contexts

def _row_contexts(n):
    return [RngContext(layer=2, tile=t % 3, w_bit=t, act_group=t % 2)
            for t in range(n)]


def test_normal_rows_equal_single_context_draws():
    ctxs = _row_contexts(5)
    table = table_of(11, ctxs, (TAG_RANDOM, TAG_NONLIN))
    assert table.contexts(range(5)) == ctxs
    for tag in (TAG_RANDOM, TAG_NONLIN):
        want = np.stack([stream(11, c, tag).standard_normal((2, 3))
                         for c in ctxs])
        assert np.array_equal(normal(table, range(5), tag, (5, 2, 3)), want)
        with pytest.raises(TypeError):   # only a range addresses reads
            normal(table, np.arange(5), tag, (5, 2, 3))
        flat = np.array([stream(11, c, tag).standard_normal(1)[0]
                         for c in ctxs])
        assert np.array_equal(normal(table, range(5), tag, 5), flat)
    with pytest.raises(ShapeError):
        normal(table, range(5), TAG_RANDOM, (4, 2))


def _hooked(spec, seen):
    def hook(levels, ctx):
        seen.append(ctx)
        levels += 0.25   # a hook may write into the rows it is handed
        return levels
    return NoiseSpec(spec.random_sigma, spec.nonlin_sigma, spec.seed, hook)


@pytest.mark.parametrize("dtype", DTYPES)
def test_block_call_equals_per_row_calls(dtype):
    cfg = MacroConfig(64, 6)
    ctxs = _row_contexts(4)
    gen = np.random.default_rng(5)
    v = gen.integers(0, cfg.full_scale_counts + 1, size=(4, 3, 2)).astype(dtype)
    before = v.copy()
    for spec in SPECS:
        votes = [s for c in ctxs for s in _sample_rows(c, 3)]
        table = table_of(spec.seed, votes, (TAG_RANDOM, TAG_NONLIN))
        # row r's first sample is read 3 * r
        draws = draw_noise(table, range(0, 12, 3), v.shape, [spec])[0]
        kept = {tag: d.copy() for tag, d in draws.items()}
        for part in (*_one_model(spec), spec):
            got = apply_noise(v, part, cfg, ctxs, draws)
            want = np.stack([_noise(v[r], part, cfg, c)
                             for r, c in enumerate(ctxs)])
            assert np.array_equal(got, want), part
        seen_block, seen_rows = [], []
        got = apply_noise(v, _hooked(spec, seen_block), cfg, ctxs, draws)
        want = np.stack([_noise(v[r], _hooked(spec, seen_rows), cfg, c)
                         for r, c in enumerate(ctxs)])
        assert np.array_equal(got, want)
        assert seen_block == seen_rows == ctxs
        seen_block, seen_rows = [], []
        total, = majority_vote_readout(
            [v], 3, [_hooked(spec, seen_block)], [cfg], range(12), table)
        per_row = [_vote(v[r], 3, _hooked(spec, seen_rows), cfg, c)
                   for r, c in enumerate(ctxs)]
        assert np.array_equal(total, np.stack(per_row))
        assert seen_block == seen_rows == [
            replace(c, sample=c.sample + s) for c in ctxs for s in range(3)]
        assert np.array_equal(v, before)
        # apply_noise reads draws, never writes them
        assert all(np.array_equal(draws[t], kept[t]) for t in kept)


def test_hook_never_writes_into_caller_levels():
    cfg = MacroConfig(64, 6)
    v = np.arange(8.0).reshape(2, 4)
    before = v.copy()
    spec = _hooked(NoiseSpec(seed=1), [])
    out = noise_at(v, spec, cfg, _row_contexts(2))
    assert np.array_equal(out, before + 0.25)
    out = _noise(v, spec, cfg)
    assert np.array_equal(out, before + 0.25)
    assert np.array_equal(v, before)
