"""Metrics tests: CSNR estimators, MAC statistics, linearity sweeps."""

import itertools
import math

import numpy as np
import pytest

from acimsim import macro
from acimsim.engine import EngineMode
from acimsim.errors import DomainError, ShapeError
from acimsim.macro import NOISELESS, MacroConfig, NoiseSpec, NoiseUnit, Sigma
from acimsim.metrics import (_to_db, csnr_measure, csnr_variance_form, linearity_sweep,
                             mac_distribution)
from acimsim.quant import QuantParams, QuantizedTensor, Signedness
from oracles import int_matmul, linearity_per_level, total_mass

U = Signedness.UNSIGNED
TC = Signedness.TWOS_COMPLEMENT
SERIAL = EngineMode()


def lsb(value):
    return Sigma(value, NoiseUnit.LSB_RMS)


# ------------------------------------------------------------------ csnr

def test_csnr_identical_is_infinite():
    y = np.array([1.0, 2.0, 3.0])
    assert csnr_measure(y, y.copy()) == math.inf


def test_csnr_zero_db_case():
    assert csnr_measure([1.0, 0.0], [0.0, 0.0]) == 0.0


def test_csnr_zero_signal():
    assert csnr_measure([0.0, 0.0], [0.1, 0.0]) == -math.inf


@pytest.mark.parametrize("ratio, db", [
    (0.0, "-inf"), (-2.0, "-inf"), (math.inf, "inf"), (math.nan, "nan"),
    (100.0, "20.0")])
def test_to_db(ratio, db):
    assert repr(_to_db(ratio)) == db


def test_csnr_shape_mismatch():
    with pytest.raises(ShapeError):
        csnr_measure(np.zeros(3), np.zeros(4))


def test_csnr_scale_invariant():
    gen = np.random.default_rng(0)
    y = gen.normal(size=100)
    y_hat = y + 0.1 * gen.normal(size=100)
    a = csnr_measure(y, y_hat)
    b = csnr_measure(10.0 * y, 10.0 * y_hat)
    assert a == pytest.approx(b, abs=1e-9)


def test_sqnr_drops_with_adc_precision():
    # noiseless engine output degrades strictly as k falls below boundary
    from acimsim.engine import simulate_matmul
    gen = np.random.default_rng(1)
    pa = QuantParams(1 / 127, 8, TC)
    act = QuantizedTensor(gen.integers(-127, 128, size=(4, 64)), pa)
    w = QuantizedTensor(gen.integers(-127, 128, size=(64, 8)), pa)
    ideal = int_matmul(act.codes, w.codes) * (pa.scale * pa.scale)
    dbs = []
    for k in (9, 7, 5):
        out = simulate_matmul(act, w, MacroConfig(256, k), NOISELESS, SERIAL)
        dbs.append(csnr_measure(ideal, out.output))
    assert dbs[0] == math.inf or dbs[0] > dbs[1]
    assert dbs[1] > dbs[2]


def test_variance_form_collapses_without_analog_noise():
    gen = np.random.default_rng(2)
    y = gen.normal(size=1000)
    q_in = y + 0.05 * gen.normal(size=1000)
    q_out = q_in + 0.05 * gen.normal(size=1000)
    r = csnr_variance_form(y, q_in, q_out, q_out.copy())
    assert r.terms["analog"] == math.inf
    assert r.csnr_db == r.sqnr_db
    assert r.csnr_total_db == r.sqnr_total_db


def test_variance_form_scale_invariant():
    gen = np.random.default_rng(3)
    y = gen.normal(size=500)
    q_in = y + 0.1 * gen.normal(size=500)
    q_out = q_in + 0.1 * gen.normal(size=500)
    noisy = q_out + 0.1 * gen.normal(size=500)
    a = csnr_variance_form(y, q_in, q_out, noisy)
    b = csnr_variance_form(2 * y, 2 * q_in, 2 * q_out, 2 * noisy)
    assert a.csnr_db == pytest.approx(b.csnr_db, abs=1e-9)
    assert a.sqnr_db == pytest.approx(b.sqnr_db, abs=1e-9)


def test_variance_form_total_tracks_power_ratio():
    # the combined-denominator form agrees with the direct power-ratio
    # estimator within 1 dB on zero-mean Gaussian data
    gen = np.random.default_rng(4)
    n = 10_000
    y = gen.normal(size=n)
    q_in = y + 0.05 * gen.normal(size=n)
    q_out = q_in + 0.08 * gen.normal(size=n)
    noisy = q_out + 0.12 * gen.normal(size=n)
    r = csnr_variance_form(y, q_in, q_out, noisy)
    direct = csnr_measure(y, noisy)
    assert abs(r.csnr_total_db - direct) < 1.0
    # the verbatim sum of per-source ratios sits above the combined form by
    # at least the 3-term arithmetic/harmonic-mean gap
    assert r.csnr_db >= r.csnr_total_db + 10 * math.log10(9) - 1e-9


def test_variance_form_shape_check():
    with pytest.raises(ShapeError):
        csnr_variance_form(np.zeros(3), np.zeros(3), np.zeros(4), np.zeros(3))


# ------------------------------------------------------- MAC distributions

def test_mac_distribution_zero_activations():
    cfg = MacroConfig.at_boundary(256)
    act = QuantizedTensor(np.zeros((2, 16), dtype=int), QuantParams(1.0, 4, U))
    w = QuantizedTensor(np.ones((16, 3), dtype=int), QuantParams(1.0, 4, U))
    h = mac_distribution(act, w, cfg)
    for counts in h.counts.values():
        assert counts[0] == counts.sum()  # all mass at level 0
    assert total_mass(h) == 16 * 2 * 3  # entries * batch * columns


def _cycle_mean(h, key) -> float:
    c = h.counts[key]
    return float((np.arange(c.size) * c).sum() / c.sum())


def test_mac_distribution_bernoulli_mean():
    cfg = MacroConfig.at_boundary(256)
    gen = np.random.default_rng(5)
    act = QuantizedTensor(gen.integers(0, 256, size=(8, 256)),
                          QuantParams(1.0, 8, U))
    w = QuantizedTensor(gen.integers(0, 256, size=(256, 8)),
                        QuantParams(1.0, 8, U))
    h = mac_distribution(act, w, cfg)
    means = [_cycle_mean(h, k) for k in h.counts]
    # uniform codes give Bernoulli(0.5) planes: expected level 256/4 = 64
    assert abs(np.mean(means) - 64.0) < 2.0


def test_mac_distribution_msb_sparsity_concentrates_low():
    # activations with a nearly silent MSB put the MSB-cycle mass near zero
    cfg = MacroConfig.at_boundary(256)
    gen = np.random.default_rng(6)
    act = QuantizedTensor(gen.integers(0, 16, size=(4, 256)),
                          QuantParams(1.0, 6, U))  # top two bits always 0
    w = QuantizedTensor(gen.integers(0, 64, size=(256, 4)),
                        QuantParams(1.0, 6, U))
    h = mac_distribution(act, w, cfg)
    msb = [_cycle_mean(h, (q, g)) for q in range(6) for g in (4, 5)]
    lsb_side = [_cycle_mean(h, (q, g)) for q in range(6) for g in range(4)]
    assert max(msb) == 0.0
    assert min(lsb_side) > 10.0


def test_mac_histogram_rows_roundtrip():
    cfg = MacroConfig.at_boundary(16)
    act = QuantizedTensor(np.ones((1, 4), dtype=int), QuantParams(1.0, 2, U))
    w = QuantizedTensor(np.ones((4, 1), dtype=int), QuantParams(1.0, 2, U))
    h = mac_distribution(act, w, cfg)
    rows = h.to_rows()
    assert all(len(r) == 4 for r in rows)
    assert sum(r[3] for r in rows) == total_mass(h)


# ------------------------------------------------------------- linearity

def test_linearity_noiseless():
    cfg = MacroConfig(64, 6)
    sweep = linearity_sweep(cfg, NOISELESS, trials=100)
    assert np.all(sweep.sigma == 0.0)
    assert np.array_equal(sweep.mean, np.clip(np.round(sweep.levels), 0, 63))
    assert sweep.levels[0] == 0 and sweep.levels[-1] == 64


# at MacroConfig(256, 8) a sweep reads the levels 0..256, so row v is level v

def test_linearity_random_noise_flat_sigma():
    cfg = MacroConfig(256, 8)
    spec = NoiseSpec(random_sigma=lsb(1.0), seed=42)
    sigma = linearity_sweep(cfg, spec, trials=2000).sigma[16:241:16]
    assert np.all(sigma > 0.9)
    assert np.all(sigma < 1.15)


def test_linearity_nonlin_sigma_decreases():
    cfg = MacroConfig(256, 8)
    spec = NoiseSpec(nonlin_sigma=lsb(1.0), seed=42)
    sigma = linearity_sweep(cfg, spec, trials=4000).sigma
    assert sigma[16] > sigma[128] > sigma[240]


def test_linearity_voting_reduces_sigma():
    cfg = MacroConfig(256, 8)
    spec = NoiseSpec(random_sigma=lsb(1.0), seed=42)
    sweep = linearity_sweep(cfg, spec, trials=2000, samples=5)
    assert 0.35 <= float(sweep.sigma[32:225:32].mean()) <= 0.55


def test_linearity_large_range_subsamples():
    cfg = MacroConfig(256, 12, enc_bits=4)  # 3841 levels
    sweep = linearity_sweep(cfg, NOISELESS, trials=100)
    assert sweep.levels.size <= 257
    assert sweep.levels[-1] == cfg.full_scale_counts


class _LoggingHook:
    """A level hook that logs its contexts and moves each sample's levels by
    its own amount, so the bytes depend on which rows it is handed."""

    def __init__(self):
        self.seen = []

    def __call__(self, levels, ctx):
        self.seen.append(ctx)
        levels += 0.3 * (ctx.sample + 1)
        return levels


@pytest.mark.parametrize("samples", [1, 3])
def test_linearity_sweep_equals_per_level_loop(samples):
    # blocks of many levels (100 trials), of a few (3000) and of one level
    # (2^14 + 1), sized by trials x samples, read the bytes of each level
    # alone, and hand a level hook each level's contexts in sample order
    sigmas = ((lsb(0.8), Sigma(0.0)), (Sigma(0.0), Sigma(2.0, NoiseUnit.VPP_PCT)),
              (lsb(0.8), lsb(1.5)))
    blocks = set()
    for cfg, trials in ((MacroConfig(64, 6), 100),
                        (MacroConfig(255, 10, 4), 100),
                        (MacroConfig(16, 4), 3000),
                        (MacroConfig(4, 3), (1 << 14) + 1)):
        for (random, nonlin), hooked in itertools.product(sigmas, (0, 1)):
            specs = [NoiseSpec(random, nonlin, 21, _LoggingHook() if hooked
                               else None) for _ in range(2)]
            sweep = linearity_sweep(cfg, specs[0], trials, samples=samples)
            mean, sigma = linearity_per_level(cfg, specs[1], trials,
                                              sweep.levels, samples)
            what = (cfg, trials, random, nonlin, hooked)
            assert sweep.mean.tobytes() == mean.tobytes(), what
            assert sweep.sigma.tobytes() == sigma.tobytes(), what
            if not hooked:
                continue
            got, want = (s.level_hook.seen for s in specs)
            assert len(got) == len(want) == sweep.levels.size * samples
            # a run that splits a vote holds one level, so the hook sees
            # every level's samples in order, level after level
            assert got == want, what
        blocks.add(min(sweep.levels.size,
                       max(1, macro._CHUNK_ELEMS // (trials * samples))))
    assert blocks == ({1, 5, 65, 163} if samples == 1 else {1, 54})


def test_linearity_trials_validation():
    with pytest.raises(DomainError):
        linearity_sweep(MacroConfig(64, 6), NOISELESS, trials=99)


def test_linearity_rows_roundtrip():
    sweep = linearity_sweep(MacroConfig(16, 5), NOISELESS, trials=100)
    rows = sweep.to_rows()
    assert len(rows) == sweep.levels.size
    assert rows[0] == (0, 0.0, 0.0)
