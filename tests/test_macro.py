"""Macro model tests: config arithmetic, noise models, ADC readout."""

from dataclasses import replace

import numpy as np
import pytest

from acimsim import macro
from acimsim.errors import ConfigError, DomainError
from acimsim.macro import (NOISELESS, MacroConfig, NoiseSpec, NoiseUnit, Sigma,
                           adc_readout, sigma_to_counts)
from acimsim.rng import RngContext
from streams import noise_at, vote_at

CTX = RngContext()


def _noise(v, spec, cfg, ctx=CTX):
    """apply_noise on one row of levels, drawn from `ctx`."""
    return noise_at(np.asarray(v)[None], spec, cfg, [ctx])[0]


def _vote(v, samples, spec, cfg, ctx=CTX):
    """majority_vote_readout of one point on one row of levels, sample s
    drawn from `ctx` at sample ctx.sample + s."""
    total, = vote_at(
        [np.asarray(v)[None]], samples, [spec], [cfg],
        [replace(ctx, sample=ctx.sample + s) for s in range(samples)])
    return total[0]


def lsb(value):
    return Sigma(value, NoiseUnit.LSB_RMS)


def test_macro_config_arithmetic():
    cfg = MacroConfig(rows=256, adc_bits=8, enc_bits=1)
    assert cfg.full_scale_counts == 256
    assert cfg.lsb_counts == 1.0
    assert MacroConfig.at_boundary(256, 1).adc_bits == 9
    cfg4 = MacroConfig(rows=256, adc_bits=12, enc_bits=4)
    assert cfg4.full_scale_counts == 3840
    assert cfg4.lsb_counts == pytest.approx(0.9375)
    # 256 rows at y=4 need a 12-bit boundary ADC
    assert MacroConfig.at_boundary(256, 4).adc_bits == 12


def test_at_boundary_is_lossless_minimum():
    # the last two read full scale 2^16 - 1 with the widest, 16-bit, ADC
    for rows, y in [(256, 1), (256, 4), (64, 2), (100, 3), (2**16 - 1, 1),
                    (1, 16)]:
        cfg = MacroConfig.at_boundary(rows, y)
        assert (1 << cfg.adc_bits) >= cfg.full_scale_counts + 1
        assert (1 << (cfg.adc_bits - 1)) < cfg.full_scale_counts + 1


def test_macro_config_validation():
    with pytest.raises(ConfigError):
        MacroConfig(rows=0, adc_bits=8)
    with pytest.raises(ConfigError):
        MacroConfig(rows=256, adc_bits=0)
    with pytest.raises(ConfigError):
        MacroConfig(rows=256, adc_bits=17)
    with pytest.raises(ConfigError):
        MacroConfig(rows=256, adc_bits=8, enc_bits=0)


@pytest.mark.parametrize("enc_bits", [1, 4])
def test_macro_config_float32_level_bound(enc_bits):
    # the engine's float32 level GEMM is exact only while the full scale
    # rows * (2^y - 1) stays below 2^24
    top = (1 << 24) - 1
    rows = top // ((1 << enc_bits) - 1)
    assert rows * ((1 << enc_bits) - 1) == top
    assert MacroConfig(rows, 8, enc_bits).full_scale_counts == top
    with pytest.raises(ConfigError, match=r"rows=\d+, enc_bits=\d"):
        MacroConfig(rows + 1, 8, enc_bits)


def test_sigma_validation():
    with pytest.raises(DomainError):
        Sigma(-0.1)
    with pytest.raises(DomainError):
        NoiseSpec(seed=-1)


def test_sigma_to_counts():
    cfg = MacroConfig(rows=256, adc_bits=8, enc_bits=1)
    # 0.15% of a 256-count range is 0.384 counts, i.e. ~0.4 LSB at k=8
    assert sigma_to_counts(Sigma(0.15, NoiseUnit.VPP_PCT), cfg) == 0.384
    assert sigma_to_counts(lsb(1.0), cfg) == 1.0
    assert sigma_to_counts(Sigma(0.0, NoiseUnit.VPP_PCT), cfg) == 0.0
    assert sigma_to_counts(lsb(0.0), cfg) == 0.0


def test_sigma_unit_identity():
    # lsb_rms = pct/100 * 2^k for any config
    for cfg in [MacroConfig(256, 8), MacroConfig(100, 10, 3)]:
        pct = 0.37
        counts = sigma_to_counts(Sigma(pct, NoiseUnit.VPP_PCT), cfg)
        lsb_equiv = pct / 100 * (1 << cfg.adc_bits)
        assert counts == pytest.approx(sigma_to_counts(lsb(lsb_equiv), cfg))


def test_random_noise_zero_sigma_identity():
    cfg = MacroConfig(256, 8)
    v = np.array([3.0, 100.0])
    assert np.array_equal(_noise(v, NOISELESS, cfg, CTX), v)


def test_random_noise_statistics():
    cfg = MacroConfig(256, 8)
    spec = NoiseSpec(random_sigma=lsb(1.0), seed=11)
    out = _noise(np.full(10_000, 100.0), spec, cfg, CTX)
    g = out - 100.0
    assert abs(g.mean()) < 0.05
    assert 0.95 <= g.std() <= 1.05


def test_random_noise_replay_identical():
    cfg = MacroConfig(256, 8)
    spec = NoiseSpec(random_sigma=lsb(1.0), seed=5)
    a = _noise(np.zeros(32), spec, cfg, CTX)
    b = _noise(np.zeros(32), spec, cfg, CTX)
    assert np.array_equal(a, b)
    c = _noise(np.zeros(32), spec, cfg, replace(CTX, tile=1))
    assert not np.array_equal(a, c)


def test_random_noise_common_random_numbers():
    # the same (seed, ctx) at two sigmas scales one shared draw, so noise
    # grows monotonically with sigma instead of resampling
    cfg = MacroConfig(256, 8)
    a = _noise(np.zeros(100), NoiseSpec(lsb(0.5), seed=9), cfg, CTX)
    b = _noise(np.zeros(100), NoiseSpec(lsb(1.0), seed=9), cfg, CTX)
    assert np.allclose(b, 2 * a)


def test_nonlinearity_endpoints():
    cfg = MacroConfig(256, 8)
    spec = NoiseSpec(nonlin_sigma=lsb(1.0), seed=3)
    n_fs = float(cfg.full_scale_counts)
    # full scale leaves no mismatch headroom
    out = _noise(np.full(1000, n_fs), spec, cfg, CTX)
    assert np.array_equal(out, np.full(1000, n_fs))
    assert np.array_equal(_noise(np.arange(5.0), NOISELESS, cfg, CTX),
                          np.arange(5.0))


def test_nonlinearity_sigma_profile():
    cfg = MacroConfig(256, 8)
    spec = NoiseSpec(nonlin_sigma=lsb(1.0), seed=3)
    trials = 20_000
    sig = []
    for level in [0.0, 64.0, 128.0, 192.0]:
        out = _noise(np.full(trials, level), spec, cfg,
                          replace(CTX, column=int(level)))
        sig.append((out - level).std())
    assert 0.9 <= sig[0] <= 1.1
    # monotone non-increasing toward full scale (small sampling slack)
    for lo, hi in zip(sig[1:], sig):
        assert lo <= hi + 0.02
    want = [np.sqrt((256 - l) / 256) for l in [0, 64, 128, 192]]
    assert np.allclose(sig, want, atol=0.03)


def test_level_hook_runs_last():
    cfg = MacroConfig(256, 8)
    seen = []

    def hook(levels, ctx):
        seen.append(ctx)
        return levels + 1.0

    spec = NoiseSpec(level_hook=hook)
    assert not spec.silent
    out = _noise(np.zeros(4), spec, cfg, replace(CTX, w_bit=2))
    assert np.array_equal(out, np.ones(4))
    assert seen == [replace(CTX, w_bit=2)]


def test_noiseless_spec_is_silent():
    assert NOISELESS.silent
    assert not NoiseSpec(random_sigma=lsb(0.1)).silent


def test_adc_readout_examples():
    cfg = MacroConfig(256, 8)  # step = 1 count
    code, mac = adc_readout(37.4, cfg)
    assert code == 37 and mac == 37.0
    code, mac = adc_readout(300.0, cfg)
    assert code == 255 and mac == 255.0  # clamped at 2^k - 1


def test_adc_readout_boundary_recovers_integers():
    cfg = MacroConfig(256, 12, enc_bits=4)  # step = 0.9375
    v = np.arange(0, 3840)
    code, mac = adc_readout(v, cfg)
    assert np.array_equal(np.rint(mac).astype(int), v)
    # the lone full-scale level sits at v/step = 2^k and clamps one code low;
    # with step > 0.5 it cannot round back (saturation, not a rounding bug)
    _, mac_top = adc_readout(np.array([3840.0]), cfg)
    assert np.rint(mac_top[0]) == 3839


def test_adc_readout_halfstep_bound():
    cfg = MacroConfig(256, 8, enc_bits=2)
    delta = cfg.lsb_counts
    v = np.linspace(0.0, (2 ** 8 - 1) * delta, 5000)
    code, mac = adc_readout(v, cfg)
    assert np.max(np.abs(mac - v)) <= delta / 2 + 1e-12
    # exact on the code lattice
    lattice = np.arange(0, 2 ** 8) * delta
    _, mac_l = adc_readout(lattice, cfg)
    assert np.array_equal(mac_l, lattice)


def test_vote_single_sample_equals_adc():
    cfg = MacroConfig(256, 8)
    spec = NoiseSpec(random_sigma=lsb(1.0), seed=21)
    noisy = _noise(np.full(64, 50.0), spec, cfg, CTX)
    want_code, want_mac = adc_readout(noisy, cfg)
    total = _vote(np.full(64, 50.0), 1, spec, cfg, CTX)
    assert np.array_equal(total, want_code)
    assert np.allclose(total * cfg.lsb_counts, want_mac)


def test_vote_noiseless_any_samples():
    cfg = MacroConfig(256, 8)
    total = _vote(np.array([50.0]), 7, NOISELESS, cfg, CTX)
    assert total[0] == 7 * 50 and total.dtype == np.int64


def test_vote_shrinks_sigma():
    cfg = MacroConfig(256, 8)
    spec = NoiseSpec(random_sigma=lsb(1.0), seed=13)
    trials = 4000
    total = _vote(np.full(trials, 100.0), 5, spec, cfg, CTX)
    mac = (total / 5) * cfg.lsb_counts
    assert 0.35 <= mac.std() <= 0.60  # ~1/sqrt(5) plus rounding inflation


def test_vote_validates_samples():
    with pytest.raises(DomainError):
        _vote(np.array([1.0]), 0, NOISELESS, MacroConfig(256, 8), CTX)


@pytest.mark.parametrize("cap", [1, 7, macro._CHUNK_ELEMS])
def test_runs_tile_the_range_within_the_cap(monkeypatch, cap):
    monkeypatch.setattr(macro, "_CHUNK_ELEMS", cap)
    for size in (0, 1, cap - 1, cap, cap + 1, 3 * cap):
        step = max(1, cap // max(1, size))
        for n in (0, 1, step - 1, step, step + 1, 3 * step + 2):
            runs = list(macro.runs(n, size))
            # in order and without gaps, from 0 to n
            edges = [0] + [stop for _, stop in runs]
            assert runs == list(zip(edges, edges[1:])), (cap, size, n)
            assert edges[-1] == n, (cap, size, n)
            # every run but the last holds `step` items, and none is empty
            lengths = [stop - start for start, stop in runs]
            assert all(0 < k <= step for k in lengths), (cap, size, n)
            assert all(k == step for k in lengths[:-1]), (cap, size, n)
