"""Analog macro model: noise injection, ADC readout, majority voting.

Levels are expressed in counts (one count = one fully charged unit capacitor),
so the full scale is rows * (2^y - 1) and the ADC step is full_scale / 2^k.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from . import rng
from .errors import ConfigError, DomainError
from .tensor import round_half_away

# Readout cap in levels: a float64 temporary of 2^14 levels is 128 KiB. It
# bounds the engine's readout chunks (entries x oversample x B x M) and the
# runs of vote samples drawn in one apply_noise call (rows x samples). Both
# hold at least one entry or sample, so one above the cap is read on its own.
_CHUNK_ELEMS = 1 << 14


class NoiseUnit(Enum):
    VPP_PCT = "vpp_pct"    # percentage of the full CBL dynamic range
    LSB_RMS = "lsb_rms"    # multiples of the ADC step


@dataclass(frozen=True)
class Sigma:
    value: float
    unit: NoiseUnit = NoiseUnit.LSB_RMS

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError(f"sigma must be finite, got {self.value}")
        if self.value < 0:
            raise DomainError(f"sigma must be >= 0, got {self.value}")


@dataclass(frozen=True)
class MacroConfig:
    """Row parallelism, ADC precision and DAC encoding width of one macro."""

    rows: int
    adc_bits: int
    enc_bits: int = 1

    def __post_init__(self):
        if self.rows < 1:
            raise ConfigError(f"rows must be >= 1, got {self.rows}")
        if not (1 <= self.adc_bits <= 16):
            raise ConfigError(f"adc_bits must be in [1, 16], got {self.adc_bits}")
        if self.enc_bits < 1:
            raise ConfigError(f"enc_bits must be >= 1, got {self.enc_bits}")
        # the engine computes levels with float32 GEMMs, exact below 2^24;
        # rows >= 1, so enc_bits > 24 is over it without forming 2^enc_bits
        if self.enc_bits > 24 or self.full_scale_counts >= 1 << 24:
            raise ConfigError(
                f"rows * (2^enc_bits - 1) must be < 2^24 for exact levels, "
                f"got rows={self.rows}, enc_bits={self.enc_bits}")

    @property
    def full_scale_counts(self) -> int:
        return self.rows * ((1 << self.enc_bits) - 1)

    @property
    def lsb_counts(self) -> float:
        """ADC step in counts: full scale divided by 2^adc_bits."""
        return self.full_scale_counts / (1 << self.adc_bits)

    @classmethod
    def at_boundary(cls, rows: int, enc_bits: int = 1) -> "MacroConfig":
        n_fs = rows * ((1 << enc_bits) - 1)
        return cls(rows, math.ceil(math.log2(n_fs + 1)), enc_bits)


@dataclass(frozen=True)
class NoiseSpec:
    """Noise intensities, the run seed, and an optional custom level hook.

    `level_hook(levels, ctx)` runs after the two built-in models, once per
    RngContext on that context's levels, and returns the levels to use, of
    the same shape; it is the extension point for user noise models and
    fault injection.
    """

    random_sigma: Sigma = Sigma(0.0)
    nonlin_sigma: Sigma = Sigma(0.0)
    seed: int = 0
    level_hook: Optional[Callable] = None

    def __post_init__(self):
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")

    @property
    def silent(self) -> bool:
        return (self.random_sigma.value == 0 and self.nonlin_sigma.value == 0
                and self.level_hook is None)


NOISELESS = NoiseSpec()


def sigma_to_counts(s: Sigma, cfg: MacroConfig) -> float:
    """Convert a noise sigma to counts (Vpp%: value/100 * full scale)."""
    if s.unit is NoiseUnit.VPP_PCT:
        return s.value / 100.0 * cfg.full_scale_counts
    return s.value * cfg.lsb_counts


def noise_tags(specs) -> list:
    """The source tags the built-in noise models of `specs` draw from."""
    return [tag for tag, sigmas in (
        (rng.TAG_RANDOM, [s.random_sigma.value for s in specs]),
        (rng.TAG_NONLIN, [s.nonlin_sigma.value for s in specs])) if any(sigmas)]


def draw_noise(seed: int, tags, ctx, shape, table=None) -> dict:
    """Standard normals of (seed, ctx) for `shape`, by tag, for each of
    `tags` (noise_tags). They depend on nothing else, so the points of a
    lockstep run, which share one seed, share one draw per tag: apply_noise
    reads these arrays and never writes them."""
    return {tag: rng.normal(seed, ctx, tag, shape, table=table)
            for tag in tags}


def sum_buffer(draws: dict, points: int):
    """Where apply_noise forms the random-noise sum of each of `points`
    points reading `draws`: for one point the draw buffer itself, which that
    point owns; for several, one scratch buffer they take in turn."""
    d = draws.get(rng.TAG_RANDOM)
    return d if d is None or points == 1 else np.empty_like(d)


def apply_noise(v, spec: NoiseSpec, cfg: MacroConfig, ctx, draws=None,
                out=None):
    """The noise pipeline: random noise, nonlinearity, then the custom hook.

    Random noise is ADC input-referred Gaussian noise of sigma_r. The
    nonlinearity adds level-dependent noise, strongest at low levels:
    sigma(v) = sigma_n * sqrt(max(0, N_fs - v) / N_fs), as fewer charged
    capacitors leave more mismatch headroom, and sigma(N_fs) = 0. A model
    with zero sigma is skipped. The hook runs once per context, on that
    context's row of levels.

    `ctx` is one rng.RngContext, or one per leading row of `v` (see
    rng.normal). `draws`, from draw_noise, holds standard normals already
    drawn for (seed, ctx); without it every tag is drawn here. `v` and
    `draws` are read only. The random sum is formed in `out` (the draw
    buffer when drawn here, else a new array unless given): out = d * sigma;
    out += v, which is v + sigma * d exactly, as IEEE * and + commute. The
    nonlinear sum is formed in the buffer of the local sigma.
    """
    if draws is None:
        draws = draw_noise(spec.seed, noise_tags([spec]), ctx, np.shape(v))
        out = sum_buffer(draws, 1)
    noisy = None
    sigma = sigma_to_counts(spec.random_sigma, cfg)
    if sigma != 0:
        noisy = np.multiply(draws[rng.TAG_RANDOM], sigma, out=out)
        noisy += v
    sigma = sigma_to_counts(spec.nonlin_sigma, cfg)
    if sigma != 0:
        v = np.asarray(v if noisy is None else noisy, dtype=np.float64)
        noisy = np.asarray(np.subtract(cfg.full_scale_counts, v))
        np.maximum(noisy, 0.0, out=noisy)
        noisy /= cfg.full_scale_counts
        np.sqrt(noisy, out=noisy)
        noisy *= sigma
        noisy *= draws[rng.TAG_NONLIN]
        noisy += v
    if noisy is None:
        noisy = np.array(v, dtype=np.float64)   # a copy: the hook writes rows
    if spec.level_hook is not None:
        single = isinstance(ctx, rng.RngContext)
        rows = noisy[None] if single else noisy
        for r, c in enumerate([ctx] if single else ctx):
            rows[r, ...] = spec.level_hook(rows[r, ...], c)
    return noisy


def adc_readout(v, cfg: MacroConfig):
    """Full-dynamic-range ADC: code = clamp(round(v / step), 0, 2^k - 1).

    Returns (code, mac_counts) with mac_counts = code * step, the digital
    estimate of the analog level in counts. Rounding is floor(x + 0.5), in
    place on one float64 buffer: it equals round-half-away-from-zero for
    x >= 0, and every negative x clamps to code 0 under either rule.
    """
    delta = cfg.lsb_counts
    x = np.asarray(np.divide(v, delta, dtype=np.float64))
    x += 0.5
    np.floor(x, out=x)
    np.maximum(x, 0, out=x)
    np.minimum(x, (1 << cfg.adc_bits) - 1, out=x)
    code = x.astype(np.int64)
    return code, code * delta


def count_table(cfg: MacroConfig) -> np.ndarray:
    """Integer count of every ADC code, as int64: round_half_away(code * step).

    One lookup replaces the engine's rounding pass over the codes.
    """
    codes = np.arange(1 << cfg.adc_bits)
    return round_half_away(codes * cfg.lsb_counts).astype(np.int64)


def majority_vote_readout(v_ideal, samples: int, spec: NoiseSpec,
                          cfg: MacroConfig, ctx, table=None):
    """Oversample ideal levels and total the ADC codes of the samples.

    Each sample is an independent noisy readout. Returns the int64 code
    totals, shaped as `v_ideal`; the vote is their mean, total / samples,
    which shrinks the random-noise sigma by about sqrt(samples). Callers
    scale it to counts as (total / samples) * lsb_counts and round only
    there, so accumulation keeps the full averaging benefit. With one
    context per leading row of `v_ideal`, every (row, sample) pair is drawn
    in (row, sample) order, in runs of samples that keep one apply_noise
    call within _CHUNK_ELEMS levels (at least one sample per run). Each
    sample is read out by one adc_readout call over all rows.

    Lockstep: `v_ideal`, `spec` and `cfg` may be equal-length lists, the
    levels, noise and macro of each point of a run that shares one seed and
    one shape. Each run of samples is then drawn once (draw_noise) and read
    by every point in turn, and the result is the list of their totals.
    """
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    lockstep = isinstance(spec, list)
    vs, specs, cfgs = ((v_ideal, spec, cfg) if lockstep
                       else ([v_ideal], [spec], [cfg]))
    seeds = {s.seed for s in specs}
    if len(seeds) > 1:
        raise DomainError(f"points voting together need one seed, got {seeds}")
    tags = noise_tags(specs)
    single = isinstance(ctx, rng.RngContext)
    points = [np.asarray(v)[None] if single else np.asarray(v) for v in vs]
    ctxs = [ctx] if single else ctx
    shape = points[0].shape
    run = min(samples, max(1, _CHUNK_ELEMS // max(1, points[0].size)))
    totals = [np.zeros(shape, dtype=np.int64) for _ in points]
    for s0 in range(0, samples, run):
        n = min(run, samples - s0)
        draw_ctx = [rng.RngContext(c.layer, c.tile, c.w_bit, c.act_group,
                                   c.column, c.sample + s)
                    for c in ctxs for s in range(s0, s0 + n)]
        draws = draw_noise(specs[0].seed, tags, draw_ctx,
                           (shape[0] * n, *shape[1:]), table)
        out = sum_buffer(draws, len(points))
        for rows, p_spec, p_cfg, total in zip(points, specs, cfgs, totals):
            noisy = apply_noise(np.repeat(rows, n, axis=0), p_spec, p_cfg,
                                draw_ctx, draws, out)
            noisy = noisy.reshape(len(rows), n, *shape[1:])
            for s in range(n):
                total += adc_readout(noisy[:, s], p_cfg)[0]
    if single:
        totals = [t[0] for t in totals]
    return totals if lockstep else totals[0]
