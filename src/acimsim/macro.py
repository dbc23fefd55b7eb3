"""Analog macro model: ideal CBL levels, noise injection, ADC readout.

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


class NoiseUnit(Enum):
    VPP_PCT = "vpp_pct"    # percentage of the full CBL dynamic range
    LSB_RMS = "lsb_rms"    # multiples of the ADC step


@dataclass(frozen=True)
class Sigma:
    value: float
    unit: NoiseUnit = NoiseUnit.LSB_RMS

    def __post_init__(self):
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
        # the engine computes levels with float32 GEMMs, exact below 2^24
        if self.full_scale_counts >= 1 << 24:
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

    @property
    def boundary_adc_bits(self) -> int:
        """Smallest ADC precision that resolves every level losslessly."""
        return math.ceil(math.log2(self.full_scale_counts + 1))

    @classmethod
    def at_boundary(cls, rows: int, enc_bits: int = 1) -> "MacroConfig":
        n_fs = rows * ((1 << enc_bits) - 1)
        return cls(rows, math.ceil(math.log2(n_fs + 1)), enc_bits)


@dataclass(frozen=True)
class NoiseSpec:
    """Noise intensities, the run seed, and an optional custom level hook.

    `level_hook(levels, ctx)` runs after the two built-in models and may return
    transformed levels; it is the extension point for user noise models and
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


def ideal_level(w_col, act_group, cfg: MacroConfig):
    """Noiseless CBL level: sum over rows of w_i * a_i, in counts."""
    w = np.asarray(w_col)
    a = np.asarray(act_group)
    if w.shape != a.shape:
        raise ConfigError(f"operand shapes differ: {w.shape} vs {a.shape}")
    if w.shape[-1] > cfg.rows:
        raise ConfigError(
            f"{w.shape[-1]} operand rows exceed macro row parallelism {cfg.rows}")
    if a.size and (a.min() < 0 or a.max() > (1 << cfg.enc_bits) - 1):
        raise DomainError("activation group values outside [0, 2^y - 1]")
    return (w.astype(np.int64) * a.astype(np.int64)).sum(axis=-1)


def apply_random_noise(v, spec: NoiseSpec, cfg: MacroConfig,
                       ctx: rng.RngContext, table=None):
    """Add ADC input-referred Gaussian noise, deterministic in (seed, ctx).

    `table`, an optional rng.StreamTable keyed for spec.seed, supplies the
    same draws as the per-call stream (as in every function below).
    """
    sigma = sigma_to_counts(spec.random_sigma, cfg)
    if sigma == 0:
        return np.asarray(v, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    return v + sigma * rng.normal(spec.seed, ctx, rng.TAG_RANDOM, v.shape,
                                  table=table)


def apply_nonlinearity(v, spec: NoiseSpec, cfg: MacroConfig,
                       ctx: rng.RngContext, table=None):
    """Add level-dependent noise, strongest at low levels.

    sigma(v) = sigma_set * sqrt(max(0, N_fs - v) / N_fs): fewer charged
    capacitors leave more mismatch headroom, and sigma(N_fs) = 0.
    """
    sigma = sigma_to_counts(spec.nonlin_sigma, cfg)
    if sigma == 0:
        return np.asarray(v, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n_fs = cfg.full_scale_counts
    local = sigma * np.sqrt(np.maximum(0.0, n_fs - v) / n_fs)
    return v + local * rng.normal(spec.seed, ctx, rng.TAG_NONLIN, v.shape,
                                  table=table)


def apply_noise(v, spec: NoiseSpec, cfg: MacroConfig, ctx: rng.RngContext,
                table=None):
    """Full noise pipeline: random, nonlinearity, then the custom hook."""
    out = apply_random_noise(v, spec, cfg, ctx, table)
    out = apply_nonlinearity(out, spec, cfg, ctx, table)
    if spec.level_hook is not None:
        out = spec.level_hook(out, ctx)
    return out


def adc_readout(v, cfg: MacroConfig):
    """Full-dynamic-range ADC: code = clamp(round(v / step), 0, 2^k - 1).

    Returns (code, mac_counts) with mac_counts = code * step, the digital
    estimate of the analog level in counts.
    """
    delta = cfg.lsb_counts
    code = np.clip(round_half_away(np.asarray(v, dtype=np.float64) / delta),
                   0, (1 << cfg.adc_bits) - 1).astype(np.int64)
    return code, code * delta


def majority_vote_readout(v_ideal, samples: int, spec: NoiseSpec,
                          cfg: MacroConfig, ctx: rng.RngContext, table=None):
    """Oversample one ideal level and average the ADC codes.

    Each sample is an independent noisy readout; averaging N codes shrinks the
    random-noise sigma by about sqrt(N). Returns the vote rounded to the
    nearest integer code together with mac_counts from the unrounded mean, so
    downstream accumulation keeps the full averaging benefit.
    """
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    total = None
    for s in range(samples):
        noisy = apply_noise(v_ideal, spec, cfg,
                            ctx.replace(sample=ctx.sample + s), table)
        code, _ = adc_readout(noisy, cfg)
        total = code if total is None else total + code
    mean = total / samples
    return round_half_away(mean).astype(np.int64), mean * cfg.lsb_counts
