"""Analog macro model: noise injection, ADC readout, majority voting.

Levels are expressed in counts (one count = one fully charged unit capacitor),
so the full scale is rows * (2^y - 1) and the ADC step is full_scale / 2^k.
Noise draws are read from an rng.StreamTable, one read position per leading
row of their levels, as rng.normal reads them; level hooks get the
RngContexts of those positions. A vote takes one level array, noise spec and
macro per point, as lists, and returns a list.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from . import rng
from .errors import (ConfigError, DomainError, ShapeError, check_int,
                     finite_real)
from .tensor import round_half_away

# Engine cap in levels: a float64 temporary of 2^14 levels is 128 KiB.
_CHUNK_ELEMS = 1 << 14


def runs(n: int, size: int):
    """(start, stop) of each run of [0, n), in order, of at most
    max(1, _CHUNK_ELEMS // size) items of `size` levels: every bounded pass
    of the engine and the linearity sweep walks its items so, one at least."""
    step = max(1, _CHUNK_ELEMS // max(1, size))
    for start in range(0, n, step):
        yield start, min(start + step, n)


class NoiseUnit(Enum):
    VPP_PCT = "vpp_pct"    # percentage of the full CBL dynamic range
    LSB_RMS = "lsb_rms"    # multiples of the ADC step


@dataclass(frozen=True)
class Sigma:
    value: float
    unit: NoiseUnit = NoiseUnit.LSB_RMS

    def __post_init__(self):
        if not isinstance(self.unit, NoiseUnit):
            raise DomainError(f"sigma unit must be a NoiseUnit, got "
                              f"{self.unit!r}")
        if not finite_real(self.value, "sigma", DomainError):
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
        check_int(self.rows, "rows", ConfigError, 1)
        check_int(self.adc_bits, "adc_bits", ConfigError, 1, 16)
        check_int(self.enc_bits, "enc_bits", ConfigError, 1)
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
        """The macro whose ADC reads every level exactly: 2^adc_bits is the
        least power of two above full scale."""
        n_fs = cls(rows, 1, enc_bits).full_scale_counts   # checks both
        if n_fs >= 1 << 16:
            raise ConfigError(
                f"rows={rows}, enc_bits={enc_bits}: full scale {n_fs} needs "
                f"more than a 16-bit ADC to read every level exactly")
        return cls(rows, n_fs.bit_length(), enc_bits)


@dataclass(frozen=True)
class NoiseSpec:
    """Noise intensities, the run seed, and an optional custom level hook.

    `level_hook(levels, ctx)` runs after the two built-in models, once per
    RngContext on that context's levels, and returns the levels to use: real,
    of the same shape and without NaN (else DomainError; +-inf clamp). It is
    the extension point for user noise models and fault injection.
    """

    random_sigma: Sigma = Sigma(0.0)
    nonlin_sigma: Sigma = Sigma(0.0)
    seed: int = 0
    level_hook: Optional[Callable] = None

    def __post_init__(self):
        for name in ("random_sigma", "nonlin_sigma"):
            if not isinstance(getattr(self, name), Sigma):
                raise DomainError(f"{name} must be a Sigma, got "
                                  f"{getattr(self, name)!r}")
        check_int(self.seed, "seed", DomainError, 0)
        if self.level_hook is not None and not callable(self.level_hook):
            raise DomainError(f"level_hook must be callable or None, got "
                              f"{self.level_hook!r}")

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


def draw_noise(table: rng.StreamTable, rows, shape, specs):
    """(draws, buf, ctxs) of the read positions `rows` of `table` for the
    points of noise `specs`: the rng.normal draws for `shape` of each tag of
    the table, which the points share and apply_noise never writes; where
    each point forms its random sum (one point owns the draw buffer, several
    share a scratch buffer); the reads' RngContexts, or None with no hook."""
    draws = {tag: rng.normal(table, rows, tag, shape) for tag in table.tags}
    d = draws.get(rng.TAG_RANDOM)
    return (draws, d if d is None or len(specs) == 1 else np.empty_like(d),
            table.contexts(rows) if any(s.level_hook for s in specs) else None)


def apply_noise(v, spec: NoiseSpec, cfg: MacroConfig, rows, draws: dict,
                out=None):
    """The noise pipeline: random noise, nonlinearity, then the custom hook.

    Random noise is ADC input-referred Gaussian noise of sigma_r. The
    nonlinearity adds level-dependent noise, strongest at low levels:
    sigma(v) = sigma_n * sqrt(max(0, N_fs - v) / N_fs), as fewer charged
    capacitors leave more mismatch headroom, and sigma(N_fs) = 0. A model
    with zero sigma is skipped. `draws` (draw_noise) holds the draws of each
    leading row of `v` by tag. `rows` holds the RngContext of each leading
    row, which only the hook reads: it runs on each row in turn with its
    context.

    `v` and `draws` are read only. The random sum is formed in `out` (a new
    array unless given): out = d * sigma; out += v, which is v + sigma * d
    exactly, as IEEE * and + commute. The nonlinear sum is formed in the
    buffer of the local sigma.
    """
    noisy = None
    sigma = sigma_to_counts(spec.random_sigma, cfg)
    if sigma != 0:
        noisy = np.multiply(draws[rng.TAG_RANDOM], sigma, out=out)
        noisy += v
    sigma = sigma_to_counts(spec.nonlin_sigma, cfg)
    if sigma != 0:
        v = np.asarray(v if noisy is None else noisy, dtype=np.float64)
        noisy = np.subtract(cfg.full_scale_counts, v)
        np.maximum(noisy, 0.0, out=noisy)
        noisy /= cfg.full_scale_counts
        np.sqrt(noisy, out=noisy)
        noisy *= sigma
        noisy *= draws[rng.TAG_NONLIN]
        noisy += v
    if noisy is None:
        noisy = np.array(v, dtype=np.float64)   # a copy: the hook writes rows
    if spec.level_hook is not None:
        for r, c in enumerate(rows):
            level = np.asarray(spec.level_hook(noisy[r, ...], c))
            if (level.dtype.kind not in "biuf" or np.isnan(level).any()
                    or level.shape != noisy.shape[1:]):
                raise DomainError(f"level_hook gave {level.dtype} "
                                  f"{level.shape} for {c}; want "
                                  f"{noisy.shape[1:]} with no NaN")
            noisy[r, ...] = level
    return noisy


def adc_readout(v, cfg: MacroConfig):
    """Full-dynamic-range ADC: code = clamp(round(v / step), 0, 2^k - 1).

    Returns (code, mac_counts) with mac_counts = code * step, the digital
    estimate of the analog level in counts. In place on one float64 buffer,
    x + 0.5 is clamped to [0, 2^k - 1], where the int cast is floor: that is
    round-half-away-from-zero for x >= 0, and every negative x reads code 0.
    A NaN level, which clip passes through, is a DomainError. The buffer
    then becomes mac_counts: trunc(x) is float(code) exactly (an integer
    below 2^16), so trunc(x) * step is code * step, without an int-to-float
    pass or a new array.
    """
    delta = cfg.lsb_counts
    x = np.asarray(np.divide(v, delta, dtype=np.float64))
    x += 0.5
    x.clip(0, (1 << cfg.adc_bits) - 1, out=x)
    try:
        with np.errstate(invalid="raise"):
            code = x.astype(np.int64)
    except FloatingPointError:
        raise DomainError("adc_readout levels hold NaN") from None
    np.trunc(x, out=x)
    x *= delta
    return code, x if x.ndim else x[()]


def count_table(cfg: MacroConfig) -> np.ndarray:
    """Integer count of every ADC code, as int64: round_half_away(code * step).

    One lookup replaces the engine's rounding pass over the codes.
    """
    codes = np.arange(1 << cfg.adc_bits)
    return round_half_away(codes * cfg.lsb_counts).astype(np.int64)


def majority_vote_readout(vs: list, samples: int, specs: list, cfgs: list,
                          rows: range, table: rng.StreamTable) -> list:
    """Oversample ideal levels and total the ADC codes of the samples.

    Point p reads the levels vs[p] with the noise specs[p] and the macro
    cfgs[p]; the points share one level shape and the draws of `table`,
    keyed with every tag their specs draw (noise_tags). Returns their
    int64 code totals; the vote, total / samples, shrinks the random-noise
    sigma by about sqrt(samples). `rows` is the range of read positions of
    `table`, one per (leading row, sample) pair, in that order. They are
    drawn in runs of samples (runs), each run once for every point; a run
    of fewer than all samples holds one leading row (else a ShapeError) and
    reads rows[s0:s1]. Each sample is read out by one adc_readout call over
    all rows; draw_noise builds a run's RngContexts once for all points.
    """
    check_int(samples, "samples", DomainError, 1)
    points = [np.asarray(v) for v in vs]
    shape = points[0].shape
    if not shape or len(rows) != shape[0] * samples:
        raise ShapeError(f"{len(rows)} stream rows for {samples} samples of "
                         f"levels {shape}")
    totals = [np.zeros(shape, dtype=np.int64) for _ in points]
    for s0, s1 in runs(samples, points[0].size):
        n = s1 - s0
        if n < samples and shape[0] > 1:
            raise ShapeError(f"a vote of {shape[0]} rows split in runs of "
                             f"{n} of {samples} samples")
        run = rows if n == samples else rows[s0:s1]
        draws, out, ctxs = draw_noise(table, run, (shape[0] * n, *shape[1:]),
                                      specs)
        for levels, spec, cfg, total in zip(points, specs, cfgs, totals):
            noisy = apply_noise(np.repeat(levels, n, axis=0), spec, cfg,
                                ctxs, draws, out)
            noisy = noisy.reshape(len(levels), n, *shape[1:])
            for s in range(n):
                total += adc_readout(noisy[:, s], cfg)[0]
    return totals
