"""Analytics: CSNR/SQNR estimators, MAC distributions, linearity sweeps.

Infinite-dB cases (no error at all, or no signal) are reported as explicit
float('inf') / float('-inf') markers, never as sentinel numbers.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import macro, rng
from .engine import EngineMode, _read, simulate_matmul
from .errors import DomainError, ShapeError, check_int
from .macro import MacroConfig, NoiseSpec, noise_tags
from .quant import QuantizedTensor


def _to_db(ratio: float) -> float:
    if ratio <= 0:
        return -math.inf
    return 10.0 * math.log10(ratio)


def _check_finite(*named) -> None:
    """DomainError naming the first (name, array) of `named` not finite."""
    for name, t in named:
        if not np.isfinite(t).all():
            raise DomainError(f"{name} must be finite")


def csnr_measure(ideal, simulated) -> float:
    """Power-ratio CSNR/SQNR in dB: 10 log10(sum y^2 / sum (y - y_hat)^2)."""
    y = np.asarray(ideal, dtype=np.float64)
    y_hat = np.asarray(simulated, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise ShapeError(f"shape mismatch: {y.shape} vs {y_hat.shape}")
    _check_finite(("ideal", y), ("simulated", y_hat))
    signal = float(np.sum(y * y))
    noise = float(np.sum((y - y_hat) ** 2))
    return _to_db(math.inf if noise == 0 else signal / noise)


@dataclass(frozen=True)
class VarianceCsnr:
    """Variance-ratio SQNR/CSNR sums plus combined total-error forms.

    `terms` holds the linear per-source ratios var(y)/var(error source) for
    input quantization, output quantization, and analog noise; absent sources
    appear as inf and are skipped in the sums (so noisy == quantized collapses
    CSNR onto SQNR). The *_total_db fields divide by the summed error
    variances instead and are directly comparable to csnr_measure.
    """

    terms: dict
    sqnr_db: float
    csnr_db: float
    sqnr_total_db: float
    csnr_total_db: float


def csnr_variance_form(ideal, quant_in, quant_out, noisy) -> VarianceCsnr:
    arrays = [np.asarray(a, dtype=np.float64)
              for a in (ideal, quant_in, quant_out, noisy)]
    shapes = [a.shape for a in arrays]
    if len(set(shapes)) != 1 or not arrays[0].size:
        raise ShapeError(f"all four outputs must share a non-empty shape, "
                         f"got {shapes}")
    _check_finite(*zip(("ideal", "quant_in", "quant_out", "noisy"), arrays))
    y, q_in, q_out, noisy = arrays
    var_y = float(np.var(y))
    errors = {
        "input_quant": float(np.var(q_in - y)),
        "output_quant": float(np.var(q_out - q_in)),
        "analog": float(np.var(noisy - q_out)),
    }
    terms = {k: (math.inf if v == 0 else var_y / v) for k, v in errors.items()}

    def vsum(keys):
        finite = [terms[k] for k in keys if math.isfinite(terms[k])]
        return sum(finite) if finite else math.inf

    def total(keys):
        denom = sum(errors[k] for k in keys)
        return math.inf if denom == 0 else var_y / denom

    quant_keys = ("input_quant", "output_quant")
    all_keys = quant_keys + ("analog",)
    return VarianceCsnr(
        terms=terms,
        sqnr_db=_to_db(vsum(quant_keys)),
        csnr_db=_to_db(vsum(all_keys)),
        sqnr_total_db=_to_db(total(quant_keys)),
        csnr_total_db=_to_db(total(all_keys)))


@dataclass(frozen=True)
class MacHistogram:
    """Per-cycle counts over ADC-input levels, keyed by (w_bit, act_group)."""

    counts: dict

    def to_rows(self) -> list:
        rows = []
        for (w_bit, act_group) in sorted(self.counts):
            c = self.counts[(w_bit, act_group)]
            for level in np.flatnonzero(c):
                rows.append((w_bit, act_group, int(level), int(c[level])))
        return rows


def mac_distribution(act: QuantizedTensor, w: QuantizedTensor,
                     cfg: MacroConfig) -> MacHistogram:
    """Record every noiseless ideal level the engine would convert.

    A level hook tallies the levels of each (tile, w_bit, act_group) block.
    In the plain mode at cfg.enc_bits, no hybrid and no voting, every plan
    entry is analog and read once, so the hook sees each block exactly once.
    """
    counts = {}
    n_levels = cfg.full_scale_counts + 1

    def tally(levels, ctx):
        key = (ctx.w_bit, ctx.act_group)
        counts[key] = counts.get(key, 0) + np.bincount(
            levels.astype(np.int64).ravel(), minlength=n_levels)
        return levels

    simulate_matmul(act, w, cfg, NoiseSpec(level_hook=tally),
                    EngineMode(enc_bits=cfg.enc_bits))
    return MacHistogram(counts)


@dataclass(frozen=True)
class LinearitySweep:
    levels: np.ndarray
    mean: np.ndarray
    sigma: np.ndarray

    def to_rows(self) -> list:
        return [(int(l), float(m), float(s))
                for l, m, s in zip(self.levels, self.mean, self.sigma)]


def linearity_sweep(cfg: MacroConfig, spec: NoiseSpec, trials: int,
                    samples: int = 1) -> LinearitySweep:
    """Mean and sigma of readout codes per ideal level, in LSB units.

    The levels are every level of the full scale, or 257 spread over it.
    Level v is one row of `trials` readouts drawn from RngContext(column=v),
    sample s of a vote from sample s: one StreamTable keys every (level,
    sample) read, in that order. Runs of rows (macro.runs, `trials` readouts
    a row) are read out by engine._read, as the engine reads a chunk. With
    samples > 1 each trial is a majority vote and the statistics are taken
    on the vote before final rounding, which is what accumulation sees.
    """
    check_int(trials, "trials", DomainError, 100)
    check_int(samples, "samples", DomainError, 1)
    n_fs = cfg.full_scale_counts
    levels = np.unique(np.linspace(0, n_fs, min(n_fs, 256) + 1).round()
                       ).astype(np.int64)
    reads = np.zeros((levels.size, samples, 6), dtype=np.int64)
    reads[..., 4] = levels[:, None]
    reads[..., 5] = np.arange(samples)
    table = rng.StreamTable(spec.seed, noise_tags([spec]), reads.reshape(-1, 6))
    stats = []
    for lo, hi in macro.runs(levels.size, trials):
        batch = np.repeat(levels[lo:hi].astype(np.float64)[:, None], trials,
                          axis=1)
        est = np.empty(batch.shape)
        for _, r0, r1, x in _read([batch], samples, [spec], [cfg],
                                  range(lo * samples, hi * samples), table):
            # a vote in counts, as the engine forms it, back in LSB units
            est[:, r0:r1] = x if samples == 1 else macro.vote_counts(
                x, samples, cfg) / cfg.lsb_counts
        # np.mean and np.std of each row, their arithmetic on one shared sum
        mean = est.sum(axis=1, keepdims=True) / trials
        est -= mean
        est *= est
        stats.append((mean[:, 0], np.sqrt(est.sum(axis=1) / trials)))
    return LinearitySweep(levels, *(np.concatenate(c) for c in zip(*stats)))
