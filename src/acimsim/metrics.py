"""Analytics: CSNR/SQNR estimators, MAC distributions, linearity sweeps.

Infinite-dB cases (no error at all, or no signal) are reported as explicit
float('inf') / float('-inf') markers, never as sentinel numbers.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import macro, rng
from .engine import EngineMode, simulate_matmul
from .errors import DomainError, ShapeError
from .macro import (MacroConfig, NoiseSpec, adc_readout, apply_noise,
                    draw_noise, majority_vote_readout, noise_tags)
from .quant import QuantizedTensor


def _to_db(ratio: float) -> float:
    if math.isinf(ratio):
        return math.inf
    if ratio <= 0:
        return -math.inf
    return 10.0 * math.log10(ratio)


@dataclass(frozen=True)
class CsnrReport:
    db: float
    signal_power: float
    noise_power: float
    trials: int


def csnr_measure(ideal, simulated) -> CsnrReport:
    """Power-ratio CSNR/SQNR: 10 log10(sum y^2 / sum (y - y_hat)^2)."""
    y = np.asarray(ideal, dtype=np.float64)
    y_hat = np.asarray(simulated, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise ShapeError(f"shape mismatch: {y.shape} vs {y_hat.shape}")
    for name, t in (("ideal", y), ("simulated", y_hat)):
        if not np.isfinite(t).all():
            raise DomainError(f"{name} must be finite")
    signal = float(np.sum(y * y))
    noise = float(np.sum((y - y_hat) ** 2))
    if noise == 0:
        db = math.inf
    elif signal == 0:
        db = -math.inf
    else:
        db = _to_db(signal / noise)
    return CsnrReport(db, signal, noise, y.size)


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
    if len({a.shape for a in arrays}) != 1:
        raise ShapeError("all four outputs must share a shape")
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
                     cfg: MacroConfig, mode: EngineMode) -> MacHistogram:
    """Record every noiseless ideal level the engine would convert.

    A level hook tallies the levels of each (tile, w_bit, act_group) block.
    With hybrid and voting off, every plan entry is analog and read once, so
    the hook sees each block exactly once.
    """
    counts = {}
    n_levels = cfg.full_scale_counts + 1

    def tally(levels, ctx):
        key = (ctx.w_bit, ctx.act_group)
        counts[key] = counts.get(key, 0) + np.bincount(
            levels.astype(np.int64).ravel(), minlength=n_levels)
        return levels

    simulate_matmul(act, w, cfg, NoiseSpec(level_hook=tally),
                    replace(mode, hybrid_boundary=None, voting=None))
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
                    levels=None, samples: int = 1) -> LinearitySweep:
    """Mean and sigma of readout codes per ideal level, in LSB units.

    Level v is one row of `trials` readouts drawn from RngContext(column=v),
    sample s of a vote from sample s: one StreamTable keys every (level,
    sample) read, in that order. Each run of rows (macro.runs, `trials`
    readouts a row) is read in one call. With samples > 1 each trial is a
    majority vote and the statistics are taken on the vote before final
    rounding, which is what accumulation sees.
    """
    if trials < 100:
        raise DomainError(f"linearity_sweep needs trials >= 100, got {trials}")
    n_fs = cfg.full_scale_counts
    if levels is None:   # every level, or 257 spread over the full scale
        levels = np.unique(np.linspace(0, n_fs, min(n_fs, 256) + 1).round())
    levels = np.asarray(levels)
    if (levels.ndim != 1 or not levels.size or levels.dtype.kind not in "iuf"
            or not np.all((levels >= 0) & (levels <= n_fs)
                          & (levels == np.round(levels)))):
        raise DomainError(f"levels must be a non-empty list of integers in "
                          f"[0, {n_fs}], got {levels}")
    levels = levels.astype(np.int64)
    reads = np.zeros((levels.size, samples, 6), dtype=np.int64)
    reads[..., 4] = levels[:, None]
    reads[..., 5] = np.arange(samples)
    table = rng.StreamTable(spec.seed, noise_tags([spec]), reads.reshape(-1, 6))
    stats = []
    for lo, hi in macro.runs(levels.size, trials):
        batch = np.repeat(levels[lo:hi].astype(np.float64)[:, None], trials,
                          axis=1)
        rows = range(lo * samples, hi * samples)
        if samples == 1:
            draws, out = draw_noise(table, rows, batch.shape)
            ctxs = table.contexts(rows) if spec.level_hook else None
            noisy = apply_noise(batch, spec, cfg, ctxs, draws, out)
            est = adc_readout(noisy, cfg)[0].astype(np.float64)
        else:
            total, = majority_vote_readout([batch], samples, [spec], [cfg],
                                           rows, table)
            # the vote in counts, as the engine forms it, back in LSB units
            est = macro.vote_counts(total, samples, cfg) / cfg.lsb_counts
        # np.mean and np.std of each row, their arithmetic on one shared sum
        mean = est.sum(axis=1, keepdims=True) / trials
        est -= mean
        est *= est
        stats.append((mean[:, 0], np.sqrt(est.sum(axis=1) / trials)))
    return LinearitySweep(levels, *(np.concatenate(c) for c in zip(*stats)))
