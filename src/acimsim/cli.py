"""acim-sim: batch experiment driver over the simulation library.

Subcommands: simulate, sweep, train, csnr, linearity, distribution, sparsity.
Each is a pure function of (config file, seed); reports land as CSV plus a
JSON mirror with the config echo and run metadata.
"""

import argparse
import itertools
import os
import sys
import time

import numpy as np

from . import __version__, rng
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ExperimentConfig, load_config, sweep_point
from .data import MIN_SAMPLES, load_idx, make_blobs, train_test_split
from .engine import EngineMode, SimLayerResult, plan_cycles, simulate_matmul
from .errors import AcimError, ConfigError, DataError, check_int
from .macro import NOISELESS
from .metrics import csnr_measure, csnr_variance_form, linearity_sweep, \
    mac_distribution
from .models import (engine_forward, evaluate_digital, forward_float,
                     init_mlp, train)
from .quant import Signedness, bit_sparsity, decompose_bits, dequantize, \
    quantize
from .report import emit

BUILTIN_HIDDEN = 64


def _dataset(cfg: ExperimentConfig):
    d = cfg.data
    if d.images is not None:
        for key, p in (("images", d.images), ("labels", d.labels)):
            if not os.path.exists(p):
                raise ConfigError(f"{cfg.path}: [data] {key}: no such file {p}")
        x, y = load_idx(d.images), load_idx(d.labels)
        count = len(x) if x.ndim else 0   # a 0-d file is one bare pixel
        if count < MIN_SAMPLES:
            raise DataError(f"{d.images}: IDX file holds {count or 'no'} "
                            f"images, need at least {MIN_SAMPLES}")
        if not x[0].size:
            raise DataError(f"{d.images}: images of shape {x.shape[1:]} "
                            f"hold no pixels")
        if y.ndim != 1:
            raise DataError(f"{d.labels}: labels must be 1-D, got shape "
                            f"{y.shape}")
        if len(y) != len(x):
            raise DataError(f"{d.labels}: {len(y)} labels for the {len(x)} "
                            f"images of {d.images}")
        if not np.all(np.isfinite(y) & (y == np.round(y))):
            raise DataError(f"{d.labels}: labels must be integers")
        peak = np.abs(x).max(initial=0.0)   # scaled by the largest |pixel|
        if not np.isfinite(peak):           # NaN and inf both reach the peak
            raise DataError(f"{d.images}: pixels must be finite")
        x = (x / peak if peak > 0 else x).reshape(len(x), -1)
        return train_test_split(x, y.astype(np.int64))
    x, y = make_blobs(d.samples, d.features, d.classes, d.seed, d.spread)
    return train_test_split(x, y)


def _train_model(cfg: ExperimentConfig, train_set, test_set):
    # a class for every label of both splits, which evaluate_digital checks
    dims = [train_set[0].shape[1], BUILTIN_HIDDEN,
            max(int(np.max(y)) for _, y in (train_set, test_set)) + 1]
    model = init_mlp(dims, cfg.train.seed, cfg.w_bits, cfg.x_bits)
    model, losses = train(model, train_set, cfg.train)
    model.baseline_acc = evaluate_digital(model, test_set)
    return model, losses


def _check_plans(cfg, modes, widths, x_sign, enc_section="macro"):
    """Plan each mode at the widths of `widths` (a checkpoint, else the
    config's [quant]) for x signedness `x_sign`: an enc_bits (from
    `enc_section`) above x_bits or a boundary past the plan's shift levels
    (plan_cycles names its key) exits 2 before any training or simulation."""
    for mode in dict.fromkeys(modes):
        if mode.enc_bits > widths.x_bits:
            raise ConfigError(
                f"{cfg.path}: [{enc_section}] enc_bits: encoding width "
                f"{mode.enc_bits} exceeds x_bits {widths.x_bits}")
        try:
            plan_cycles(widths.w_bits, widths.x_bits, x_sign,
                        Signedness.TWOS_COMPLEMENT, mode)
        except ConfigError as exc:
            raise ConfigError(f"{cfg.path}: [mode] {exc}") from None


def _model(cfg: ExperimentConfig, train_set, test_set, modes, enc_section):
    """The checkpoint, or the built-in model trained at [quant]'s widths,
    once every mode plans at its widths for unsigned inputs when the model
    has several linear layers (a signed layout's shift levels hold the
    unsigned one's), else for the test inputs' signedness (quantize's)."""
    model = None
    if cfg.checkpoint:
        if not os.path.exists(cfg.checkpoint):
            raise ConfigError(f"{cfg.path}: [model] checkpoint: "
                              f"no such file {cfg.checkpoint}")
        model = load_checkpoint(cfg.checkpoint)
    layers = 2 if model is None else len(model.linear_layers())
    sign = Signedness.UNSIGNED if layers > 1 else quantize(
        test_set[0], model.x_bits).params.signedness
    _check_plans(cfg, modes, model or cfg, sign, enc_section)
    return model or _train_model(cfg, train_set, test_set)[0]


def _run_grid(cfg: ExperimentConfig, axes: dict, threads, meta):
    """Accuracy, CSNR vs the float forward, cycles and analog ratio of the
    model at every point of the grid of `axes` (axis -> values, as
    cfg.sweep); no axes is the single point of the config as written.
    `meta` gets the model's widths, which are the checkpoint's, not
    [quant]'s, when the config names one. engine_forward runs the points
    in engine._simulate_grid's lockstep groups on `threads` threads."""
    grid = list(itertools.product(*axes.values()))
    points = [sweep_point(cfg.macro, cfg.noise, cfg.mode,
                          dict(zip(axes, values))) for values in grid]
    train_set, test_set = _dataset(cfg)
    model = _model(cfg, train_set, test_set, [p[2] for p in points],
                   "sweep" if "enc_bits" in axes else "macro")
    x, y = test_set
    ideal = forward_float(model, x)
    rows = []
    for values, (logits, layers) in zip(
            grid, engine_forward(model, x, points, threads)):
        net = SimLayerResult.compose(layers, logits)
        acc = float(np.mean(np.argmax(logits, axis=1) == np.asarray(y)))
        rows.append((*values, acc, csnr_measure(ideal, logits),
                     net.total_cycles, net.analog_ratio))
    meta["baseline_acc"] = model.baseline_acc
    meta["quant"] = {"w_bits": model.w_bits, "x_bits": model.x_bits}
    header = (*axes, "accuracy", "csnr_db", "cycles", "analog_ratio")
    return header, rows


def cmd_simulate(cfg: ExperimentConfig, args, meta):
    return _run_grid(cfg, {}, args.threads, meta)


def cmd_sweep(cfg: ExperimentConfig, args, meta):
    if not cfg.sweep:
        raise ConfigError(f"{cfg.path}: sweep needs a [sweep] section with "
                          "at least one axis")
    return _run_grid(cfg, cfg.sweep, args.threads, meta)


def cmd_train(cfg: ExperimentConfig, args, meta):
    train_set, test_set = _dataset(cfg)
    model, losses = _train_model(cfg, train_set, test_set)
    os.makedirs(args.out, exist_ok=True)
    ckpt_path = os.path.join(args.out, "model.ackpt")
    save_checkpoint(model, ckpt_path)
    meta["checkpoint"] = ckpt_path
    meta["baseline_acc"] = model.baseline_acc
    return ("epoch", "loss"), list(enumerate(losses))


def _analysis_operands(cfg: ExperimentConfig, mode):
    """The seeded operands of csnr and distribution, float and quantized as
    2's complement at [quant]'s widths, once `mode` plans at those widths."""
    _check_plans(cfg, [mode], cfg, Signedness.TWOS_COMPLEMENT)
    a = cfg.analysis
    gen = rng.stream(cfg.noise.seed, rng.RngContext(), rng.TAG_DATA)
    act = gen.normal(size=(a.batch, a.in_dim))
    w = gen.normal(size=(a.in_dim, a.out_dim))
    return act, w, quantize(act, cfg.x_bits, Signedness.TWOS_COMPLEMENT), \
        quantize(w, cfg.w_bits, Signedness.TWOS_COMPLEMENT)


def cmd_csnr(cfg: ExperimentConfig, args, meta):
    act, w, act_q, w_q = _analysis_operands(cfg, cfg.mode)
    ideal = act @ w
    quant_in = dequantize(act_q) @ dequantize(w_q)
    quant_out = simulate_matmul(act_q, w_q, cfg.macro, NOISELESS,
                                cfg.mode).output
    noisy = simulate_matmul(act_q, w_q, cfg.macro, cfg.noise, cfg.mode).output
    direct_db = csnr_measure(ideal, noisy)
    vf = csnr_variance_form(ideal, quant_in, quant_out, noisy)
    header = ("csnr_db", "sqnr_sum_db", "csnr_sum_db", "sqnr_total_db",
              "csnr_total_db", "term_input_quant", "term_output_quant",
              "term_analog", "samples")
    row = (direct_db, vf.sqnr_db, vf.csnr_db, vf.sqnr_total_db,
           vf.csnr_total_db, vf.terms["input_quant"],
           vf.terms["output_quant"], vf.terms["analog"], ideal.size)
    return header, [row]


def cmd_linearity(cfg: ExperimentConfig, args, meta):
    samples = cfg.mode.voting.samples if cfg.mode.voting else 1
    sweep = linearity_sweep(cfg.macro, cfg.noise, cfg.analysis.trials,
                            samples=samples)
    return ("level", "mean_code", "sigma_code"), sweep.to_rows()


def cmd_distribution(cfg: ExperimentConfig, args, meta):
    # the plain mode mac_distribution runs: no hybrid, no voting
    *_, act_q, w_q = _analysis_operands(
        cfg, EngineMode(enc_bits=cfg.macro.enc_bits))
    hist = mac_distribution(act_q, w_q, cfg.macro)
    return ("w_bit", "act_group", "level", "count"), hist.to_rows()


def cmd_sparsity(cfg: ExperimentConfig, args, meta):
    a = cfg.analysis
    gen = rng.stream(cfg.noise.seed, rng.RngContext(), rng.TAG_DATA)
    t = gen.uniform(-1.0, 1.0, size=(a.batch, a.in_dim))
    sparsity = bit_sparsity(decompose_bits(
        quantize(t, cfg.x_bits, Signedness.TWOS_COMPLEMENT).codes, cfg.x_bits))
    return ("bit", "sparsity"), list(enumerate(sparsity))


COMMANDS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "train": cmd_train,
    "csnr": cmd_csnr,
    "linearity": cmd_linearity,
    "distribution": cmd_distribution,
    "sparsity": cmd_sparsity,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="acim-sim",
        description="Bit-wise inference simulator for SRAM-based analog "
                    "compute-in-memory macros")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment INI file")
        p.add_argument("--out", default="out",
                       help="output directory (default: out)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads (default: 1)")
        p.add_argument("--seed", type=int, help="override the [noise] seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        check_int(args.threads, "--threads", ConfigError, 1)
        if args.seed is not None:
            check_int(args.seed, "--seed", ConfigError, 0)
        cfg = load_config(args.config, seed=args.seed)
        meta = {"tool_version": __version__, "command": args.command,
                "config_path": os.path.basename(args.config),
                "threads": args.threads, "started_unix": time.time()}
        header, rows = COMMANDS[args.command](cfg, args, meta)
        meta["wall_clock_s"] = time.monotonic() - start
        emit(args.out, args.command, header, rows, cfg.echo, meta)
        return 0
    except ConfigError as exc:
        print(f"acim-sim: config error: {exc}", file=sys.stderr)
        return 2
    except (AcimError, OSError) as exc:
        print(f"acim-sim: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
