"""Experiment configuration: flat-sectioned INI files -> typed dataclasses.

Every run is a pure function of (config, seed); the [noise] seed key is
therefore mandatory and wall-clock seeding does not exist.
"""

import configparser
import math
import os
from dataclasses import dataclass
from typing import Optional

from .data import check_blobs
from .engine import EngineMode, VotingSpec
from .errors import AcimError, ConfigError, DataError
from .macro import MacroConfig, NoiseSpec, NoiseUnit, Sigma
from .models import TrainConfig

_REQUIRED = object()


def _typed(cast, message):
    """A parser of one raw value; a value `cast` rejects fails with
    `message`, formatted with the value's repr."""
    def parse(value):
        try:
            return cast(value)
        except ValueError:
            raise ValueError(message.format(repr(value))) from None
    return parse


def _list(cast):
    return _typed(lambda value: [cast(v.strip()) for v in value.split(",")
                                 if v.strip()],
                  "expected a comma-separated list, got {}")


_INT = _typed(int, "expected an integer, got {}")
_FLOAT = _typed(float, "expected a number, got {}")
_UNIT = _typed(NoiseUnit, "unknown unit {}; use lsb_rms or vpp_pct")
_LSB = NoiseUnit.LSB_RMS

# Every section and key a config may hold: key -> (parser, default). An empty
# value counts as absent. A None default of [train] seed, w_bits or x_bits
# follows [noise] seed and [quant]; a [sweep] axis left out is not swept.
KEYS = {
    "macro": {"rows": (_INT, _REQUIRED), "adc_bits": (_INT, _REQUIRED),
              "enc_bits": (_INT, 1)},
    "noise": {"random": (_FLOAT, 0.0), "random_unit": (_UNIT, _LSB),
              "nonlin": (_FLOAT, 0.0), "nonlin_unit": (_UNIT, _LSB),
              "seed": (_INT, _REQUIRED)},
    "mode": {"scheme": (str, None), "hybrid_boundary": (_INT, None),
             "voting_boundary": (_INT, None), "voting_samples": (_INT, None)},
    "quant": {"w_bits": (_INT, 8), "x_bits": (_INT, 8)},
    "model": {"checkpoint": (str, None), "builtin": (str, None)},
    "data": {"kind": (str, "blobs"), "samples": (_INT, 512),
             "features": (_INT, 16), "classes": (_INT, 3),
             "spread": (_FLOAT, 1.0), "seed": (_INT, 7),
             "images": (str, None), "labels": (str, None)},
    "analysis": {"batch": (_INT, 8), "in_dim": (_INT, 256),
                 "out_dim": (_INT, 16), "trials": (_INT, 10000)},
    "output": {"dir": (str, "out"), "formats": (_list(str), None)},
    "train": {"lr": (_FLOAT, 0.05), "epochs": (_INT, 40),
              "batch": (_INT, 32), "seed": (_INT, None),
              "w_bits": (_INT, None), "x_bits": (_INT, None),
              "nat_sigma": (_FLOAT, 0.0)},
    "sweep": {"adc_bits": (_list(int), None), "enc_bits": (_list(int), None),
              "noise": (_list(float), None)},
}


def _fail(path, section, key, message):
    raise ConfigError(f"{path}: [{section}] {key}: {message}")


def _build(path, section, ctor, key=None, **kw):
    """Construct a config dataclass; a validation error names the file, the
    section and, when given, the key."""
    try:
        return ctor(**kw)
    except AcimError as exc:
        where = f"[{section}]" if key is None else f"[{section}] {key}:"
        raise ConfigError(f"{path}: {where} {exc}") from exc


@dataclass(frozen=True)
class DataSpec:
    kind: str                           # "blobs" or "idx"
    samples: int
    features: int
    classes: int
    spread: float
    seed: int
    images: Optional[str]
    labels: Optional[str]

    def __post_init__(self):
        if self.seed < 0:
            raise DataError(f"seed must be >= 0, got {self.seed}")
        if not math.isfinite(self.spread):
            raise DataError(f"spread must be finite, got {self.spread}")
        if self.kind == "blobs":
            check_blobs(self.samples, self.features, self.classes)


@dataclass(frozen=True)
class ModelSpec:
    checkpoint: Optional[str]
    builtin: Optional[str]


@dataclass(frozen=True)
class AnalysisSpec:
    """Operand sizes and trial counts for the metrics subcommands."""
    batch: int
    in_dim: int
    out_dim: int
    trials: int

    def __post_init__(self):
        # trials: the bound of metrics.linearity_sweep, checked before any run
        for name, low in (("batch", 1), ("in_dim", 1), ("out_dim", 1),
                          ("trials", 100)):
            if getattr(self, name) < low:
                raise ConfigError(
                    f"{name} must be >= {low}, got {getattr(self, name)}")


@dataclass(frozen=True)
class OutputSpec:
    dir: str
    formats: tuple = ("csv", "json")


@dataclass
class ExperimentConfig:
    macro: MacroConfig
    noise: NoiseSpec
    mode: EngineMode
    w_bits: int
    x_bits: int
    model: ModelSpec
    data: DataSpec
    analysis: AnalysisSpec
    output: OutputSpec
    sweep: Optional[dict] = None        # axis name -> list of values
    train: Optional[TrainConfig] = None
    path: str = ""

    def echo(self) -> dict:
        """Config summary embedded in JSON reports."""
        return {
            "config_path": os.path.basename(self.path),
            "macro": {"rows": self.macro.rows, "adc_bits": self.macro.adc_bits,
                      "enc_bits": self.macro.enc_bits},
            "noise": {"random": self.noise.random_sigma.value,
                      "random_unit": self.noise.random_sigma.unit.value,
                      "nonlin": self.noise.nonlin_sigma.value,
                      "nonlin_unit": self.noise.nonlin_sigma.unit.value,
                      "seed": self.noise.seed},
            "mode": {"scheme": self.mode.scheme,
                     "hybrid_boundary": self.mode.hybrid_boundary,
                     "voting": None if self.mode.voting is None else
                     {"boundary": self.mode.voting.boundary,
                      "samples": self.mode.voting.samples}},
            "quant": {"w_bits": self.w_bits, "x_bits": self.x_bits},
            "sweep": self.sweep,
        }


def _parse(parser, path) -> dict:
    """section -> key -> value of every key of KEYS, after rejecting any name
    not in it, so a misspelt key cannot silently take its default."""
    names = parser.sections()
    if parser.defaults():
        names.insert(0, parser.default_section)
    for name in names:
        if name not in KEYS:
            raise ConfigError(f"{path}: [{name}] unknown section")
        for key in parser.options(name):
            if key not in KEYS[name]:
                _fail(path, name, key, "unknown key")
    values = {}
    for name, keys in KEYS.items():
        values[name] = {}
        for key, (parse, default) in keys.items():
            raw = parser.get(name, key, fallback="").strip()
            if not raw and default is _REQUIRED:
                _fail(path, name, key, "required key is missing")
            try:
                values[name][key] = parse(raw) if raw else default
            except ValueError as exc:
                _fail(path, name, key, str(exc))
    return values


def _sweep_axes(path, axes: dict, macro: MacroConfig, noise: NoiseSpec,
                x_bits: Optional[int]) -> dict:
    """The given [sweep] axes, each value checked as its grid point will use
    it: the macro or random sigma it selects, and enc_bits against `x_bits`,
    the width of the model the config trains (None for a checkpoint)."""
    sweep = {key: values for key, values in axes.items() if values is not None}
    if not sweep:
        _fail(path, "sweep", "adc_bits", "sweep section has no axes")
    for key, values in sweep.items():
        if not values:
            _fail(path, "sweep", key, "sweep axis must be non-empty")
        for v in values:
            if key == "noise":
                _build(path, "sweep", Sigma, key, value=v,
                       unit=noise.random_sigma.unit)
                continue
            _build(path, "sweep", MacroConfig, key, **{
                "rows": macro.rows, "adc_bits": macro.adc_bits,
                "enc_bits": macro.enc_bits, key: v})
            if key == "enc_bits" and x_bits is not None and v > x_bits:
                _fail(path, "sweep", key,
                      f"encoding width {v} exceeds x_bits {x_bits}")
    return sweep


def load_config(path: str) -> ExperimentConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"),
                                       interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (configparser.Error, OSError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    v = _parse(parser, path)

    macro = _build(path, "macro", MacroConfig, **v["macro"])
    n = v["noise"]
    sigma = {key: _build(path, "noise", Sigma, key, value=n[key],
                         unit=n[key + "_unit"]) for key in ("random", "nonlin")}
    noise = _build(path, "noise", NoiseSpec, seed=n["seed"],
                   random_sigma=sigma["random"], nonlin_sigma=sigma["nonlin"])

    m = v["mode"]
    voting = None
    if m["voting_boundary"] is not None or m["voting_samples"] is not None:
        for key in ("voting_boundary", "voting_samples"):
            if m[key] is None:
                _fail(path, "mode", key, "required key is missing")
        voting = _build(path, "mode", VotingSpec, boundary=m["voting_boundary"],
                        samples=m["voting_samples"])
    if m["hybrid_boundary"] is not None and m["hybrid_boundary"] < 1:
        _fail(path, "mode", "hybrid_boundary",
              f"hybrid boundary must be >= 1, got {m['hybrid_boundary']}")
    mode = EngineMode(enc_bits=macro.enc_bits,
                      hybrid_boundary=m["hybrid_boundary"], voting=voting)
    if m["scheme"] is not None and m["scheme"] != mode.scheme:
        _fail(path, "mode", "scheme", f"{m['scheme']!r} conflicts with macro "
              f"enc_bits {macro.enc_bits} ({mode.scheme})")
    q = v["quant"]
    for key, bits in q.items():
        if not 2 <= bits <= 16:
            _fail(path, "quant", key, f"bits must be in [2, 16], got {bits}")
    model = ModelSpec(**v["model"])
    if model.checkpoint and model.builtin:
        _fail(path, "model", "builtin",
              "give either checkpoint or builtin, not both")
    d = v["data"]
    if d["kind"] not in ("blobs", "idx"):
        _fail(path, "data", "kind", f"unknown dataset kind {d['kind']!r}")
    data = _build(path, "data", DataSpec, **d)
    if data.kind == "idx" and (data.images is None or data.labels is None):
        _fail(path, "data", "images", "idx datasets need both images and labels")

    analysis = _build(path, "analysis", AnalysisSpec, **v["analysis"])
    formats = v["output"]["formats"] or OutputSpec.formats
    for fmt in formats:
        if fmt not in ("csv", "json"):
            _fail(path, "output", "formats", f"unknown format {fmt!r}")
    output = OutputSpec(dir=v["output"]["dir"], formats=tuple(formats))

    train = None
    if parser.has_section("train"):
        follow = {"seed": noise.seed, **q}
        train = _build(path, "train", TrainConfig, **{
            key: follow[key] if val is None else val
            for key, val in v["train"].items()})

    # a checkpoint's widths are known only once it is loaded
    act_bits = None if model.checkpoint else (train.x_bits if train
                                              else q["x_bits"])
    if act_bits is not None and macro.enc_bits > act_bits:
        _fail(path, "macro", "enc_bits", f"encoding width {macro.enc_bits} "
                                         f"exceeds x_bits {act_bits}")
    sweep = (_sweep_axes(path, v["sweep"], macro, noise, act_bits)
             if parser.has_section("sweep") else None)

    return ExperimentConfig(macro=macro, noise=noise, mode=mode,
                            w_bits=q["w_bits"], x_bits=q["x_bits"],
                            model=model, data=data, analysis=analysis,
                            output=output, sweep=sweep, train=train, path=path)
