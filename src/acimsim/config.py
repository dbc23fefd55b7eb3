"""Experiment configuration: flat-sectioned INI files -> typed dataclasses.

Every run is a pure function of (config, seed); the [noise] seed key is
therefore mandatory and wall-clock seeding does not exist.
"""

import configparser
import math
import os
from dataclasses import dataclass, replace
from typing import Optional

from .data import check_blobs
from .engine import EngineMode, VotingSpec
from .errors import AcimError, ConfigError
from .macro import MacroConfig, NoiseSpec, NoiseUnit, Sigma
from .models import TrainConfig
from .quant import BIT_RANGE

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


def _int(low=-math.inf, high=math.inf):
    """An integer parser with the range of a key that no library type
    checks."""
    def parse(value):
        if (n := _INT(value)) < low:
            raise ValueError(f"must be >= {low}, got {n}")
        if n > high:
            raise ValueError(f"must be <= {high}, got {n}")
        return n
    return parse


def _finite(value):
    if not math.isfinite(x := _FLOAT(value)):
        raise ValueError(f"must be finite, got {x}")
    return x


_INT = _typed(int, "expected an integer, got {}")
_FLOAT = _typed(float, "expected a number, got {}")
_UNIT = _typed(NoiseUnit, "unknown unit {}; use lsb_rms or vpp_pct")

# Every section and key a config may hold: key -> (parser, default). An empty
# value counts as absent. A None [train] seed follows [noise] seed; a [sweep]
# axis left out is not swept. [quant] alone sets the bit widths. A key that
# a library type checks (MacroConfig, Sigma, VotingSpec, TrainConfig,
# check_blobs) is range-checked there; every other key's range is its parser.
# A default that a library type also states is read from that type.
KEYS = {
    "macro": {"rows": (_INT, _REQUIRED), "adc_bits": (_INT, _REQUIRED),
              "enc_bits": (_INT, MacroConfig.enc_bits)},
    "noise": {"random": (_FLOAT, NoiseSpec.random_sigma.value),
              "random_unit": (_UNIT, NoiseSpec.random_sigma.unit),
              "nonlin": (_FLOAT, NoiseSpec.nonlin_sigma.value),
              "nonlin_unit": (_UNIT, NoiseSpec.nonlin_sigma.unit),
              "seed": (_INT, _REQUIRED)},
    "mode": {"hybrid_boundary": (_int(1), None),
             "voting_boundary": (_INT, None),
             "voting_samples": (_int(high=100), None)},
    "quant": {"w_bits": (_int(*BIT_RANGE), 8), "x_bits": (_int(*BIT_RANGE), 8)},
    "model": {"checkpoint": (str, None)},
    "data": {"samples": (_int(high=10**5), 512), "features": (_INT, 16),
             "classes": (_INT, 3), "spread": (_finite, 1.0),
             "seed": (_int(0), 7), "images": (str, None),
             "labels": (str, None)},
    # trials: the bound of metrics.linearity_sweep, checked before any run
    "analysis": {"batch": (_int(1, 1024), 8), "in_dim": (_int(1, 1024), 256),
                 "out_dim": (_int(1, 1024), 16),
                 "trials": (_int(100, 10**6), 10000)},
    "train": {"lr": (_FLOAT, TrainConfig.lr),
              "epochs": (_int(high=10**4), TrainConfig.epochs),
              "batch": (_INT, TrainConfig.batch), "seed": (_INT, None),
              "nat_sigma": (_FLOAT, TrainConfig.nat_sigma)},
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
    """Gaussian blobs, or the IDX files `images` and `labels` when set."""
    samples: int
    features: int
    classes: int
    spread: float
    seed: int
    images: Optional[str]
    labels: Optional[str]

    def __post_init__(self):
        if self.images is None:
            check_blobs(self.samples, self.features, self.classes)


@dataclass(frozen=True)
class AnalysisSpec:
    """Operand sizes and trial counts for the metrics subcommands."""
    batch: int
    in_dim: int
    out_dim: int
    trials: int


@dataclass
class ExperimentConfig:
    macro: MacroConfig
    noise: NoiseSpec
    mode: EngineMode
    w_bits: int
    x_bits: int
    checkpoint: Optional[str]           # else the built-in model is trained
    data: DataSpec
    analysis: AnalysisSpec
    train: TrainConfig
    sweep: Optional[dict] = None        # axis name -> list of values
    echo: Optional[dict] = None   # section -> key -> value of every KEYS key
    path: str = ""


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


def sweep_point(macro: MacroConfig, noise: NoiseSpec, mode: EngineMode,
                values: dict) -> tuple:
    """The (macro, noise, mode) of one grid point: `values` maps [sweep]
    axes to one value each, in place of the macro's adc_bits and enc_bits
    and the random sigma's value; no values is the config as written. The
    mode takes the macro's enc_bits."""
    values = dict(values)
    if "noise" in values:
        noise = replace(noise, random_sigma=Sigma(
            values.pop("noise"), noise.random_sigma.unit))
    macro = replace(macro, **values)
    return macro, noise, replace(mode, enc_bits=macro.enc_bits)


def _sweep_axes(path, axes: dict, macro, noise, mode) -> dict:
    """The given [sweep] axes, each value checked as the point it selects."""
    sweep = {key: values for key, values in axes.items() if values is not None}
    if not sweep:
        _fail(path, "sweep", "adc_bits", "sweep section has no axes")
    for key, values in sweep.items():
        if not values:
            _fail(path, "sweep", key, "sweep axis must be non-empty")
        for v in values:
            _build(path, "sweep", sweep_point, key, macro=macro, noise=noise,
                   mode=mode, values={key: v})
    return sweep


def load_config(path: str, seed: Optional[int] = None) -> ExperimentConfig:
    """`seed`, when given, replaces [noise] seed before [train] reads it;
    the echo holds the parsed KEYS values after both."""
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
    if seed is not None:
        v["noise"]["seed"] = seed
    if v["train"]["seed"] is None:
        v["train"]["seed"] = v["noise"]["seed"]

    macro = _build(path, "macro", MacroConfig, **v["macro"])
    n = v["noise"]
    sigma = {key: _build(path, "noise", Sigma, key, value=n[key],
                         unit=n[key + "_unit"]) for key in ("random", "nonlin")}
    noise = _build(path, "noise", NoiseSpec, seed=n["seed"],
                   random_sigma=sigma["random"], nonlin_sigma=sigma["nonlin"])

    # keys that come together: one alone fails naming the other
    for section, pair in (("mode", ("voting_boundary", "voting_samples")),
                          ("data", ("images", "labels"))):
        given = [v[section][key] is not None for key in pair]
        if given[0] != given[1]:
            _fail(path, section, pair[given[0]], "required key is missing")
    m = v["mode"]
    voting = (None if m["voting_samples"] is None else
              _build(path, "mode", VotingSpec, boundary=m["voting_boundary"],
                     samples=m["voting_samples"]))
    mode = sweep_point(macro, noise, EngineMode(
        hybrid_boundary=m["hybrid_boundary"], voting=voting), {})[2]
    data = _build(path, "data", DataSpec, **v["data"])
    train = _build(path, "train", TrainConfig, **v["train"])
    sweep = (_sweep_axes(path, v["sweep"], macro, noise, mode)
             if parser.has_section("sweep") else None)

    q = v["quant"]
    return ExperimentConfig(macro=macro, noise=noise, mode=mode,
                            w_bits=q["w_bits"], x_bits=q["x_bits"],
                            checkpoint=v["model"]["checkpoint"], data=data,
                            analysis=AnalysisSpec(**v["analysis"]),
                            train=train, sweep=sweep, echo=v, path=path)
