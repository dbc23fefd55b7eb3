"""Experiment configuration: flat-sectioned INI files -> typed dataclasses.

Every run is a pure function of (config, seed); the [noise] seed key is
therefore mandatory and wall-clock seeding does not exist.
"""

import configparser
import os
from dataclasses import dataclass
from typing import Optional

from .engine import EngineMode, VotingSpec
from .errors import AcimError, ConfigError
from .macro import MacroConfig, NoiseSpec, NoiseUnit, Sigma
from .models import TrainConfig

_UNITS = {"lsb_rms": NoiseUnit.LSB_RMS, "vpp_pct": NoiseUnit.VPP_PCT}


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
    kind: str = "blobs"                 # "blobs" or "idx"
    samples: int = 512
    features: int = 16
    classes: int = 3
    spread: float = 1.0
    seed: int = 7
    images: Optional[str] = None
    labels: Optional[str] = None


@dataclass(frozen=True)
class ModelSpec:
    checkpoint: Optional[str] = None
    builtin: Optional[str] = None


@dataclass(frozen=True)
class AnalysisSpec:
    """Operand sizes and trial counts for the metrics subcommands."""
    batch: int = 8
    in_dim: int = 256
    out_dim: int = 16
    trials: int = 10000


@dataclass(frozen=True)
class OutputSpec:
    dir: str = "out"
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
            "noise": {
                "random": self.noise.random_sigma.value,
                "random_unit": self.noise.random_sigma.unit.value,
                "nonlin": self.noise.nonlin_sigma.value,
                "nonlin_unit": self.noise.nonlin_sigma.unit.value,
                "seed": self.noise.seed,
            },
            "mode": {"scheme": self.mode.scheme,
                     "hybrid_boundary": self.mode.hybrid_boundary,
                     "voting": None if self.mode.voting is None else
                     {"boundary": self.mode.voting.boundary,
                      "samples": self.mode.voting.samples}},
            "quant": {"w_bits": self.w_bits, "x_bits": self.x_bits},
            "sweep": self.sweep,
        }


class _Section:
    """Typed key access with file/section/key diagnostics on every failure.

    Every key asked for is recorded in `asked`, so that keys present in the
    file but never read can be rejected (_reject_unread).
    """

    def __init__(self, parser, path, name):
        self.parser, self.path, self.name = parser, path, name
        self.asked = set()

    def _fail(self, key, message):
        raise ConfigError(f"{self.path}: [{self.name}] {key}: {message}")

    def has(self, key):
        self.asked.add(key)
        return self.parser.has_option(self.name, key) \
            and self.parser.get(self.name, key).strip() != ""

    def raw(self, key, default=None, required=False):
        if not self.has(key):
            if required:
                self._fail(key, "required key is missing")
            return default
        return self.parser.get(self.name, key).strip()

    def _typed(self, key, cast, kind, default, required):
        value = self.raw(key, required=required)
        if value is None:
            return default
        try:
            return cast(value)
        except ValueError:
            self._fail(key, f"expected {kind}, got {value!r}")

    def get_int(self, key, default=None, required=False):
        return self._typed(key, int, "an integer", default, required)

    def get_float(self, key, default=None, required=False):
        return self._typed(key, float, "a number", default, required)

    def get_list(self, key, cast):
        value = self.raw(key)
        if value is None:
            return None
        try:
            return [cast(v.strip()) for v in value.split(",") if v.strip()]
        except ValueError:
            self._fail(key, f"expected a comma-separated list, got {value!r}")

    def get_unit(self, key, default=NoiseUnit.LSB_RMS):
        value = self.raw(key)
        if value is None:
            return default
        if value not in _UNITS:
            self._fail(key, f"unknown unit {value!r}; use lsb_rms or vpp_pct")
        return _UNITS[value]


def _reject_unread(parser, path, sections: dict) -> None:
    """Fail on the first section no _Section opened, or key none asked for,
    so a misspelt name stops the run instead of silently taking a default."""
    names = parser.sections()
    if parser.defaults():
        names.insert(0, parser.default_section)
    for name in names:
        if name not in sections:
            raise ConfigError(f"{path}: [{name}] unknown section")
        for key in parser.options(name):
            if key not in sections[name].asked:
                sections[name]._fail(key, "unknown key")


def _sweep_axes(sweep_s: _Section, macro: MacroConfig, noise: NoiseSpec,
                x_bits: Optional[int]) -> dict:
    """The [sweep] axes, every value checked as its grid point will use it.

    Each adc_bits and enc_bits value builds the macro it selects, and each
    noise value the random sigma, so a bad value fails here, before any
    training, naming its key. enc_bits must not exceed `x_bits`, the
    activation width of the model the config trains (None for a checkpoint,
    whose widths are known only once it is loaded).
    """
    path = sweep_s.path
    sweep = {}
    for key, cast in (("adc_bits", int), ("enc_bits", int), ("noise", float)):
        values = sweep_s.get_list(key, cast)
        if values is None:
            continue
        if not values:
            sweep_s._fail(key, "sweep axis must be non-empty")
        for v in values:
            if key == "noise":
                _build(path, "sweep", Sigma, key, value=v,
                       unit=noise.random_sigma.unit)
                continue
            _build(path, "sweep", MacroConfig, key, **{
                "rows": macro.rows, "adc_bits": macro.adc_bits,
                "enc_bits": macro.enc_bits, key: v})
            if key == "enc_bits" and x_bits is not None and v > x_bits:
                sweep_s._fail(key, f"encoding width {v} exceeds x_bits "
                                   f"{x_bits}")
        sweep[key] = values
    if not sweep:
        sweep_s._fail("adc_bits", "sweep section has no axes")
    return sweep


def load_config(path: str) -> ExperimentConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (configparser.Error, OSError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    sections = {}

    def section(name):
        return sections.setdefault(name, _Section(parser, path, name))

    macro_s = section("macro")
    macro = _build(
        path, "macro", MacroConfig,
        rows=macro_s.get_int("rows", required=True),
        adc_bits=macro_s.get_int("adc_bits", required=True),
        enc_bits=macro_s.get_int("enc_bits", default=1))

    noise_s = section("noise")
    noise = _build(
        path, "noise", NoiseSpec,
        random_sigma=_build(path, "noise", Sigma,
                            value=noise_s.get_float("random", default=0.0),
                            unit=noise_s.get_unit("random_unit")),
        nonlin_sigma=_build(path, "noise", Sigma,
                            value=noise_s.get_float("nonlin", default=0.0),
                            unit=noise_s.get_unit("nonlin_unit")),
        seed=noise_s.get_int("seed", required=True))

    mode_s = section("mode")
    voting = None
    if mode_s.has("voting_boundary") or mode_s.has("voting_samples"):
        voting = _build(
            path, "mode", VotingSpec,
            boundary=mode_s.get_int("voting_boundary", required=True),
            samples=mode_s.get_int("voting_samples", required=True))
    mode = EngineMode(enc_bits=macro.enc_bits,
                      hybrid_boundary=mode_s.get_int("hybrid_boundary"),
                      voting=voting)
    scheme = mode_s.raw("scheme")
    if scheme is not None and scheme != mode.scheme:
        mode_s._fail("scheme", f"{scheme!r} conflicts with macro enc_bits "
                               f"{macro.enc_bits} ({mode.scheme})")

    quant_s = section("quant")
    w_bits = quant_s.get_int("w_bits", default=8)
    x_bits = quant_s.get_int("x_bits", default=8)

    model_s = section("model")
    model = ModelSpec(checkpoint=model_s.raw("checkpoint"),
                      builtin=model_s.raw("builtin"))
    if model.checkpoint and model.builtin:
        model_s._fail("builtin", "give either checkpoint or builtin, not both")

    data_s = section("data")
    kind = data_s.raw("kind", default="blobs")
    if kind not in ("blobs", "idx"):
        data_s._fail("kind", f"unknown dataset kind {kind!r}")
    data = DataSpec(
        kind=kind,
        samples=data_s.get_int("samples", default=512),
        features=data_s.get_int("features", default=16),
        classes=data_s.get_int("classes", default=3),
        spread=data_s.get_float("spread", default=1.0),
        seed=data_s.get_int("seed", default=7),
        images=data_s.raw("images"),
        labels=data_s.raw("labels"))
    if kind == "idx" and (data.images is None or data.labels is None):
        data_s._fail("images", "idx datasets need both images and labels")

    analysis_s = section("analysis")
    analysis = AnalysisSpec(
        batch=analysis_s.get_int("batch", default=8),
        in_dim=analysis_s.get_int("in_dim", default=256),
        out_dim=analysis_s.get_int("out_dim", default=16),
        trials=analysis_s.get_int("trials", default=10000))

    output_s = section("output")
    formats = output_s.get_list("formats", str) or ["csv", "json"]
    for fmt in formats:
        if fmt not in ("csv", "json"):
            output_s._fail("formats", f"unknown format {fmt!r}")
    output = OutputSpec(dir=output_s.raw("dir", default="out"),
                        formats=tuple(formats))

    train = None
    if parser.has_section("train"):
        train_s = section("train")
        train = _build(
            path, "train", TrainConfig,
            lr=train_s.get_float("lr", default=0.05),
            epochs=train_s.get_int("epochs", default=40),
            batch=train_s.get_int("batch", default=32),
            seed=train_s.get_int("seed", default=noise.seed),
            w_bits=train_s.get_int("w_bits", default=w_bits),
            x_bits=train_s.get_int("x_bits", default=x_bits),
            nat_sigma=train_s.get_float("nat_sigma", default=0.0))

    # a checkpoint's widths are known only once it is loaded
    act_bits = None if model.checkpoint else (train.x_bits if train
                                              else x_bits)
    if act_bits is not None and macro.enc_bits > act_bits:
        macro_s._fail("enc_bits", f"encoding width {macro.enc_bits} exceeds "
                                  f"x_bits {act_bits}")
    sweep = None
    if parser.has_section("sweep"):
        sweep = _sweep_axes(section("sweep"), macro, noise, act_bits)
    _reject_unread(parser, path, sections)

    return ExperimentConfig(macro=macro, noise=noise, mode=mode,
                            w_bits=w_bits, x_bits=x_bits, model=model,
                            data=data, analysis=analysis, output=output,
                            sweep=sweep, train=train, path=path)
