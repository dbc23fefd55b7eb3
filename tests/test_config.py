"""Config loader tests: parsing, defaults, diagnostics."""

import pytest

from acimsim.cli import main
from acimsim.config import KEYS, load_config
from acimsim.engine import VotingSpec
from acimsim.errors import ConfigError
from acimsim.macro import NoiseUnit
from acimsim.models import TrainConfig

MINIMAL = """
[macro]
rows = 256
adc_bits = 9

[noise]
seed = 42
"""


def write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL))
    assert cfg.macro.rows == 256 and cfg.macro.adc_bits == 9
    assert cfg.macro.enc_bits == 1
    assert cfg.noise.seed == 42
    assert cfg.noise.random_sigma.value == 0.0
    assert cfg.noise.silent
    assert cfg.mode.enc_bits == 1 and cfg.checkpoint is None
    assert (cfg.w_bits, cfg.x_bits) == (8, 8)
    assert cfg.data.images is None and cfg.data.samples == 512
    assert cfg.sweep is None
    # a config without [train] trains with KEYS' defaults, which are
    # TrainConfig's, at the [noise] seed
    assert cfg.train == TrainConfig(seed=42)
    assert cfg.analysis.trials == 10000


def test_full_config_parse(tmp_path):
    text = """
[macro]
rows = 128
adc_bits = 10
enc_bits = 2

[noise]
random = 0.15
random_unit = vpp_pct
nonlin = 0.5
nonlin_unit = lsb_rms
seed = 7

[mode]
hybrid_boundary = 2
voting_boundary = 1
voting_samples = 5

[quant]
w_bits = 6
x_bits = 5

[model]
checkpoint = model.ackpt

[data]
samples = 256
features = 8
classes = 2
spread = 0.4
seed = 3

[analysis]
batch = 4
in_dim = 300
out_dim = 12
trials = 2000

[train]
lr = 0.1
epochs = 10
batch = 16
nat_sigma = 0.5
"""
    cfg = load_config(write(tmp_path, text))
    assert cfg.macro.enc_bits == 2
    assert cfg.noise.random_sigma.unit is NoiseUnit.VPP_PCT
    assert cfg.noise.nonlin_sigma.value == 0.5
    assert cfg.mode.enc_bits == 2
    assert cfg.mode.hybrid_boundary == 2
    assert cfg.mode.voting == VotingSpec(1, 5)
    assert (cfg.w_bits, cfg.x_bits) == (6, 5)
    assert cfg.checkpoint == "model.ackpt"
    assert cfg.data.classes == 2 and cfg.data.spread == 0.4
    assert cfg.analysis.in_dim == 300
    assert cfg.train.lr == 0.1 and cfg.train.nat_sigma == 0.5
    # train seed defaults to the noise seed
    assert cfg.train.seed == 7


def test_sweep_axes(tmp_path):
    text = MINIMAL + """
[sweep]
adc_bits = 6, 7, 8
noise = 0.0, 0.5
"""
    cfg = load_config(write(tmp_path, text))
    assert cfg.sweep == {"adc_bits": [6, 7, 8], "noise": [0.0, 0.5]}


def test_inline_comments(tmp_path):
    text = """
[macro]
rows = 256     ; row parallelism
adc_bits = 9   # boundary precision

[noise]
seed = 1
"""
    assert load_config(write(tmp_path, text)).macro.rows == 256


def test_shipped_configs_load():
    import pathlib
    root = pathlib.Path(__file__).resolve().parent.parent
    for name in ("simulate", "sweep", "linearity"):
        cfg = load_config(str(root / "configs" / f"{name}.ini"))
        assert cfg.noise.seed >= 0


def test_echo_summary(tmp_path):
    # the echo is every KEYS key, defaults filled in, after --seed and the
    # [train] seed following it
    echo = load_config(write(tmp_path, MINIMAL), seed=5).echo
    assert {name: list(keys) for name, keys in echo.items()} == \
        {name: list(keys) for name, keys in KEYS.items()}
    assert echo["macro"] == {"rows": 256, "adc_bits": 9, "enc_bits": 1}
    assert echo["noise"]["seed"] == 5 and echo["train"]["seed"] == 5
    assert echo["noise"]["random_unit"] is NoiseUnit.LSB_RMS
    assert echo["train"]["lr"] == TrainConfig.lr == 0.05
    assert echo["mode"] == dict.fromkeys(KEYS["mode"])
    assert echo["quant"] == {"w_bits": 8, "x_bits": 8}
    assert echo["sweep"] == dict.fromkeys(KEYS["sweep"])


def expect_error(tmp_path, text, fragment, name="bad.ini"):
    with pytest.raises(ConfigError) as err:
        load_config(write(tmp_path, text, name))
    assert fragment in str(err.value)


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/exp.ini")


def test_missing_required_key(tmp_path):
    expect_error(tmp_path, "[macro]\nadc_bits = 9\n\n[noise]\nseed = 1\n",
                 "[macro] rows: required key is missing")
    expect_error(tmp_path, "[macro]\nrows = 256\nadc_bits = 9\n",
                 "[noise] seed: required key is missing")


def test_type_diagnostics(tmp_path):
    expect_error(tmp_path, MINIMAL.replace("rows = 256", "rows = lots"),
                 "[macro] rows: expected an integer")
    expect_error(tmp_path, MINIMAL + "[analysis]\ntrials = 1e4\n",
                 "[analysis] trials: expected an integer")


def test_bad_unit(tmp_path):
    text = """
[macro]
rows = 256
adc_bits = 9

[noise]
seed = 1
random = 0.5
random_unit = volts
"""
    expect_error(tmp_path, text, "unknown unit")


def test_wrapped_validation_errors(tmp_path):
    text = MINIMAL.replace("seed = 42", "seed = 42\nrandom = -1.0")
    expect_error(tmp_path, text, "[noise]")
    expect_error(tmp_path, MINIMAL.replace("seed = 42", "seed = -3"), "[noise]")
    expect_error(tmp_path, MINIMAL + "[train]\nlr = 0\n", "[train]")
    expect_error(tmp_path, MINIMAL + "[train]\nnat_sigma = nan\n",
                 "[train] nat_sigma must be finite")


def test_voting_needs_both_keys(tmp_path):
    expect_error(tmp_path, MINIMAL + "[mode]\nvoting_boundary = 3\n",
                 "voting_samples: required key is missing")


def test_data_validation(tmp_path):
    # images and labels come together: both select the IDX loader
    expect_error(tmp_path, MINIMAL + "[data]\nimages = x.idx\n",
                 "[data] labels: required key is missing")
    expect_error(tmp_path, MINIMAL + "[data]\nlabels = y.idx\n",
                 "[data] images: required key is missing")
    cfg = load_config(write(tmp_path, MINIMAL + "[data]\nimages = x.idx\n"
                                      "labels = y.idx\nsamples = 0\n"))
    assert (cfg.data.images, cfg.data.labels) == ("x.idx", "y.idx")
    expect_error(tmp_path, MINIMAL + "[data]\nkind = blobs\n",
                 "[data] kind: unknown key")


@pytest.mark.parametrize("line, message", [
    ("features = 0", "[data] features must be >= 1, got 0"),
    ("classes = 0", "[data] classes must be >= 1, got 0"),
    ("samples = 2", "[data] need at least 3 samples, got 2")])
def test_blob_shape_is_checked_at_load(tmp_path, line, message):
    path = write(tmp_path, MINIMAL + f"[data]\n{line}\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == f"{path}: {message}"


def test_sweep_validation(tmp_path):
    expect_error(tmp_path, MINIMAL + "[sweep]\n", "no axes")
    expect_error(tmp_path, MINIMAL + "[sweep]\nadc_bits = ,\n", "non-empty")


def test_malformed_ini(tmp_path):
    expect_error(tmp_path, "rows = 256\n", str(tmp_path))


def test_unknown_key_is_rejected(tmp_path):
    # a misspelt key fails instead of leaving its setting at the default
    path = write(tmp_path, MINIMAL + "[mode]\nhybrid_boundry = 3\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == f"{path}: [mode] hybrid_boundry: unknown key"
    expect_error(tmp_path,
                 MINIMAL.replace("seed = 42", "seed = 42\nrandm = 1"),
                 "[noise] randm: unknown key")


def test_unknown_section_is_rejected(tmp_path):
    path = write(tmp_path, MINIMAL + "[modes]\nhybrid_boundary = 3\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == f"{path}: [modes] unknown section"
    expect_error(tmp_path, "[DEFAULT]\nseed = 1\n" + MINIMAL,
                 "[DEFAULT] unknown section")
    # [output] is retired: --out names the directory, and every run writes
    # both the CSV and the JSON
    expect_error(tmp_path, MINIMAL + "[output]\ndir = out\n",
                 "[output] unknown section")


@pytest.mark.parametrize("key", ["w_bits", "x_bits"])
def test_train_width_keys_are_unknown(tmp_path, capsys, key):
    # [quant] alone sets the bit widths
    path = write(tmp_path, MINIMAL + f"[train]\n{key} = 17\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == f"{path}: [train] {key}: unknown key"
    assert main(["train", "--config", path,
                 "--out", str(tmp_path / "out")]) == 2
    assert str(err.value) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("extra, message", [
    ("[analysis]\nbatch = 0", "[analysis] batch: must be >= 1, got 0"),
    ("[analysis]\nin_dim = 0", "[analysis] in_dim: must be >= 1, got 0"),
    ("[analysis]\nout_dim = -2", "[analysis] out_dim: must be >= 1, got -2"),
    ("[analysis]\ntrials = 5", "[analysis] trials: must be >= 100, got 5"),
    ("[data]\nseed = -1", "[data] seed: must be >= 0, got -1"),
    ("[data]\nspread = nan", "[data] spread: must be finite, got nan"),
    ("[train]\nseed = -1", "[train] seed must be >= 0, got -1"),
    ("[quant]\nw_bits = 1", "[quant] w_bits: must be >= 2, got 1"),
    ("[mode]\nhybrid_boundary = 0",
     "[mode] hybrid_boundary: must be >= 1, got 0"),
    ("[mode]\nvoting_boundary = 1\nvoting_samples = 0",
     "[mode] voting_samples must be >= 1, got 0"),
    ("[sweep]\nnoise = 0.5, inf", "[sweep] noise: sigma must be finite, got inf"),
])
def test_values_that_failed_at_run_time_fail_at_load(tmp_path, extra,
                                                     message):
    path = write(tmp_path, MINIMAL + extra + "\n")
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("line, message", [
    ("random = nan", "[noise] random: sigma must be finite, got nan"),
    ("nonlin = -inf", "[noise] nonlin: sigma must be finite, got -inf"),
    ("random = 50%", "[noise] random: expected a number, got '50%'"),
])
def test_noise_values_fail_naming_the_key(tmp_path, line, message):
    path = write(tmp_path, MINIMAL.replace("seed = 42", f"seed = 42\n{line}"))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert str(err.value) == f"{path}: {message}"


def test_huge_enc_bits_is_rejected_without_forming_its_full_scale(tmp_path):
    # 2^(2^63) is never built: enc_bits > 24 is over the 2^24 bound already
    expect_error(tmp_path, MINIMAL.replace("adc_bits = 9",
                                           f"adc_bits = 9\nenc_bits = {1 << 63}"),
                 "[macro] rows * (2^enc_bits - 1) must be < 2^24")


@pytest.mark.parametrize("section, key, high", [
    ("mode", "voting_samples", 100), ("data", "samples", 100_000),
    ("train", "epochs", 10_000), ("analysis", "batch", 1024),
    ("analysis", "in_dim", 1024), ("analysis", "out_dim", 1024),
    ("analysis", "trials", 1_000_000), ("quant", "w_bits", 16),
    ("quant", "x_bits", 16)])
def test_sizes_and_loop_counts_have_upper_bounds(tmp_path, section, key,
                                                 high):
    extra = "voting_boundary = 1\n" if key == "voting_samples" else ""
    for value in (high, high + 1):
        path = write(tmp_path,
                     MINIMAL + f"[{section}]\n{extra}{key} = {value}\n")
        if value == high:
            load_config(path)
            continue
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert str(err.value) == (
            f"{path}: [{section}] {key}: must be <= {high}, got {value}")
