"""End-to-end tests for the acim-sim command line driver.

Everything runs in-process through main() so exit codes, stderr text, and
report bytes can be checked without spawning subprocesses.
"""

import json

import pytest

from acimsim import cli
from acimsim.checkpoint import load_checkpoint, save_checkpoint
from acimsim.cli import main
from acimsim.config import load_config
from acimsim.models import init_mlp

BASE_INI = """\
[macro]
rows = 32
adc_bits = 7

[noise]
random = 0.3
random_unit = lsb_rms
seed = 9

[quant]
w_bits = 4
x_bits = 4

[data]
samples = 60
features = 8
classes = 3
seed = 5
spread = 0.5

[train]
lr = 0.1
epochs = 3
batch = 16

[analysis]
batch = 6
in_dim = 16
out_dim = 4
trials = 150
"""


def write_config(tmp_path, text=BASE_INI, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(cmd, cfg_path, out_dir, *extra):
    return main([cmd, "--config", cfg_path, "--out", str(out_dir), *extra])


def read_report(out_dir, name):
    payload = json.loads((out_dir / f"{name}.json").read_text())
    csv_lines = (out_dir / f"{name}.csv").read_text().splitlines()
    return payload, csv_lines


def test_simulate_writes_csv_and_json(tmp_path):
    cfg = write_config(tmp_path)
    assert run("simulate", cfg, tmp_path / "out") == 0
    payload, csv_lines = read_report(tmp_path / "out", "simulate")
    assert csv_lines[0] == "accuracy,csnr_db,cycles,analog_ratio"
    assert len(csv_lines) == 2
    assert payload["columns"] == ["accuracy", "csnr_db", "cycles",
                                  "analog_ratio"]
    (row,) = payload["results"]
    assert 0.0 <= row[0] <= 1.0
    assert row[2] > 0 and row[3] == 1.0
    # the JSON mirror carries the echoed config and run metadata
    assert payload["config"]["macro"]["rows"] == 32
    meta = payload["meta"]
    assert meta["command"] == "simulate"
    assert meta["seed"] == 9
    assert meta["threads"] == 1
    assert meta["wall_clock_s"] >= 0.0
    assert 0.0 <= meta["baseline_acc"] <= 1.0


def test_train_writes_loadable_checkpoint(tmp_path):
    cfg = write_config(tmp_path)
    assert run("train", cfg, tmp_path / "out") == 0
    payload, csv_lines = read_report(tmp_path / "out", "train")
    assert csv_lines[0] == "epoch,loss"
    assert len(csv_lines) == 1 + 3     # header + one row per epoch
    model = load_checkpoint(payload["meta"]["checkpoint"])
    assert model.w_bits == 4 and model.x_bits == 4
    shapes = [l.w.shape for l in model.layers if hasattr(l, "w")]
    assert shapes == [(8, 64), (64, 3)]
    assert model.baseline_acc == payload["meta"]["baseline_acc"]


def test_sweep_grid_and_thread_determinism(tmp_path):
    cfg = write_config(tmp_path, BASE_INI + "\n[sweep]\n"
                       "adc_bits = 5, 7\nnoise = 0.0, 0.5\n")
    assert run("sweep", cfg, tmp_path / "a", "--threads", "1") == 0
    assert run("sweep", cfg, tmp_path / "b", "--threads", "4") == 0
    a = (tmp_path / "a" / "sweep.csv").read_bytes()
    b = (tmp_path / "b" / "sweep.csv").read_bytes()
    assert a == b
    payload, csv_lines = read_report(tmp_path / "a", "sweep")
    assert csv_lines[0].startswith("adc_bits,noise,")
    assert len(payload["results"]) == 4    # 2 x 2 grid
    grid = {(r[0], r[1]) for r in payload["results"]}
    assert grid == {(5, 0.0), (5, 0.5), (7, 0.0), (7, 0.5)}


def _bad_sweep_exits_2_before_training(tmp_path, capsys, monkeypatch,
                                       axis, message):
    def no_training(*args, **kw):
        raise AssertionError("training ran before the [sweep] check")
    monkeypatch.setattr(cli, "train", no_training)
    cfg = write_config(tmp_path, BASE_INI + f"\n[sweep]\n{axis}\n")
    assert run("sweep", cfg, tmp_path / "out") == 2
    assert f"{cfg}: [sweep] {message}" in capsys.readouterr().err


def test_sweep_negative_noise_exits_2(tmp_path, capsys, monkeypatch):
    _bad_sweep_exits_2_before_training(
        tmp_path, capsys, monkeypatch, "noise = 0.0,-0.5",
        "noise: sigma must be >= 0, got -0.5")


def test_sweep_adc_bits_out_of_range_exits_2(tmp_path, capsys, monkeypatch):
    _bad_sweep_exits_2_before_training(
        tmp_path, capsys, monkeypatch, "adc_bits = 6,17",
        "adc_bits: adc_bits must be in [1, 16], got 17")


def test_sweep_enc_bits_above_x_bits_exits_2(tmp_path, capsys, monkeypatch):
    # BASE_INI trains a 4-bit model
    _bad_sweep_exits_2_before_training(
        tmp_path, capsys, monkeypatch, "enc_bits = 1,9",
        "enc_bits: encoding width 9 exceeds x_bits 4")


def test_macro_enc_bits_above_x_bits_exits_2(tmp_path, capsys, monkeypatch):
    # BASE_INI trains a 4-bit model; a checkpoint's widths are unknown
    # until it loads, so a config that names one passes
    def no_training(*args, **kw):
        raise AssertionError("training ran before the [macro] check")
    monkeypatch.setattr(cli, "train", no_training)
    text = BASE_INI.replace("adc_bits = 7\n", "adc_bits = 7\nenc_bits = 5\n")
    cfg = write_config(tmp_path, text)
    assert run("simulate", cfg, tmp_path / "out") == 2
    assert (f"{cfg}: [macro] enc_bits: encoding width 5 exceeds x_bits 4"
            in capsys.readouterr().err)
    ckpt = write_config(tmp_path, text + "\n[model]\ncheckpoint = m.ackpt\n",
                        "ckpt.ini")
    assert load_config(ckpt).macro.enc_bits == 5


@pytest.mark.parametrize("section, old, new, message", [
    ("train", "batch = 16", "batch = 0", "batch must be >= 1, got 0"),
    ("train", "batch = 16", "batch = -4", "batch must be >= 1, got -4"),
    ("train", "lr = 0.1", "lr = nan", "lr must be finite and > 0, got nan"),
    ("train", "lr = 0.1", "lr = inf", "lr must be finite and > 0, got inf"),
    ("train", "batch = 16", "batch = 16\nnat_sigma = nan",
     "nat_sigma must be finite and >= 0, got nan"),
    ("data", "features = 8", "features = 0", "features must be >= 1, got 0"),
    ("data", "classes = 3", "classes = 0", "classes must be >= 1, got 0"),
])
def test_bad_train_and_data_values_exit_2(tmp_path, capsys, section, old,
                                          new, message):
    cfg = write_config(tmp_path, BASE_INI.replace(old, new))
    assert run("sweep", cfg, tmp_path / "out") == 2
    assert (f"acim-sim: config error: {cfg}: [{section}] {message}"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_analysis_enc_bits_above_quant_x_bits_exits_2(tmp_path, capsys):
    # csnr and distribution quantize at [quant] x_bits, which here is below
    # the width [train] gives the model that load_config checks against
    text = BASE_INI.replace("adc_bits = 7\n", "adc_bits = 7\nenc_bits = 6\n") \
        .replace("batch = 16\n", "batch = 16\nx_bits = 8\n")
    cfg = write_config(tmp_path, text)
    assert load_config(cfg).train.x_bits == 8
    for cmd in ("csnr", "distribution"):
        assert run(cmd, cfg, tmp_path / "out") == 2
        assert (f"{cfg}: [macro] enc_bits: encoding width 6 exceeds x_bits 4"
                in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_csnr_report_columns(tmp_path):
    cfg = write_config(tmp_path)
    assert run("csnr", cfg, tmp_path / "out") == 0
    payload, csv_lines = read_report(tmp_path / "out", "csnr")
    assert csv_lines[0].split(",")[:2] == ["csnr_db", "sqnr_sum_db"]
    (row,) = payload["results"]
    by_name = dict(zip(payload["columns"], row))
    # per-source sums can only overstate the combined-denominator ratios
    assert by_name["sqnr_sum_db"] >= by_name["sqnr_total_db"]
    assert by_name["csnr_sum_db"] >= by_name["csnr_total_db"]
    assert by_name["samples"] == 6 * 4


def test_linearity_rows_cover_every_level(tmp_path):
    cfg = write_config(tmp_path)
    assert run("linearity", cfg, tmp_path / "out") == 0
    payload, csv_lines = read_report(tmp_path / "out", "linearity")
    assert csv_lines[0] == "level,mean_code,sigma_code"
    levels = [r[0] for r in payload["results"]]
    assert levels == list(range(33))      # N_fs = 32 rows at 1 bit/cycle
    sigmas = [r[2] for r in payload["results"][1:-1]]
    assert all(0.1 < s < 0.6 for s in sigmas)


def test_distribution_and_sparsity_smoke(tmp_path):
    cfg = write_config(tmp_path)
    assert run("distribution", cfg, tmp_path / "out") == 0
    payload, csv_lines = read_report(tmp_path / "out", "distribution")
    assert csv_lines[0] == "w_bit,act_group,level,count"
    assert sum(r[3] for r in payload["results"]) > 0

    assert run("sparsity", cfg, tmp_path / "out") == 0
    payload, csv_lines = read_report(tmp_path / "out", "sparsity")
    assert csv_lines[0] == "bit,sparsity"
    assert [r[0] for r in payload["results"]] == [0, 1, 2, 3]
    assert all(0.0 <= r[1] <= 1.0 for r in payload["results"])


def test_csv_only_output_format(tmp_path):
    cfg = write_config(tmp_path, BASE_INI + "\n[output]\nformats = csv\n")
    assert run("sparsity", cfg, tmp_path / "out") == 0
    assert (tmp_path / "out" / "sparsity.csv").exists()
    assert not (tmp_path / "out" / "sparsity.json").exists()


def test_seed_override_changes_results(tmp_path):
    cfg = write_config(tmp_path)
    assert run("csnr", cfg, tmp_path / "a") == 0
    assert run("csnr", cfg, tmp_path / "b", "--seed", "123") == 0
    assert run("csnr", cfg, tmp_path / "c", "--seed", "123") == 0
    a = (tmp_path / "a" / "csnr.csv").read_bytes()
    b = (tmp_path / "b" / "csnr.csv").read_bytes()
    c = (tmp_path / "c" / "csnr.csv").read_bytes()
    assert a != b          # different seed, different operands and noise
    assert b == c          # same seed replays exactly
    payload, _ = read_report(tmp_path / "b", "csnr")
    assert payload["meta"]["seed"] == 123


def test_threads_env_fallback(tmp_path, monkeypatch):
    cfg = write_config(tmp_path)
    monkeypatch.setenv("ACIM_SIM_THREADS", "3")
    assert run("sparsity", cfg, tmp_path / "out") == 0
    payload, _ = read_report(tmp_path / "out", "sparsity")
    assert payload["meta"]["threads"] == 3


def test_bad_threads_env_is_a_config_error(tmp_path, monkeypatch, capsys):
    cfg = write_config(tmp_path)
    monkeypatch.setenv("ACIM_SIM_THREADS", "many")
    assert run("sparsity", cfg, tmp_path / "out") == 2
    assert "ACIM_SIM_THREADS" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [("--threads", "0"), ("--seed", "-1")])
def test_bad_flag_values_exit_2(tmp_path, capsys, extra):
    cfg = write_config(tmp_path)
    assert run("simulate", cfg, tmp_path / "out", *extra) == 2
    assert "config error" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    assert run("simulate", str(tmp_path / "nope.ini"), tmp_path) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, "rows = 32\n")   # key before any section
    assert run("simulate", cfg, tmp_path) == 2
    assert "config error" in capsys.readouterr().err


def test_corrupt_checkpoint_exits_3(tmp_path, capsys):
    bad = tmp_path / "model.ackpt"
    bad.write_bytes(b"not a checkpoint at all")
    cfg = write_config(tmp_path, BASE_INI + "\n[model]\n"
                       f"checkpoint = {bad}\n")
    assert run("simulate", cfg, tmp_path / "out") == 3
    assert "error" in capsys.readouterr().err


def test_missing_checkpoint_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, BASE_INI + "\n[model]\n"
                       f"checkpoint = {tmp_path / 'absent.ackpt'}\n")
    assert run("simulate", cfg, tmp_path / "out") == 2
    assert "no such file" in capsys.readouterr().err


def test_checkpointed_model_skips_training(tmp_path):
    model = init_mlp([8, 6, 3], seed=1)
    model.baseline_acc = 0.5
    path = tmp_path / "seed.ackpt"
    save_checkpoint(model, str(path))
    cfg = write_config(tmp_path, BASE_INI + f"\n[model]\ncheckpoint = {path}\n")
    assert run("simulate", cfg, tmp_path / "out") == 0
    payload, _ = read_report(tmp_path / "out", "simulate")
    assert payload["meta"]["baseline_acc"] == 0.5


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_subcommand_is_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
