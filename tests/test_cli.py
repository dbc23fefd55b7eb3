"""End-to-end tests for the acim-sim command line driver.

Everything runs in-process through main() so exit codes, stderr text, and
report bytes can be checked without spawning subprocesses.
"""

import json
import struct
import threading

import numpy as np
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
    # the JSON mirror carries the echoed config and run metadata; the seed
    # the run used is the echo's, and meta does not repeat it
    assert payload["config"]["macro"]["rows"] == 32
    assert payload["config"]["noise"]["seed"] == 9
    assert payload["config"]["noise"]["random_unit"] == "lsb_rms"
    meta = payload["meta"]
    assert meta["command"] == "simulate"
    assert meta["config_path"] == "exp.ini"
    assert "seed" not in meta
    assert meta["threads"] == 1
    assert meta["wall_clock_s"] >= 0.0
    assert 0.0 <= meta["baseline_acc"] <= 1.0


def test_checkpoint_run_reports_the_widths_it_ran_at(tmp_path):
    # a checkpoint trained at 8/4, simulated and swept under [quant] 8/8:
    # meta names the checkpoint's widths, the config echo the config's
    text = BASE_INI.replace("w_bits = 4\n", "w_bits = 8\n")
    assert run("train", write_config(tmp_path, text), tmp_path / "t") == 0
    payload, _ = read_report(tmp_path / "t", "train")
    ckpt = payload["meta"]["checkpoint"]
    text = (text.replace("x_bits = 4\n", "x_bits = 8\n")
            + f"\n[model]\ncheckpoint = {ckpt}\n[sweep]\nnoise = 0.1, 0.3\n")
    cfg = write_config(tmp_path, text, "ckpt.ini")
    for cmd in ("simulate", "sweep"):
        assert run(cmd, cfg, tmp_path / cmd) == 0
        payload, _ = read_report(tmp_path / cmd, cmd)
        assert payload["meta"]["quant"] == {"w_bits": 8, "x_bits": 4}, cmd
        assert payload["config"]["quant"] == {"w_bits": 8, "x_bits": 8}, cmd


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


def test_sweep_grid_and_thread_determinism(tmp_path, monkeypatch):
    # two enc_bits values make two plan classes, so --threads 4 maps them
    # over worker threads: every class then runs off the main thread
    cfg = write_config(tmp_path, BASE_INI + "\n[sweep]\n"
                       "adc_bits = 5, 7\nenc_bits = 1, 2\nnoise = 0.0, 0.5\n")
    threads, forward = {}, cli.engine_forward

    def recording_forward(*args, **kw):
        threads.setdefault(run_threads, set()).add(threading.get_ident())
        return forward(*args, **kw)
    monkeypatch.setattr(cli, "engine_forward", recording_forward)
    for run_threads, out in (("1", "a"), ("4", "b")):
        assert run("sweep", cfg, tmp_path / out, "--threads", run_threads) == 0
    assert threads["1"] == {threading.get_ident()}
    assert threading.get_ident() not in threads["4"]
    a = (tmp_path / "a" / "sweep.csv").read_bytes()
    b = (tmp_path / "b" / "sweep.csv").read_bytes()
    assert a == b
    payload, csv_lines = read_report(tmp_path / "a", "sweep")
    assert csv_lines[0].startswith("adc_bits,enc_bits,noise,")
    assert len(payload["results"]) == 8    # 2 x 2 x 2 grid
    grid = {tuple(r[:3]) for r in payload["results"]}
    assert grid == {(a, y, n) for a in (5, 7) for y in (1, 2)
                    for n in (0.0, 0.5)}


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


@pytest.mark.parametrize("cmd, enc_bits, extra, key, message", [
    ("simulate", 1, "[mode]\nhybrid_boundary = 100\n", "hybrid_boundary",
     "hybrid boundary 100 outside the 7 shift levels"),
    ("simulate", 1, "[mode]\nvoting_boundary = 100\nvoting_samples = 3\n",
     "voting_boundary", "voting boundary 100 outside the 7 analog shift levels"),
    # at y=2 the signed input layer has 7 shift levels, the unsigned
    # post-ReLU layer 6
    ("simulate", 2, "[mode]\nhybrid_boundary = 7\n", "hybrid_boundary",
     "hybrid boundary 7 outside the 6 shift levels"),
    # every [sweep] enc_bits value plans: y=4 leaves the hidden layer 4
    ("sweep", 1, "[mode]\nhybrid_boundary = 5\n[sweep]\nenc_bits = 1, 4\n",
     "hybrid_boundary", "hybrid boundary 5 outside the 4 shift levels"),
    # csnr plans its signed 4-bit operands at [quant]'s widths
    ("csnr", 1, "[mode]\nhybrid_boundary = 100\n", "hybrid_boundary",
     "hybrid boundary 100 outside the 7 shift levels"),
])
def test_mode_boundary_past_the_plan_exits_2_before_training(
        tmp_path, capsys, monkeypatch, cmd, enc_bits, extra, key, message):
    def no_training(*args, **kw):
        raise AssertionError("training ran before the [mode] check")
    monkeypatch.setattr(cli, "train", no_training)
    text = BASE_INI.replace("adc_bits = 7\n",
                            f"adc_bits = 7\nenc_bits = {enc_bits}\n")
    cfg = write_config(tmp_path, text + extra)
    assert run(cmd, cfg, tmp_path / "out") == 2
    assert (f"acim-sim: config error: {cfg}: [mode] {key}: {message}"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_checkpoint_enc_bits_above_its_x_bits_exits_2(tmp_path, capsys,
                                                      monkeypatch):
    # simulate and sweep plan at the checkpoint's widths, here below
    # [quant]'s 8-bit activations
    def no_training(*args, **kw):
        raise AssertionError("training ran before the [macro] check")
    monkeypatch.setattr(cli, "train", no_training)
    text = BASE_INI.replace("adc_bits = 7\n", "adc_bits = 7\nenc_bits = 6\n") \
        .replace("x_bits = 4\n", "x_bits = 8\n")
    for cmd, extra, section in (
            ("simulate", "", "macro"),
            ("sweep", "\n[sweep]\nenc_bits = 1, 6\n", "sweep")):
        cfg = _checkpoint_config(tmp_path, text + extra, 4)
        assert run(cmd, cfg, tmp_path / "out") == 2
        assert (f"acim-sim: config error: {cfg}: [{section}] enc_bits: "
                "encoding width 6 exceeds x_bits 4"
                in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


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


def _checkpoint_config(tmp_path, text, x_bits):
    """`text` naming a checkpoint of an 8-16-3 MLP at `x_bits`."""
    path = tmp_path / "widths.ackpt"
    save_checkpoint(init_mlp([8, 16, 3], 1, 4, x_bits), str(path))
    return write_config(tmp_path, text + f"\n[model]\ncheckpoint = {path}\n")


def test_analysis_enc_bits_above_quant_x_bits_exits_2(tmp_path, capsys):
    # csnr and distribution quantize at [quant] x_bits, which here is below
    # the width of the checkpoint that simulate and sweep plan at
    text = BASE_INI.replace("adc_bits = 7\n", "adc_bits = 7\nenc_bits = 6\n")
    cfg = _checkpoint_config(tmp_path, text, 8)
    assert load_checkpoint(load_config(cfg).checkpoint).x_bits == 8
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


def _write_idx(path, array):
    """`array` as an IDX file of unsigned bytes."""
    array = np.asarray(array, dtype=np.uint8)
    path.write_bytes(struct.pack(f">BBBB{array.ndim}I", 0, 0, 0x08,
                                 array.ndim, *array.shape) + array.tobytes())


def _idx_pair(tmp_path, high=2, bright=2):
    """60 4x4 images over 3 classes, pixels in [0, high) plus `bright` on
    each class's own row."""
    labels = np.arange(60) % 3
    images = np.random.default_rng(0).integers(0, high, size=(60, 4, 4))
    for c in range(3):
        images[labels == c, c] += bright
    _write_idx(tmp_path / "images.idx", images)
    _write_idx(tmp_path / "labels.idx", labels)
    return (f"images = {tmp_path / 'images.idx'}\n",
            f"labels = {tmp_path / 'labels.idx'}\n")


def test_simulate_on_idx_files(tmp_path):
    # images and labels together select the IDX loader: 16 features, and
    # [data] samples, features and classes go unread. Pixels of 0..3 and of
    # 0..223 both train, as the images are divided by their peak |pixel|.
    for high, bright in ((2, 2), (64, 160)):
        images, labels = _idx_pair(tmp_path, high, bright)
        text = BASE_INI.replace("[data]\n", f"[data]\n{images}{labels}") \
            .replace("features = 8", "features = 0")
        out = tmp_path / f"out{high}"
        assert run("simulate", write_config(tmp_path, text), out) == 0
        payload, csv_lines = read_report(out, "simulate")
        assert len(csv_lines) == 2 and len(payload["results"]) == 1
        # the classes separate, so the model learns them from the files
        assert payload["meta"]["baseline_acc"] > 0.9, high
        assert payload["results"][0][0] > 0.9, high


def test_empty_idx_images_exit_3(tmp_path, capsys):
    # a 0-image IDX pair is well formed but holds no data to split
    _write_idx(tmp_path / "images.idx", np.zeros((0, 4, 4)))
    _write_idx(tmp_path / "labels.idx", np.zeros(0))
    text = BASE_INI.replace("[data]\n", f"[data]\nimages = "
                            f"{tmp_path / 'images.idx'}\nlabels = "
                            f"{tmp_path / 'labels.idx'}\n")
    assert run("simulate", write_config(tmp_path, text), tmp_path / "out") == 3
    assert (f"acim-sim: error: {tmp_path / 'images.idx'}: IDX file holds no "
            "images" in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_idx_images_without_labels_exits_2(tmp_path, capsys, monkeypatch):
    def no_training(*args, **kw):
        raise AssertionError("training ran before the [data] check")
    monkeypatch.setattr(cli, "train", no_training)
    images, _ = _idx_pair(tmp_path)
    cfg = write_config(tmp_path, BASE_INI.replace("[data]\n",
                                                  f"[data]\n{images}"))
    assert run("simulate", cfg, tmp_path / "out") == 2
    assert (f"acim-sim: config error: {cfg}: [data] labels: required key is "
            "missing" in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


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
    assert payload["config"]["noise"]["seed"] == 123
    assert payload["config"]["train"]["seed"] == 123   # followed --seed


@pytest.mark.parametrize("train_seed, follows", [(None, True), (4, False)])
def test_seed_override_reaches_train_seed(tmp_path, train_seed, follows):
    # --seed replaces [noise] seed before a [train] section without its own
    # seed takes it, so it retrains the model; a [train] seed stays put
    text = BASE_INI if train_seed is None else BASE_INI.replace(
        "batch = 16\n", f"batch = 16\nseed = {train_seed}\n")
    cfg = write_config(tmp_path, text)
    curves = []
    for seed in ("1", "2"):
        assert run("train", cfg, tmp_path / seed, "--seed", seed) == 0
        curves.append((tmp_path / seed / "train.csv").read_bytes())
    assert (curves[0] != curves[1]) == follows
    assert load_config(cfg, seed=2).train.seed == (2 if follows else 4)


def test_threads_env_is_ignored(tmp_path, monkeypatch):
    # --threads is the one source of the thread count, default 1
    cfg = write_config(tmp_path)
    assert run("simulate", cfg, tmp_path / "plain") == 0
    monkeypatch.setenv("ACIM_SIM_THREADS", "3")
    assert run("simulate", cfg, tmp_path / "env") == 0
    payload, _ = read_report(tmp_path / "env", "simulate")
    assert payload["meta"]["threads"] == 1
    assert ((tmp_path / "env" / "simulate.csv").read_bytes()
            == (tmp_path / "plain" / "simulate.csv").read_bytes())


@pytest.mark.parametrize("section, line", [
    ("mode", "scheme = bit-serial"), ("model", "builtin = blob-mlp")])
def test_retired_knob_is_an_unknown_key(tmp_path, capsys, section, line):
    # [mode] scheme restated [macro] enc_bits; [model] builtin had one value
    cfg = write_config(tmp_path, BASE_INI + f"\n[{section}]\n{line}\n")
    assert run("simulate", cfg, tmp_path / "out") == 2
    key = line.split()[0]
    assert (f"acim-sim: config error: {cfg}: [{section}] {key}: unknown key"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


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
