"""Checkpoint container tests: round trips and corruption detection."""

import struct

import numpy as np
import pytest

from acimsim import cli
from acimsim.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from acimsim.errors import CheckpointError
from acimsim.models import LinearLayer, Relu, TinyModel, init_mlp


def random_model(seed=0):
    m = init_mlp([5, 9, 4], seed=seed)
    m.w_bits, m.x_bits, m.nat_sigma = 6, 7, 0.5
    m.baseline_acc = 0.875
    return m


def test_round_trip_identity(tmp_path):
    path = tmp_path / "m.ackpt"
    m = random_model()
    save_checkpoint(m, path)
    back = load_checkpoint(path)
    assert (back.w_bits, back.x_bits, back.nat_sigma) == (6, 7, 0.5)
    assert back.baseline_acc == 0.875
    assert len(back.layers) == len(m.layers)
    for a, b in zip(m.layers, back.layers):
        if isinstance(a, Relu):
            assert isinstance(b, Relu)
        else:
            # float64 blobs survive bit for bit
            assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)


def test_round_trip_none_baseline(tmp_path):
    path = tmp_path / "m.ackpt"
    m = TinyModel([LinearLayer(w=np.eye(2), b=np.zeros(2))])
    assert m.baseline_acc is None
    save_checkpoint(m, path)
    assert load_checkpoint(path).baseline_acc is None


def test_header_layout(tmp_path):
    path = tmp_path / "m.ackpt"
    save_checkpoint(random_model(), path)
    raw = path.read_bytes()
    assert raw.startswith(MAGIC)
    version, w_bits, x_bits, nat_sigma, baseline, n_layers = struct.unpack_from(
        "<IHHddI", raw, len(MAGIC))
    assert (version, w_bits, x_bits, n_layers) == (1, 6, 7, 3)
    assert nat_sigma == 0.5 and baseline == 0.875


def test_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad"
    path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="not an ACIMCKPT file"):
        load_checkpoint(path)
    path.write_bytes(b"AC")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    with pytest.raises(CheckpointError, match="cannot read"):
        load_checkpoint(tmp_path / "missing")


def test_rejects_bit_flip(tmp_path):
    path = tmp_path / "m.ackpt"
    save_checkpoint(random_model(), path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="checksum"):
        load_checkpoint(path)


def test_rejects_truncation(tmp_path):
    path = tmp_path / "m.ackpt"
    save_checkpoint(random_model(), path)
    raw = path.read_bytes()
    import zlib
    # keep the container shape valid (crc recomputed) but cut the payload
    cut = raw[len(MAGIC):len(raw) // 2]
    path.write_bytes(MAGIC + cut + struct.pack("<I", zlib.crc32(cut)))
    with pytest.raises(CheckpointError, match="truncated"):
        load_checkpoint(path)


def test_rejects_unknown_version(tmp_path):
    path = tmp_path / "m.ackpt"
    save_checkpoint(random_model(), path)
    raw = bytearray(path.read_bytes())
    import zlib
    struct.pack_into("<I", raw, len(MAGIC), 99)
    payload = bytes(raw[len(MAGIC):-4])
    path.write_bytes(MAGIC + payload + struct.pack("<I", zlib.crc32(payload)))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "m.ackpt"
    save_checkpoint(random_model(), path)
    raw = path.read_bytes()
    import zlib
    payload = raw[len(MAGIC):-4] + b"\x00\x00"
    path.write_bytes(MAGIC + payload + struct.pack("<I", zlib.crc32(payload)))
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(path)


def test_rejects_unknown_layer_kind(tmp_path):
    path = tmp_path / "m.ackpt"
    save_checkpoint(random_model(), path)
    raw = bytearray(path.read_bytes())
    import zlib
    # the first layer's kind byte follows the header
    raw[len(MAGIC) + struct.calcsize("<IHHddI")] = 7
    payload = bytes(raw[len(MAGIC):-4])
    path.write_bytes(MAGIC + payload + struct.pack("<I", zlib.crc32(payload)))
    with pytest.raises(CheckpointError, match="unknown layer kind 7"):
        load_checkpoint(path)


@pytest.mark.parametrize("w_bits, x_bits, name", [
    (1, 8, "w_bits"), (8, 17, "x_bits"), (0, 0, "w_bits")])
def test_rejects_widths_outside_the_bit_range(tmp_path, capsys, w_bits,
                                              x_bits, name):
    # a valid CRC over widths no quantizer takes: the load names the file,
    # so the run exits 3 instead of blaming a config key
    path = tmp_path / "m.ackpt"
    m = random_model()
    m.w_bits, m.x_bits = w_bits, x_bits
    save_checkpoint(m, path)
    bits = w_bits if name == "w_bits" else x_bits
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert str(err.value) == (f"{path}: {name} must be in [2, 16], "
                              f"got {bits}")
    cfg = tmp_path / "exp.ini"
    cfg.write_text("[macro]\nrows = 32\nadc_bits = 7\n[noise]\nseed = 1\n"
                   f"[model]\ncheckpoint = {path}\n")
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3
    assert f"acim-sim: error: {err.value}" in capsys.readouterr().err
