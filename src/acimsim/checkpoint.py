"""Self-describing checkpoint container for TinyModel.

Layout: magic "ACIMCKPT", then a little-endian payload (format version,
quantization metadata, layer descriptors, float64 weight blobs) and a trailing
CRC32 of the payload.
"""

import math
import struct
import zlib

import numpy as np

from .errors import CheckpointError
from .models import LinearLayer, Relu, TinyModel
from .quant import check_bits

MAGIC = b"ACIMCKPT"
VERSION = 1
_LINEAR, _RELU = 0, 1


def save_checkpoint(model: TinyModel, path) -> None:
    baseline = math.nan if model.baseline_acc is None else float(model.baseline_acc)
    parts = [struct.pack("<IHHddI", VERSION, model.w_bits, model.x_bits,
                         float(model.nat_sigma), baseline, len(model.layers))]
    for layer in model.layers:
        if isinstance(layer, Relu):
            parts.append(struct.pack("<B", _RELU))
            continue
        d_in, d_out = layer.w.shape
        parts.append(struct.pack("<BII", _LINEAR, d_in, d_out))
        parts.append(np.ascontiguousarray(layer.w, dtype="<f8").tobytes())
        parts.append(np.ascontiguousarray(layer.b, dtype="<f8").tobytes())
    payload = b"".join(parts)
    try:
        with open(path, "wb") as fh:
            fh.write(MAGIC)
            fh.write(payload)
            fh.write(struct.pack("<I", zlib.crc32(payload)))
    except OSError as exc:
        raise CheckpointError(
            f"cannot write checkpoint {path}: {exc}") from exc


class _Cursor:
    def __init__(self, buf, path):
        self.buf, self.off, self.path = buf, 0, path

    def _advance(self, size) -> int:   # the offset of the next `size` bytes
        if self.off + size > len(self.buf):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        self.off += size
        return self.off - size

    def take(self, fmt):
        off = self._advance(struct.calcsize(fmt))
        return struct.unpack_from(fmt, self.buf, off)

    def blob(self, count):
        off = self._advance(8 * count)
        arr = np.frombuffer(self.buf, dtype="<f8", count=count, offset=off)
        return arr.astype(np.float64)


def load_checkpoint(path) -> TinyModel:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if len(raw) < len(MAGIC) + 4 or not raw.startswith(MAGIC):
        raise CheckpointError(f"{path}: not an ACIMCKPT file")
    payload, (stored_crc,) = raw[len(MAGIC):-4], struct.unpack("<I", raw[-4:])
    if zlib.crc32(payload) != stored_crc:
        raise CheckpointError(f"{path}: checksum mismatch, file is corrupt")
    cur = _Cursor(payload, path)
    version, w_bits, x_bits, nat_sigma, baseline, n_layers = cur.take("<IHHddI")
    if version != VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version}")
    for name, bits in (("w_bits", w_bits), ("x_bits", x_bits)):
        check_bits(bits, CheckpointError, f"{path}: {name}")
    layers = []
    for _ in range(n_layers):
        (kind,) = cur.take("<B")
        if kind == _RELU:
            layers.append(Relu())
        elif kind == _LINEAR:
            d_in, d_out = cur.take("<II")
            w = cur.blob(d_in * d_out).reshape(d_in, d_out)
            b = cur.blob(d_out)
            layers.append(LinearLayer(w=w, b=b))
        else:
            raise CheckpointError(f"{path}: unknown layer kind {kind}")
    if cur.off != len(payload):
        raise CheckpointError(f"{path}: trailing bytes after last layer")
    return TinyModel(layers, w_bits=w_bits, x_bits=x_bits,
                     nat_sigma=nat_sigma,
                     baseline_acc=None if math.isnan(baseline) else baseline)
