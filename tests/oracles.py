"""Reference computations that tests check the library against."""

import struct

import numpy as np

from acimsim.models import _digital_matmul, _walk, engine_forward
from acimsim.quant import Signedness


def recompose_bits(planes, signedness) -> np.ndarray:
    """Inverse of quant.decompose_bits; returns the integer codes."""
    codes = np.zeros_like(planes[0])
    for i, plane in enumerate(planes):
        weight = 1 << i
        if signedness is Signedness.TWOS_COMPLEMENT and i == len(planes) - 1:
            weight = -weight
        codes = codes + weight * plane
    return codes


def reconstruct_groups(words, layout) -> np.ndarray:
    """Inverse of quant.encode_activation_groups over a whole group_layout:
    each word sits at 2^shift, negated for the sign group."""
    codes = np.zeros_like(words[0])
    for value, (_width, shift, sign_group) in zip(words, layout):
        codes = codes + (-1 if sign_group else 1) * (1 << shift) * value
    return codes


def forward_nat(model, batch, cfg, ctx) -> np.ndarray:
    """QAT forward with multiplicative Gaussian noise on each matmul output,
    as noise-aware training sees it: eta is drawn per element, fresh for
    every (ctx, layer); vary ctx.sample across passes to resample."""
    matmul = _digital_matmul(model, True, cfg.nat_sigma, cfg.seed, ctx)
    return _walk(model, batch, matmul)


def save_idx(path, array, type_code: int = 0x0E) -> None:
    """Write an array as an IDX file: float64 (0x0E) or unsigned byte
    (0x08)."""
    dtype = {0x08: ">u1", 0x0E: ">f8"}[type_code]
    arr = np.ascontiguousarray(array, dtype=dtype)
    with open(path, "wb") as fh:
        fh.write(bytes([0, 0, type_code, arr.ndim]))
        fh.write(struct.pack(f">{arr.ndim}I", *arr.shape))
        fh.write(arr.tobytes())


def evaluate_on_engine(model, dataset, cfg, spec, mode) -> float:
    """Top-1 accuracy with all linear layers executed by the engine."""
    x, y = dataset
    logits, _, _ = engine_forward(model, x, cfg, spec, mode)
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(y)))
