"""Reference computations that tests check the library against."""

import struct
from dataclasses import replace

import numpy as np

from acimsim import rng
from acimsim.models import (Relu, _digital_matmul, _walk, cross_entropy,
                            engine_forward)
from acimsim.quant import Signedness, dequantize, quantize, signedness_of


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


def ste_mask(t, params) -> np.ndarray:
    """Straight-through gradient mask: 1 inside params.value_range, 0 in the
    clipped region."""
    lo, hi = params.value_range
    return ((t >= lo) & (t <= hi)).astype(np.float64)


def qat_matmul(model, nat_sigma=0.0, seed=0, nat_ctx=None, tape=None):
    """models._digital_matmul's quantized product through the int codes:
    quantize -> dequantize per operand, with ste_mask over each operand's
    QuantParams."""
    def matmul(a, layer, linear_index):
        a_t = quantize(a, model.x_bits, signedness_of(a))
        w_t = quantize(layer.w, model.w_bits, Signedness.TWOS_COMPLEMENT)
        aq, wq = dequantize(a_t), dequantize(w_t)
        z = aq @ wq
        gain = None
        if nat_sigma > 0:
            ctx = replace(nat_ctx or rng.RngContext(), layer=linear_index)
            gain = 1.0 + nat_sigma * rng.normal(seed, ctx, rng.TAG_NAT, z.shape)
            z = z * gain
        if tape is not None:
            tape.append((aq, wq, ste_mask(a, a_t.params),
                         ste_mask(layer.w, w_t.params), gain))
        return z
    return matmul


def reference_train(model, dataset, cfg):
    """Reference for models.train on qat_matmul: SGD over the same shuffles,
    NAT draws and closed-form backprop. Returns (model, loss_curve)."""
    x = np.asarray(dataset[0], dtype=np.float64)
    y = np.asarray(dataset[1])
    model.w_bits, model.x_bits = cfg.w_bits, cfg.x_bits
    model.nat_sigma = cfg.nat_sigma
    shuffler = np.random.Generator(np.random.Philox(np.random.SeedSequence(
        entropy=cfg.seed, spawn_key=(rng.TAG_DATA,))))
    losses = []
    step = 0
    for _ in range(cfg.epochs):
        perm = shuffler.permutation(len(x))
        epoch_loss, n_batches = 0.0, 0
        for start in range(0, len(x), cfg.batch):
            idx = perm[start:start + cfg.batch]
            ctx = rng.RngContext(sample=step) if cfg.nat_sigma > 0 else None
            tape, inputs = [], []
            logits = _walk(model, x[idx], qat_matmul(
                model, cfg.nat_sigma, cfg.seed, ctx, tape), inputs)
            loss, delta = cross_entropy(logits, y[idx])
            # backward over every layer before any update, as models.train
            updates = []
            for i in range(len(model.layers) - 1, -1, -1):
                if isinstance(model.layers[i], Relu):
                    delta = delta * (inputs[i] > 0)
                    continue
                aq, wq, a_mask, w_mask, gain = tape.pop()
                dz = delta if gain is None else delta * gain
                updates.append((model.layers[i], (aq.T @ dz) * w_mask,
                                delta.sum(axis=0)))
                delta = (dz @ wq.T) * a_mask
            for layer, dw, db in updates:
                layer.w = layer.w - cfg.lr * dw
                layer.b = layer.b - cfg.lr * db
            epoch_loss += loss
            n_batches += 1
            step += 1
        losses.append(epoch_loss / n_batches)
    return model, losses


def reference_accuracy(model, dataset) -> float:
    """Top-1 accuracy of the forward pass on qat_matmul."""
    x, y = dataset
    logits = _walk(model, x, qat_matmul(model))
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(y)))
