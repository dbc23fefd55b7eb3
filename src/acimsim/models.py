"""Tiny MLP with closed-form backprop, QAT (straight-through) and NAT.

Every forward pass walks the layers in one place, _walk; the float, QAT, NAT
and engine passes differ only in how a linear layer's product is computed.
The trainer never differentiates through the simulation engine; noise-aware
training uses the multiplicative surrogate O * (1 + eta) on each matmul output
and quantization uses the straight-through estimator.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import rng
from .engine import EngineMode, _simulate_points, softmax
from .errors import DataError, DomainError, ShapeError, TrainingError
from .quant import Signedness, fake_quantize, quantize, signedness_of


@dataclass
class LinearLayer:
    w: np.ndarray   # [in, out], matching the engine's stationary layout
    b: np.ndarray   # [out]


class Relu:
    def __repr__(self):
        return "Relu()"


@dataclass
class TinyModel:
    layers: list
    w_bits: int = 8
    x_bits: int = 8
    nat_sigma: float = 0.0
    baseline_acc: Optional[float] = None

    def linear_layers(self) -> list:
        return [l for l in self.layers if isinstance(l, LinearLayer)]


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.05
    epochs: int = 40
    batch: int = 32
    seed: int = 0
    nat_sigma: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise TrainingError(f"lr must be finite and > 0, got {self.lr}")
        if self.epochs < 1:
            raise TrainingError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch < 1:
            raise TrainingError(f"batch must be >= 1, got {self.batch}")
        if not (math.isfinite(self.nat_sigma) and self.nat_sigma >= 0):
            raise TrainingError(f"nat_sigma must be finite and >= 0, got "
                                f"{self.nat_sigma}")
        if self.seed < 0:
            raise TrainingError(f"seed must be >= 0, got {self.seed}")


def init_mlp(dims: list, seed: int, w_bits: int = 8,
             x_bits: int = 8) -> TinyModel:
    """He-initialized MLP at the given widths, ReLU between linear layers."""
    if any(d < 1 for d in dims):
        raise ShapeError(f"dims must all be >= 1, got {list(dims)}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    layers = []
    for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
        if i:
            layers.append(Relu())
        layers.append(LinearLayer(
            w=gen.normal(0.0, np.sqrt(2.0 / d_in), size=(d_in, d_out)),
            b=np.zeros(d_out)))
    return TinyModel(layers, w_bits, x_bits)


def _walk(model: TinyModel, x, matmul, inputs: Optional[list] = None):
    """Run model.layers on x; the one layer loop of every forward pass.

    ReLU and bias stay in float64 and broadcast over any leading axes of the
    activations. Each linear layer's product comes from matmul(a, layer,
    linear_index), with linear layers numbered from 0. Returns the output;
    `inputs`, when given, collects the input of every layer (the backward
    pass reads its ReLU masks from them).
    """
    a = np.asarray(x, dtype=np.float64)
    linear_index = 0
    for layer in model.layers:
        if inputs is not None:
            inputs.append(a)
        if isinstance(layer, Relu):
            a = np.maximum(a, 0.0)
        else:
            a = matmul(a, layer, linear_index)
            a += layer.b   # every matmul returns a new array
            linear_index += 1
    return a


def _digital_matmul(model: TinyModel, quantized: bool, nat_sigma: float = 0.0,
                    seed: int = 0, nat_ctx: Optional[rng.RngContext] = None,
                    tape: Optional[list] = None):
    """A _walk matmul: the float or fake-quantized product, times the NAT
    gain 1 + nat_sigma * eta when nat_sigma > 0. `tape`, when given, collects
    (aq, wq, a_mask, w_mask, gain) per linear layer for the backward pass.
    """
    def matmul(a, layer, linear_index):
        aq, wq, a_mask, w_mask = a, layer.w, None, None
        if quantized:
            aq, a_mask = fake_quantize(a, model.x_bits, signedness_of(a))
            wq, w_mask = fake_quantize(layer.w, model.w_bits,
                                       Signedness.TWOS_COMPLEMENT)
        z = aq @ wq
        gain = None
        if nat_sigma > 0:
            ctx = replace(nat_ctx or rng.RngContext(), layer=linear_index)
            gain = 1.0 + nat_sigma * rng.stream(seed, ctx, rng.TAG_NAT) \
                .standard_normal(z.shape)
            z = z * gain
        if tape is not None:
            tape.append((aq, wq, a_mask, w_mask, gain))
        return z
    return matmul


def forward_float(model: TinyModel, batch) -> np.ndarray:
    """Plain floating-point forward pass (the ideal reference output)."""
    return _walk(model, batch, lambda a, layer, _: a @ layer.w)


def forward_qat(model: TinyModel, batch) -> np.ndarray:
    """Forward pass with fake-quantized weights and activations."""
    return _walk(model, batch, _digital_matmul(model, quantized=True))


def cross_entropy(logits: np.ndarray, labels: np.ndarray):
    p = softmax(logits, axis=1)
    n = logits.shape[0]
    picked = (np.arange(n), labels)
    loss = -float(np.log(p[picked] + 1e-300).sum()) / n   # np.mean's sum / n
    p[picked] -= 1.0
    p /= n
    return loss, p


def loss_and_grads(model: TinyModel, x, labels, cfg: TrainConfig,
                   quantized: bool = True,
                   nat_ctx: Optional[rng.RngContext] = None):
    """Cross-entropy loss and closed-form gradients for every linear layer.

    Quantizer gradients use the straight-through estimator: unit passthrough
    inside the representable range, zero in the clipped region. Returns
    (loss, grads) with grads[i] = (dw, db) aligned to model.layers.
    """
    sigma = cfg.nat_sigma if nat_ctx is not None else 0.0
    tape, inputs = [], []
    logits = _walk(model, x, _digital_matmul(
        model, quantized, sigma, cfg.seed, nat_ctx, tape), inputs)
    loss, delta = cross_entropy(logits, np.asarray(labels))
    grads = [None] * len(model.layers)
    for i in range(len(model.layers) - 1, -1, -1):
        if isinstance(model.layers[i], Relu):
            delta *= inputs[i] > 0   # delta is this pass's own array
            continue
        aq, wq, a_mask, w_mask, gain = tape.pop()
        db = delta.sum(axis=0)
        dz = delta if gain is None else delta * gain
        dw = aq.T @ dz
        if quantized:
            dw *= w_mask
        grads[i] = (dw, db)
        if not tape:   # the first linear layer: its input needs no gradient
            break
        delta = dz @ wq.T
        if quantized:
            delta *= a_mask
    return loss, grads


def train(model: TinyModel, dataset, cfg: TrainConfig):
    """Plain SGD at the model's widths; deterministic given cfg.seed.
    Returns (model, loss_curve)."""
    x, y = dataset
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    if not len(x):
        raise DataError("dataset is empty: no training samples")
    if not np.issubdtype(y.dtype, np.integer):
        raise DataError(f"dataset labels must be integers, got {y.dtype}")
    classes = ([x] + [l.w for l in model.linear_layers()])[-1].shape[1]
    if np.any((y < 0) | (y >= classes)):   # the logits' width
        raise DataError(f"dataset labels must lie in [0, {classes})")
    model.nat_sigma = cfg.nat_sigma
    shuffler = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(rng.TAG_DATA,))))
    losses = []
    step = 0
    starts = range(0, len(x), cfg.batch)
    for epoch in range(cfg.epochs):
        perm = shuffler.permutation(len(x))
        epoch_loss = 0.0
        for start in starts:
            idx = perm[start:start + cfg.batch]
            nat_ctx = rng.RngContext(sample=step) if cfg.nat_sigma > 0 else None
            loss, grads = loss_and_grads(model, x[idx], y[idx], cfg,
                                         quantized=True, nat_ctx=nat_ctx)
            if not np.isfinite(loss):
                raise TrainingError(f"loss diverged at epoch {epoch}")
            for layer, (dw, db) in zip(model.linear_layers(),
                                       [g for g in grads if g is not None]):
                layer.w = layer.w - cfg.lr * dw
                layer.b = layer.b - cfg.lr * db
            epoch_loss += loss
            step += 1
        losses.append(epoch_loss / len(starts))
    return model, losses


def evaluate_digital(model: TinyModel, dataset) -> float:
    """Top-1 accuracy of the fake-quantized (digital) forward pass."""
    x, y = dataset
    logits = forward_qat(model, x)
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(y)))


def engine_forward(model: TinyModel, x, cfgs: list, specs: list,
                   mode: EngineMode) -> list:
    """Run every linear layer on the simulation engine, for each point.

    Point p is the macro cfgs[p] with the noise specs[p], of one plan class:
    rows, enc_bits and seed are shared. ReLU and bias stay in floating point;
    each layer re-quantizes its input with quant.signedness_of. The points
    walk the layers in lockstep, one engine._simulate_points call per layer,
    split only between inputs of different signedness. Returns one (logits,
    layers) per point, equal to that point run alone; `layers` holds each
    linear layer's SimLayerResult, output None (it fed the next layer).
    """
    if np.ndim(x) != 2:
        raise ShapeError(f"engine_forward expects x[B, D], got {np.shape(x)}")
    layers = [[] for _ in cfgs]

    def matmul(a, layer, linear_index):
        w_q = quantize(layer.w, model.w_bits, Signedness.TWOS_COMPLEMENT)
        if a.ndim == 2:   # one input for every point
            runs = [([quantize(a, model.x_bits, signedness_of(a))],
                     range(len(cfgs)))]
        else:
            acts = [quantize(a_p, model.x_bits, signedness_of(a_p))
                    for a_p in a]
            by_sign = {}
            for p, act in enumerate(acts):
                by_sign.setdefault(act.params.signedness, []).append(p)
            runs = [([acts[p] for p in idx], idx) for idx in by_sign.values()]
        out = np.empty((len(cfgs), a.shape[-2], layer.w.shape[1]))
        for act, idx in runs:
            results = _simulate_points(act, w_q, [cfgs[p] for p in idx],
                                       [specs[p] for p in idx], mode,
                                       linear_index, out=[out[p] for p in idx])
            for p, res in zip(idx, results):
                layers[p].append(replace(res, output=None))
        return out

    logits = _walk(model, x, matmul)
    if not model.linear_layers():   # x passed through, shared
        logits = [logits] * len(cfgs)
    return list(zip(logits, layers))
