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
from .engine import EngineMode, SimLayerResult, _simulate_points, softmax
from .errors import ShapeError, TrainingError
from .macro import MacroConfig
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
    w_bits: int = 8
    x_bits: int = 8
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
        for name, bits in (("w_bits", self.w_bits), ("x_bits", self.x_bits)):
            if not 2 <= bits <= 16:
                raise TrainingError(f"{name} must be in [2, 16], got {bits}")


def init_mlp(dims: list, seed: int) -> TinyModel:
    """He-initialized MLP with ReLU between consecutive linear layers."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    layers = []
    for i, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
        if i:
            layers.append(Relu())
        layers.append(LinearLayer(
            w=gen.normal(0.0, np.sqrt(2.0 / d_in), size=(d_in, d_out)),
            b=np.zeros(d_out)))
    return TinyModel(layers)


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


def _quantize_act(model: TinyModel, a: np.ndarray):
    """Activation codes, with signedness from the data (signedness_of)."""
    return quantize(a, model.x_bits, signedness_of(a))


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
            gain = 1.0 + nat_sigma * rng.normal(seed, ctx, rng.TAG_NAT, z.shape)
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
    loss = float(-np.mean(np.log(p[np.arange(n), labels] + 1e-300)))
    dlogits = p.copy()
    dlogits[np.arange(n), labels] -= 1.0
    return loss, dlogits / n


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
            delta = delta * (inputs[i] > 0)
            continue
        aq, wq, a_mask, w_mask, gain = tape.pop()
        db = delta.sum(axis=0)
        dz = delta if gain is None else delta * gain
        dw = aq.T @ dz
        da = dz @ wq.T
        if quantized:
            dw = dw * w_mask
            da = da * a_mask
        grads[i] = (dw, db)
        delta = da
    return loss, grads


def train(model: TinyModel, dataset, cfg: TrainConfig):
    """Plain SGD; deterministic given cfg.seed. Returns (model, loss_curve)."""
    x, y = dataset
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    model.w_bits, model.x_bits = cfg.w_bits, cfg.x_bits
    model.nat_sigma = cfg.nat_sigma
    shuffler = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(rng.TAG_DATA,))))
    losses = []
    step = 0
    for epoch in range(cfg.epochs):
        perm = shuffler.permutation(len(x))
        epoch_loss = 0.0
        n_batches = 0
        for start in range(0, len(x), cfg.batch):
            idx = perm[start:start + cfg.batch]
            nat_ctx = rng.RngContext(sample=step) if cfg.nat_sigma > 0 else None
            loss, grads = loss_and_grads(model, x[idx], y[idx], cfg,
                                         quantized=True, nat_ctx=nat_ctx)
            if not np.isfinite(loss):
                raise TrainingError(f"loss diverged at epoch {epoch}")
            for layer, grad in zip(model.layers, grads):
                if grad is None:
                    continue
                dw, db = grad
                layer.w = layer.w - cfg.lr * dw
                layer.b = layer.b - cfg.lr * db
            epoch_loss += loss
            n_batches += 1
            step += 1
        losses.append(epoch_loss / n_batches)
    return model, losses


def evaluate_digital(model: TinyModel, dataset) -> float:
    """Top-1 accuracy of the fake-quantized (digital) forward pass."""
    x, y = dataset
    logits = forward_qat(model, x)
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(y)))


def engine_forward(model: TinyModel, x, cfg, spec, mode: EngineMode):
    """Run every linear layer on the simulation engine.

    ReLU and bias stay in floating point; activations are re-quantized before
    each layer with quant.signedness_of (post-ReLU tensors are unsigned).
    Returns (logits, total_cycles, analog_ratio) of the whole network, the
    layers composed as SimLayerResult.compose does.

    `cfg` and `spec` may instead be equal-length lists, the points of one
    plan class: macros that share rows and enc_bits, noise specs that share
    a seed. The class walks the layers in lockstep, with a leading points
    axis on the activations past x[B, D], which every point reads. Each
    linear layer is one engine._simulate_points call, split only between
    points whose inputs quantize with different signedness. Returns one
    tuple per point, each equal to running that point alone.
    """
    if np.ndim(x) != 2:
        raise ShapeError(f"engine_forward expects x[B, D], got {np.shape(x)}")
    single = isinstance(cfg, MacroConfig)
    cfgs, specs = ([cfg], [spec]) if single else (list(cfg), list(spec))
    nets = [SimLayerResult(None, 0, 0, 0, 0) for _ in cfgs]

    def matmul(a, layer, linear_index):
        w_q = quantize(layer.w, model.w_bits, Signedness.TWOS_COMPLEMENT)
        if a.ndim == 2:   # one input for every point
            runs = [(_quantize_act(model, a), range(len(cfgs)))]
        else:
            acts = [_quantize_act(model, a_p) for a_p in a]
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
                nets[p] = SimLayerResult.compose([nets[p], res], None)
        return out

    logits = _walk(model, x, matmul)
    if not model.linear_layers():   # x passed through, shared
        logits = [logits] * len(cfgs)
    results = [(z, net.total_cycles, net.analog_ratio)
               for z, net in zip(logits, nets)]
    return results[0] if single else results

