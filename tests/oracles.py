"""Reference computations that tests check the library against."""

import struct
from dataclasses import replace

import numpy as np

from acimsim import rng
from acimsim.macro import sigma_to_counts
from acimsim.models import (Relu, _digital_matmul, _walk, cross_entropy,
                            engine_forward)
from acimsim.quant import (QuantParams, Signedness, dequantize, quantize,
                           signedness_of)


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


def sign_floor_round(x):
    """Round half away from zero as sign(x) * floor(|x| + 0.5), the formula
    tensor.round_half_away replaced; it gives +0.0 for x = -0.0."""
    x = np.asarray(x)
    return np.sign(x) * np.floor(np.abs(x) + 0.5)


# Frozen copies of the macro's noise, ADC and vote arithmetic as they were
# while every level was read out one entry at a time, each noise model
# drawing from its own rng.stream. The library's block readout must give
# their bytes, so they never follow a change to `acimsim.macro`.

def pinned_adc(v, cfg):
    delta = cfg.lsb_counts
    code = np.clip(sign_floor_round(np.asarray(v, dtype=np.float64) / delta),
                   0, (1 << cfg.adc_bits) - 1).astype(np.int64)
    return code, code * delta


def pinned_random(v, spec, cfg, ctx):
    sigma = sigma_to_counts(spec.random_sigma, cfg)
    v = np.asarray(v, dtype=np.float64)
    if sigma == 0:
        return v
    return v + sigma * rng.stream(spec.seed, ctx, rng.TAG_RANDOM) \
        .standard_normal(v.shape)


def pinned_nonlin(v, spec, cfg, ctx):
    sigma = sigma_to_counts(spec.nonlin_sigma, cfg)
    v = np.asarray(v, dtype=np.float64)
    if sigma == 0:
        return v
    n_fs = cfg.full_scale_counts
    local = sigma * np.sqrt(np.maximum(0.0, n_fs - v) / n_fs)
    return v + local * rng.stream(spec.seed, ctx, rng.TAG_NONLIN) \
        .standard_normal(v.shape)


def pinned_vote(v, samples, spec, cfg, ctx):
    total = None
    for s in range(samples):
        ctx_s = replace(ctx, sample=ctx.sample + s)
        noisy = pinned_nonlin(pinned_random(v, spec, cfg, ctx_s), spec, cfg,
                              ctx_s)
        code, _ = pinned_adc(noisy, cfg)
        total = code if total is None else total + code
    mean = total / samples
    return sign_floor_round(mean).astype(np.int64), mean * cfg.lsb_counts


def linearity_per_level(cfg, spec, trials, levels, samples=1):
    """metrics.linearity_sweep as a loop over levels and samples on the
    pinned formulas: sample s of level v is `trials` readouts drawn from
    RngContext(column=level, sample=s), handed to the level hook after the
    noise, and a vote totals the samples' codes. Returns (mean, sigma) in
    LSB units."""
    mean, sigma = [], []
    for v in levels:
        total = 0
        for s in range(samples):
            ctx = rng.RngContext(column=int(v), sample=s)
            noisy = pinned_nonlin(pinned_random(
                np.full(trials, v, dtype=np.float64), spec, cfg, ctx),
                spec, cfg, ctx)
            if spec.level_hook is not None:
                noisy = spec.level_hook(np.array(noisy), ctx)
            total = total + pinned_adc(noisy, cfg)[0]
        est = total / samples
        if samples > 1:   # the vote in counts, as the engine forms it
            est = (est * cfg.lsb_counts) / cfg.lsb_counts
        mean.append(est.mean())
        sigma.append(est.std())
    return np.array(mean), np.array(sigma)


def total_mass(hist) -> int:
    """The number of levels a MacHistogram counted, over all its keys."""
    return int(sum(int(c.sum()) for c in hist.counts.values()))


def evaluate_on_engine(model, dataset, cfg, spec, mode) -> float:
    """Top-1 accuracy with all linear layers executed by the engine."""
    x, y = dataset
    (logits, _), = engine_forward(model, x, [cfg], [spec], mode)
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(y)))


def clamped_codes(t, bits, signedness):
    """(scale, float codes) of quant._calibrated_codes as it was with its
    clamp: sign_floor_round(t / scale) clamped to [-code_max, code_max], or
    [0, code_max] for unsigned codes."""
    t = np.asarray(t, dtype=np.float64)
    code_max = QuantParams(1.0, bits, signedness).code_max
    peak = float(np.abs(t).max()) if t.size else 0.0
    scale = peak / code_max if peak > 0 else 1.0
    low = 0 if signedness is Signedness.UNSIGNED else -code_max
    return scale, np.clip(sign_floor_round(t / scale), low, code_max)


def ste_mask(t, params) -> np.ndarray:
    """Straight-through gradient mask: 1 inside the representable value
    interval [code_min * scale, code_max * scale], 0 in the clipped region."""
    lo, hi = params.code_min * params.scale, params.code_max * params.scale
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
            gain = 1.0 + nat_sigma * rng.stream(seed, ctx, rng.TAG_NAT) \
                .standard_normal(z.shape)
            z = z * gain
        if tape is not None:
            tape.append((aq, wq, ste_mask(a, a_t.params),
                         ste_mask(layer.w, w_t.params), gain))
        return z
    return matmul


def reference_train(model, dataset, cfg):
    """Reference for models.train on qat_matmul: SGD over the same shuffles,
    NAT draws and closed-form backprop, at the model's widths. Returns
    (model, loss_curve)."""
    x = np.asarray(dataset[0], dtype=np.float64)
    y = np.asarray(dataset[1])
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
