"""Trainer tests: forward variants, gradients, SGD loop, engine evaluation."""

import dataclasses
import os

import numpy as np
import pytest

from acimsim.cli import BUILTIN_HIDDEN, _dataset, _train_model
from acimsim.config import load_config
from acimsim.data import make_blobs
from acimsim.engine import EngineMode, SimLayerResult, plan_cycles
from acimsim.errors import TrainingError
from acimsim.macro import NOISELESS, MacroConfig, NoiseSpec, NoiseUnit, Sigma
from acimsim.models import (LinearLayer, Relu, TinyModel, TrainConfig,
                            cross_entropy, evaluate_digital, engine_forward,
                            forward_float, forward_qat, init_mlp,
                            loss_and_grads, train)
from acimsim.quant import QuantParams, Signedness, dequantize, quantize
from acimsim.rng import RngContext

from oracles import (evaluate_on_engine, forward_nat, reference_accuracy,
                     reference_train, ste_mask)

SERIAL = EngineMode()


def lsb(value):
    return Sigma(value, NoiseUnit.LSB_RMS)


def small_blobs(classes=3, spread=0.3, samples=120, features=6, seed=7):
    return make_blobs(samples, features, classes, seed=seed, spread=spread)


# ------------------------------------------------------------------ structure

def test_init_mlp_structure():
    m = init_mlp([4, 8, 3], seed=0)
    kinds = [type(l).__name__ for l in m.layers]
    assert kinds == ["LinearLayer", "Relu", "LinearLayer"]
    assert m.layers[0].w.shape == (4, 8)
    assert m.layers[2].w.shape == (8, 3)
    assert not m.layers[0].b.any()
    assert len(m.linear_layers()) == 2


def test_init_mlp_deterministic():
    a = init_mlp([4, 8, 3], seed=5)
    b = init_mlp([4, 8, 3], seed=5)
    assert np.array_equal(a.layers[0].w, b.layers[0].w)
    c = init_mlp([4, 8, 3], seed=6)
    assert not np.array_equal(a.layers[0].w, c.layers[0].w)


def test_train_config_validation():
    with pytest.raises(TrainingError):
        TrainConfig(lr=0.0)
    with pytest.raises(TrainingError):
        TrainConfig(lr=-0.1)
    with pytest.raises(TrainingError):
        TrainConfig(epochs=0)
    with pytest.raises(TrainingError):
        TrainConfig(nat_sigma=-0.5)
    # NaN passes every `< 0` test; a batch below 1 leaves SGD no step to take
    for kw in ({"lr": float("nan")}, {"lr": float("inf")},
               {"batch": 0}, {"batch": -4},
               {"nat_sigma": float("nan")}, {"nat_sigma": float("inf")}):
        with pytest.raises(TrainingError, match=next(iter(kw))):
            TrainConfig(**kw)


# ------------------------------------------------------------- forward passes

def test_forward_float_matches_manual():
    m = init_mlp([3, 4, 2], seed=1)
    x = np.random.default_rng(0).normal(size=(5, 3))
    z1 = x @ m.layers[0].w + m.layers[0].b
    want = np.maximum(z1, 0) @ m.layers[2].w + m.layers[2].b
    assert np.allclose(forward_float(m, x), want)


def test_forward_qat_high_bits_close_to_float():
    m = init_mlp([6, 8, 3], seed=2)
    m.w_bits = m.x_bits = 16
    x = np.random.default_rng(1).uniform(-1, 1, size=(10, 6))
    got = forward_qat(m, x)
    assert np.max(np.abs(got - forward_float(m, x))) < 1e-3


def test_forward_qat_zero_input():
    m = init_mlp([4, 5, 2], seed=3)
    out = forward_qat(m, np.zeros((2, 4)))
    assert np.array_equal(out, np.tile(m.layers[2].b, (2, 1)))


def test_forward_qat_equals_fake_quant_composition():
    m = init_mlp([4, 6, 2], seed=4)
    m.w_bits = m.x_bits = 4
    x = np.random.default_rng(2).normal(size=(3, 4))
    a = dequantize(quantize(x, 4, Signedness.TWOS_COMPLEMENT))
    w0 = dequantize(quantize(m.layers[0].w, 4, Signedness.TWOS_COMPLEMENT))
    h = np.maximum(a @ w0 + m.layers[0].b, 0.0)
    aq = dequantize(quantize(h, 4, Signedness.UNSIGNED))
    w1 = dequantize(quantize(m.layers[2].w, 4, Signedness.TWOS_COMPLEMENT))
    want = aq @ w1 + m.layers[2].b
    assert np.allclose(forward_qat(m, x), want)


def test_forward_nat_zero_sigma_identical():
    m = init_mlp([5, 7, 3], seed=5)
    x = np.random.default_rng(3).normal(size=(4, 5))
    cfg = TrainConfig(nat_sigma=0.0)
    assert np.array_equal(forward_nat(m, x, cfg, RngContext()),
                          forward_qat(m, x))


def test_forward_nat_noise_statistics():
    # a single unit-output layer exposes the multiplicative noise directly
    n = 10_000
    m = TinyModel([LinearLayer(w=np.ones((1, n)), b=np.zeros(n))])
    cfg = TrainConfig(nat_sigma=0.5, seed=9)
    out = forward_nat(m, np.ones((1, 1)), cfg, RngContext(sample=0))
    assert abs(out.mean() - 1.0) < 0.025
    assert abs(out.std() - 0.5) < 0.025


def test_forward_nat_resamples_per_sample_index():
    m = init_mlp([4, 6, 2], seed=6)
    x = np.random.default_rng(4).normal(size=(3, 4))
    cfg = TrainConfig(nat_sigma=0.5, seed=1)
    a = forward_nat(m, x, cfg, RngContext(sample=0))
    b = forward_nat(m, x, cfg, RngContext(sample=0))
    c = forward_nat(m, x, cfg, RngContext(sample=1))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_cross_entropy_uniform_logits():
    loss, dlogits = cross_entropy(np.zeros((1, 2)), np.array([0]))
    assert loss == pytest.approx(np.log(2))
    assert np.allclose(dlogits, [[-0.5, 0.5]])


# -------------------------------------------------------------------- gradients

def test_gradients_match_finite_differences():
    m = init_mlp([3, 4, 2], seed=7)
    gen = np.random.default_rng(5)
    x = gen.normal(size=(5, 3))
    labels = gen.integers(0, 2, size=5)
    cfg = TrainConfig()
    _, grads = loss_and_grads(m, x, labels, cfg, quantized=False)
    eps = 1e-6
    for li, layer in enumerate(m.layers):
        if not isinstance(layer, LinearLayer):
            continue
        dw, db = grads[li]
        for arr, grad in ((layer.w, dw), (layer.b, db)):
            num = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + eps
                lp, _ = loss_and_grads(m, x, labels, cfg, quantized=False)
                arr[ix] = orig - eps
                lm, _ = loss_and_grads(m, x, labels, cfg, quantized=False)
                arr[ix] = orig
                num[ix] = (lp - lm) / (2 * eps)
            rel = np.linalg.norm(grad - num) / max(np.linalg.norm(num), 1e-12)
            assert rel < 1e-5


def test_ste_mask_clips_outside_range():
    p = QuantParams(0.5, 4, Signedness.TWOS_COMPLEMENT)  # range [-4, 3.5]
    t = np.array([-5.0, -4.0, 0.0, 3.5, 3.6])
    assert np.array_equal(ste_mask(t, p), [0, 1, 1, 1, 0])
    pu = QuantParams(1.0, 4, Signedness.UNSIGNED)  # range [0, 15]
    assert np.array_equal(ste_mask(np.array([-0.1, 0.0, 15.0, 15.1]), pu),
                          [0, 1, 1, 0])


def test_quantized_gradients_finite_and_shaped():
    m = init_mlp([4, 6, 3], seed=8)
    gen = np.random.default_rng(6)
    x = gen.normal(size=(8, 4))
    labels = gen.integers(0, 3, size=8)
    loss, grads = loss_and_grads(m, x, labels, TrainConfig(), quantized=True)
    assert np.isfinite(loss)
    for li, layer in enumerate(m.layers):
        if isinstance(layer, LinearLayer):
            dw, db = grads[li]
            assert dw.shape == layer.w.shape and db.shape == layer.b.shape
            assert np.all(np.isfinite(dw)) and np.all(np.isfinite(db))


# ------------------------------------------------------------------- training

def test_train_separable_blobs():
    data = small_blobs(classes=2, spread=0.2)
    cfg = TrainConfig(lr=0.1, epochs=50, batch=16, seed=3)
    model, losses = train(init_mlp([6, 8, 2], seed=0), data, cfg)
    assert evaluate_digital(model, data) >= 0.95
    assert losses[-1] < losses[0]
    assert len(losses) == 50


def test_train_deterministic():
    data = small_blobs()
    cfg = TrainConfig(epochs=5, seed=11)
    m1, l1 = train(init_mlp([6, 8, 3], seed=1), data, cfg)
    m2, l2 = train(init_mlp([6, 8, 3], seed=1), data, cfg)
    assert l1 == l2
    for a, b in zip(m1.linear_layers(), m2.linear_layers()):
        assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)


def test_train_records_quant_metadata():
    # training keeps the widths the model was built at
    data = small_blobs()
    cfg = TrainConfig(epochs=1, nat_sigma=0.25)
    model, _ = train(init_mlp([6, 8, 3], seed=2, w_bits=6, x_bits=5), data,
                     cfg)
    assert (model.w_bits, model.x_bits, model.nat_sigma) == (6, 5, 0.25)


def test_train_divergence_raises():
    data = small_blobs()
    cfg = TrainConfig(lr=1e200, epochs=5, seed=0)
    # overflow to inf/nan is the scenario under test
    with np.errstate(all="ignore"), pytest.raises(TrainingError, match="epoch"):
        train(init_mlp([6, 8, 3], seed=3), data, cfg)


def _sweep_config(bits=8, **train):
    """configs/sweep.ini with `bits` as both [quant] widths."""
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..",
                                   "configs", "sweep.ini"))
    cfg.w_bits = cfg.x_bits = bits
    cfg.train = dataclasses.replace(cfg.train, **train)
    return cfg


@pytest.mark.parametrize("train_kw", [
    {},                                  # configs/sweep.ini's blob-mlp
    {"epochs": 6, "nat_sigma": 0.3},
    {"epochs": 6, "bits": 2},
    {"epochs": 6, "bits": 16},
], ids=["sweep", "nat", "bits2", "bits16"])
def test_train_bytes_equal_int_path_oracle(train_kw):
    # training fake-quantizes through quant.fake_quantize; the oracle goes
    # through the int codes of quantize -> dequantize
    cfg = _sweep_config(**train_kw)
    train_set, test_set = _dataset(cfg)
    model, losses = _train_model(cfg, train_set, test_set)
    ref, ref_losses = reference_train(
        init_mlp([train_set[0].shape[1], BUILTIN_HIDDEN, cfg.data.classes],
                 cfg.train.seed, cfg.w_bits, cfg.x_bits), train_set,
        cfg.train)
    for got, want in zip(model.linear_layers(), ref.linear_layers()):
        assert got.w.tobytes() == want.w.tobytes()
        assert got.b.tobytes() == want.b.tobytes()
    assert np.array(losses).tobytes() == np.array(ref_losses).tobytes()
    assert model.baseline_acc == reference_accuracy(ref, test_set)


# ---------------------------------------------------------- engine evaluation

def trained_model():
    data = small_blobs()
    model, _ = train(init_mlp([6, 16, 3], seed=0), data,
                     TrainConfig(epochs=20, seed=3))
    return model, data


def test_engine_eval_matches_digital_noiseless():
    model, data = trained_model()
    macro = MacroConfig.at_boundary(256)
    digital = evaluate_digital(model, data)
    engine = evaluate_on_engine(model, data, macro, NOISELESS, SERIAL)
    assert abs(engine - digital) <= 0.01
    # lossless ADC, no noise: the engine walk reproduces the QAT logits
    (logits, _), = engine_forward(model, data[0], [macro], [NOISELESS],
                                  SERIAL)
    assert np.allclose(logits, forward_qat(model, data[0]),
                       rtol=1e-9, atol=1e-12)


def test_engine_eval_full_digital_hybrid_ignores_noise():
    model, data = trained_model()
    levels = len(set(plan_cycles(
        8, 8, Signedness.UNSIGNED, Signedness.TWOS_COMPLEMENT, SERIAL
    ).entries.shift))
    mode = EngineMode(hybrid_boundary=levels)
    cfg = MacroConfig(256, 4)  # deliberately coarse ADC, never used digitally
    noisy = NoiseSpec(random_sigma=lsb(2.0), seed=5)
    acc_noisy = evaluate_on_engine(model, data, cfg, noisy, mode)
    acc_clean = evaluate_on_engine(model, data, cfg, NOISELESS, mode)
    assert acc_noisy == acc_clean


def test_engine_forward_reports_cycles():
    model, data = trained_model()
    (logits, layers), = engine_forward(model, data[0][:4],
                                       [MacroConfig.at_boundary(256)],
                                       [NOISELESS], SERIAL)
    assert logits.shape == (4, 3)
    # two single-tile 8b/8b layers, their outputs not kept
    assert [(l.tiles, l.total_cycles) for l in layers] == [(1, 64)] * 2
    assert all(l.output is None for l in layers)
    net = SimLayerResult.compose(layers, logits)
    assert net.total_cycles == 2 * 64 and net.analog_ratio == 1.0


def test_engine_forward_reports_network_ratio():
    # at y=2 with hybrid L=2 the signed input layer and the unsigned
    # post-ReLU layer get different plans; the network ratio weights each
    # layer by its cycles
    model = init_mlp([6, 16, 3], seed=0)
    x = np.random.default_rng(4).normal(size=(8, 6))
    mode = EngineMode(enc_bits=2, hybrid_boundary=2)
    (logits, layers), = engine_forward(
        model, x, [MacroConfig.at_boundary(256, 2)], [NOISELESS], mode)
    net = SimLayerResult.compose(layers, logits)
    cycles, ratio = net.total_cycles, net.analog_ratio
    plans = [plan_cycles(8, 8, s, Signedness.TWOS_COMPLEMENT, mode)
             for s in (Signedness.TWOS_COMPLEMENT, Signedness.UNSIGNED)]
    analog = sum(int(p.entries.analog.sum()) for p in plans)
    total = sum(p.cycles_per_tile for p in plans)
    assert plans[0].entries.analog.mean() != plans[1].entries.analog.mean()
    assert cycles == total
    assert ratio == pytest.approx(analog / total, rel=1e-12)
