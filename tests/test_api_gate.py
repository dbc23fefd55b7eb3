"""Hostile input to the library API fails with a typed AcimError that names
the argument at fault, never with a bare Python or numpy error or a silent
result."""

import math
import os
import struct
import tempfile

import numpy as np
import pytest

from acimsim import (AcimError, CheckpointError, ConfigError, DataError,
                     DomainError, EngineMode, MacroConfig, NoiseSpec,
                     QuantizedTensor, QuantParams, ShapeError, Sigma,
                     Signedness, TrainConfig, TrainingError, VotingSpec,
                     csnr_measure, csnr_variance_form, decompose_bits,
                     evaluate_digital, forward_float, forward_qat,
                     group_layout, init_mlp, linearity_sweep, plan_cycles,
                     quantize, save_checkpoint, simulate_attention,
                     simulate_conv2d, simulate_matmul, train)
from acimsim.data import load_idx, make_blobs
from acimsim.errors import check_int
from acimsim.macro import adc_readout, majority_vote_readout
from acimsim.models import engine_forward
from acimsim.quant import CODE, fake_quantize
from acimsim.rng import RngContext, StreamTable, philox_keys, stream


def _train_on(x, labels):
    train(init_mlp([4, 8, 3], 0), (x, np.array(labels)),
          TrainConfig(epochs=1))


def _train_on_label_7():
    # 3 classes; a label of 7 once indexed past the softmax
    _train_on(np.zeros((6, 4)), [0, 1, 2, 0, 1, 7])


# a model of input width 4 and an input of width 5, which every forward
# pass once fed to numpy's matmul
_MLP, _WIDE = init_mlp([4, 8, 3], 0), np.ones((2, 5))
_MISSING_DIR = os.path.join(os.path.dirname(__file__), "no-such-dir")
# one macro, noise spec and mode for the engine probes
_CFG, _SPEC, _MODE = MacroConfig(8, 5), NoiseSpec(seed=1), EngineMode()


def _conv(act_shape, w_shape, bits=4):
    return simulate_conv2d(np.ones(act_shape), np.ones(w_shape), 1, 0, bits,
                           _CFG, _SPEC, _MODE)


def _attention(q_shape, k_shape, v_shape):
    return simulate_attention(np.ones(q_shape), np.ones(k_shape),
                              np.ones(v_shape), 4, _CFG, _SPEC, _MODE)


def _all_digital_matmul(layer):
    """A 4b matmul on _CFG with every shift level digital, at `layer`."""
    q = quantize(np.ones((2, 8)), 4, Signedness.TWOS_COMPLEMENT)
    levels = len(set(plan_cycles(4, 4, q.params.signedness,
                                 q.params.signedness, _MODE).entries.shift))
    return simulate_matmul(q, QuantizedTensor(q.codes.T, q.params), _CFG,
                           NoiseSpec(Sigma(0.5), seed=1),
                           EngineMode(hybrid_boundary=levels), layer=layer)


def _load_idx_bytes(raw):
    """load_idx of an IDX file holding the bytes `raw`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "hostile.idx")
        with open(path, "wb") as fh:
            fh.write(raw)
        return load_idx(path)


PROBES = {
    "init_mlp-zero-width": (lambda: init_mlp([4, 0, 3], 1), ShapeError,
                            "dims"),
    "init_mlp-negative-seed": (lambda: init_mlp([4, 8, 3], -1), DomainError,
                               "seed"),
    "train-label-out-of-range": (_train_on_label_7, DataError, "labels"),
    # a float label once raised numpy's IndexError in the loss
    "train-float-labels": (
        lambda: _train_on(np.zeros((6, 4)), [0, 1.5, 2, 0, 1, 2]), DataError,
        "labels"),
    # a short label list once indexed past its end, and a long one trained
    "train-fewer-labels-than-samples": (
        lambda: _train_on(np.zeros((6, 4)), [0, 1, 2, 0, 1]), DataError,
        "labels"),
    "train-more-labels-than-samples": (
        lambda: _train_on(np.zeros((6, 4)), [0, 1, 2, 0, 1, 2, 0]),
        DataError, "labels"),
    # labels of shape [6, 1] once trained to chance without complaint
    "train-2d-labels": (
        lambda: _train_on(np.zeros((6, 4)), [[0], [1], [2], [0], [1], [2]]),
        DataError, "labels"),
    # an empty train set once divided by its zero batches
    "train-empty-dataset": (
        lambda: _train_on(np.zeros((0, 4)), np.zeros(0, dtype=np.int64)),
        DataError, "dataset"),
    "QuantizedTensor-float-codes": (
        lambda: QuantizedTensor(np.array([0.5, 1.0]), QuantParams(
            1.0, 4, Signedness.TWOS_COMPLEMENT)), DomainError, "codes"),
    "csnr_measure-nan-ideal": (
        lambda: csnr_measure([1.0, math.nan], [1.0, 0.0]), DomainError,
        "ideal"),
    "decompose_bits-zero-bits": (lambda: decompose_bits(np.arange(4), 0),
                                 DomainError, "bits"),
    "forward_float-wrong-width": (lambda: forward_float(_MLP, _WIDE),
                                  ShapeError, "linear layer 0 takes input "
                                  "width 4, got"),
    "forward_qat-wrong-width": (lambda: forward_qat(_MLP, _WIDE), ShapeError,
                                "width 4"),
    "evaluate_digital-wrong-width": (
        lambda: evaluate_digital(_MLP, (_WIDE, [0, 1])), ShapeError,
        "width 4"),
    # 3 labels for 2 samples once raised numpy's broadcast error
    "evaluate_digital-more-labels-than-samples": (
        lambda: evaluate_digital(_MLP, (np.ones((2, 4)), [0, 1, 2])),
        DataError, "labels"),
    # a NaN operand once gave NaN terms
    # empty operands once read an infinite CSNR
    "csnr_measure-empty": (
        lambda: csnr_measure([], np.zeros((0, 2))), ShapeError,
        r"non-empty shape, got \(0,\) vs \(0, 2\)"),
    "csnr_variance_form-nan-quant_out": (
        lambda: csnr_variance_form([1.0, 2.0], [1.0, 2.0], [1.0, math.nan],
                                   [1.0, 2.0]), DomainError, "quant_out"),
    # empty operands once gave NaN terms, two RuntimeWarnings and an
    # infinite sqnr_db
    "csnr_variance_form-empty": (
        lambda: csnr_variance_form([], [], [], []), ShapeError,
        "non-empty shape"),
    # a NaN once made the tensor 2's complement, as NaN >= 0 is False
    "quantize-nan": (lambda: quantize(np.array([math.nan, 1.0]), 8),
                     DomainError, "non-finite"),
    "fake_quantize-nan": (lambda: fake_quantize(np.array([math.nan, 1.0]), 8),
                          DomainError, "non-finite"),
    # a string signedness once quantized as 2's complement under its tag
    # (quantize(t, 8, "unsigned") then read -1.0 as +1.016 in
    # simulate_matmul), and None once made a QuantParams
    **{f"{name}-{label}-signedness": (call, DomainError, message)
       for label, bad in (("string", "unsigned"), ("none", None))
       for name, call, message in (
           ("QuantParams", lambda bad=bad: QuantParams(1.0, 8, bad),
            "^signedness must be a Signedness"),
           ("group_layout", lambda bad=bad: group_layout(8, bad, 2),
            "^signedness must be a Signedness"),
           ("plan_cycles-x", lambda bad=bad: plan_cycles(
               8, 8, bad, Signedness.TWOS_COMPLEMENT, _MODE),
            "^signedness must be a Signedness"),
           ("plan_cycles-w", lambda bad=bad: plan_cycles(
               8, 8, Signedness.UNSIGNED, bad, _MODE),
            "^w_signedness must be a Signedness"))},
    "quantize-string-signedness": (
        lambda: quantize(np.ones(3), 8, "unsigned"), DomainError,
        "signedness must be a Signedness, got 'unsigned'"),
    "fake_quantize-string-signedness": (
        lambda: fake_quantize(np.ones(3), 8, "twos_complement"), DomainError,
        "signedness must be a Signedness, got 'twos_complement'"),
    "simulate_conv2d-2d-act": (lambda: _conv((2, 3), (1, 2, 1, 1)),
                               ShapeError, r"act\[C,H,W\]"),
    "simulate_conv2d-3d-weight": (lambda: _conv((2, 3, 3), (2, 1, 1)),
                                  ShapeError, r"w\[F,C,kh,kw\]"),
    "simulate_attention-3d-q": (
        lambda: _attention((2, 4, 1), (3, 4), (3, 2)), ShapeError,
        "2-D q, k, v"),
    "simulate_attention-1d-k": (lambda: _attention((2, 4), (4,), (3, 2)),
                                ShapeError, "2-D q, k, v"),
    "simulate_attention-3d-v": (
        lambda: _attention((2, 4), (3, 4), (3, 2, 1)), ShapeError,
        "2-D q, k, v"),
    # no keys once raised numpy's bare ValueError in softmax, and a head
    # width of 0 divided by sqrt(0) into a non-finite tensor naming no input
    "simulate_attention-zero-keys": (
        lambda: _attention((2, 4), (0, 4), (0, 2)), ShapeError,
        r"attention shapes \(2, 4\), \(0, 4\), \(0, 2\)"),
    "simulate_attention-zero-head-width": (
        lambda: _attention((2, 0), (3, 0), (3, 2)), ShapeError,
        r"attention shapes \(2, 0\), \(3, 0\), \(3, 2\)"),
    "engine_forward-3d-x": (
        lambda: engine_forward(_MLP, np.ones((2, 2, 4)),
                               [(_CFG, _SPEC, _MODE)]), ShapeError,
        r"x\[B, D\]"),
    # 3 stream rows for 2 samples of 2 leading rows, before any draw
    "majority_vote_readout-row-count": (
        lambda: majority_vote_readout([np.zeros((2, 3))], 2, [_SPEC], [_CFG],
                                      range(3), None), ShapeError,
        "3 stream rows for 2 samples"),
    # a NaN level once read code -2^63 with a numpy RuntimeWarning
    "adc_readout-nan": (
        lambda: adc_readout(np.array([1.0, math.nan]), _CFG), DomainError,
        "levels hold NaN"),
    # non-integer and out-of-range integer arguments (errors.check_int).
    # Each float below once ran truncated or silently (a 2-sample vote, a
    # 1-thread grid, an 8-bit conv) or ended in a bare TypeError
    "MacroConfig-float-rows": (lambda: MacroConfig(16.5, 6), ConfigError,
                               "rows must be an integer, got 16.5"),
    "MacroConfig-float-adc_bits": (lambda: MacroConfig(16, 6.5), ConfigError,
                                   "adc_bits must be an integer, got 6.5"),
    "VotingSpec-float-samples": (
        lambda: VotingSpec(2, 2.5), ConfigError,
        "voting_samples must be an integer, got 2.5"),
    "EngineMode-float-hybrid_boundary": (
        lambda: EngineMode(hybrid_boundary=1.5), ConfigError,
        "hybrid_boundary must be an integer, got 1.5"),
    "NoiseSpec-float-seed": (lambda: NoiseSpec(seed=1.5), DomainError,
                             "seed must be an integer, got 1.5"),
    "TrainConfig-float-epochs": (lambda: TrainConfig(epochs=1.5),
                                 TrainingError,
                                 "epochs must be an integer, got 1.5"),
    "engine_forward-float-threads": (
        lambda: engine_forward(_MLP, np.ones((2, 4)), [(_CFG, _SPEC, _MODE)],
                               threads=1.5), DomainError,
        "threads must be an integer, got 1.5"),
    "quantize-float-bits": (
        lambda: quantize(np.ones(3), 8.0, Signedness.TWOS_COMPLEMENT),
        DomainError, "bits must be an integer, got 8.0"),
    # 0 samples once raised ShapeError about stream rows, -1 numpy's
    # ValueError, and 2.5 a bare TypeError
    "linearity_sweep-zero-samples": (
        lambda: linearity_sweep(_CFG, _SPEC, 100, samples=0), DomainError,
        "samples must be >= 1, got 0"),
    "linearity_sweep-negative-samples": (
        lambda: linearity_sweep(_CFG, _SPEC, 100, samples=-1), DomainError,
        "samples must be >= 1, got -1"),
    "linearity_sweep-float-samples": (
        lambda: linearity_sweep(_CFG, _SPEC, 100, samples=2.5), DomainError,
        "samples must be an integer, got 2.5"),
    "simulate_conv2d-float-bits": (
        lambda: _conv((1, 3, 3), (1, 1, 1, 1), 8.5), DomainError,
        "bits must be an integer, got 8.5"),
    # a one-width tuple once failed to unpack
    "simulate_conv2d-one-width-bits": (
        lambda: _conv((1, 3, 3), (1, 1, 1, 1), (8,)), DomainError,
        r"bits must be an int or a \(w_bits, x_bits\) pair, got \(8,\)"),
    # a missing directory once raised a bare FileNotFoundError
    "save_checkpoint-missing-directory": (
        lambda: save_checkpoint(_MLP, os.path.join(_MISSING_DIR, "m.ackpt")),
        CheckpointError, "cannot write checkpoint .*no-such-dir"),
    # these once raised numpy's IndexError, ValueError and TypeError
    "make_blobs-float-samples": (lambda: make_blobs(9.5, 4, 3, 0), DataError,
                                 "samples must be an integer, got 9.5"),
    "make_blobs-negative-seed": (lambda: make_blobs(12, 4, 3, -1), DataError,
                                 "seed must be >= 0, got -1"),
    "make_blobs-float-seed": (lambda: make_blobs(12, 4, 3, 1.5), DataError,
                              "seed must be an integer, got 1.5"),
    # dims of 2^31 * 2^31 * 4 wrap to 0 in int64: this bodiless header once
    # passed the size check and escaped reshape as a bare ValueError
    "load_idx-wrapped-dims": (
        lambda: _load_idx_bytes(struct.pack(">BBBB3I", 0, 0, 0x08, 3, 2 ** 31,
                                            2 ** 31, 4)), DataError,
        "hostile.idx: IDX payload size mismatch"),
    # numpy's TypeError once named no argument
    "init_mlp-float-width": (lambda: init_mlp([4, 8.5, 3], 0), ShapeError,
                             "dims must be an integer, got 8.5"),
    # a float context field once raised TypeError blaming the seed
    "stream-float-context-layer": (
        lambda: stream(1, RngContext(layer=1.5), 0), DomainError,
        "layer must be an integer, got 1.5"),
    # a float spawn word once keyed the stream of its truncation
    "philox_keys-float-word": (lambda: philox_keys(1, [[0, 2.7]]),
                               DomainError, "spawn layer "),
    "StreamTable-float-tile": (lambda: StreamTable(1, [0], tile=0.5),
                               DomainError, "spawn tile "),
    # the matmul's stream table checks its layer, even when every shift
    # level is digital and the table holds no reads
    **{f"simulate_matmul-{label}-layer-all-digital": (
        lambda layer=layer: _all_digital_matmul(layer), DomainError,
        "spawn layer ") for label, layer in (("float", 1.5),
                                             ("negative", -1))},
}


@pytest.mark.parametrize("probe", PROBES)
def test_hostile_input_fails_typed_and_named(probe):
    call, error, name = PROBES[probe]
    assert issubclass(error, AcimError)
    with pytest.raises(error, match=name):
        call()


def test_integer_valued_float_codes_are_accepted():
    # only a non-integer dtype is checked, and whole floats pass it
    params = QuantParams(1.0, 4, Signedness.TWOS_COMPLEMENT)
    q = QuantizedTensor(np.array([-3.0, 0.0, 7.0]), params)
    assert q.codes.dtype == CODE and q.codes.tolist() == [-3, 0, 7]
    codes = np.arange(-3, 4, dtype=CODE)
    assert QuantizedTensor(codes, params).codes is codes


def test_numpy_ints_are_integers():
    cfg = MacroConfig(np.int64(16), 6)
    assert cfg == MacroConfig(16, 6) and cfg.full_scale_counts == 16
    # a numpy seed once passed NoiseSpec and failed keying its streams
    act = quantize(np.ones((2, 8)), 4, Signedness.UNSIGNED)
    w = quantize(np.ones((8, 2)), 4, Signedness.TWOS_COMPLEMENT)
    outs = [simulate_matmul(act, w, cfg, NoiseSpec(Sigma(0.5), seed=seed),
                            _MODE).output for seed in (np.int64(3), 3)]
    assert np.array_equal(*outs)


@pytest.mark.parametrize("value, low, high, message", [
    (0, 1, None, "n must be >= 1, got 0"),
    (np.int8(-1), 0, None, "n must be >= 0, got -1"),
    (17, 1, 16, "n must be in [1, 16], got 17"),
    (0, 1, 16, "n must be in [1, 16], got 0"),
    (2.0, 1, None, "n must be an integer, got 2.0"),
    (np.float64(2.0), None, None, "n must be an integer, got "),
    ("2", 1, None, "n must be an integer, got '2'"),
    (None, 1, None, "n must be an integer, got None"),
])
def test_check_int_messages(value, low, high, message):
    with pytest.raises(ShapeError) as err:
        check_int(value, "n", ShapeError, low, high)
    assert str(err.value).startswith(message)


def test_check_int_returns_a_python_int():
    for value in (5, np.int64(5), np.uint32(5)):
        got = check_int(value, "n", ShapeError, 0, 5)
        assert got == 5 and type(got) is int
    assert check_int(-3, "n", ShapeError, None) == -3
