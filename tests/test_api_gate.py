"""Hostile input to the library API fails with a typed AcimError that names
the argument at fault, never with a bare Python or numpy error or a silent
result."""

import math
import os

import numpy as np
import pytest

from acimsim import (AcimError, CheckpointError, DataError, DomainError,
                     EngineMode, MacroConfig, NoiseSpec, QuantizedTensor,
                     QuantParams, ShapeError, Signedness, TrainConfig,
                     csnr_measure, csnr_variance_form, decompose_bits,
                     evaluate_digital, forward_float, forward_qat, init_mlp,
                     save_checkpoint, signedness_of, simulate_attention,
                     simulate_conv2d, train)
from acimsim.macro import adc_readout, majority_vote_readout
from acimsim.models import engine_forward
from acimsim.quant import CODE


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


def _conv(act_shape, w_shape):
    return simulate_conv2d(np.ones(act_shape), np.ones(w_shape), 1, 0, 4,
                           _CFG, _SPEC, _MODE)


def _attention(q_shape, k_shape, v_shape):
    return simulate_attention(np.ones(q_shape), np.ones(k_shape),
                              np.ones(v_shape), 4, _CFG, _SPEC, _MODE)

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
    "csnr_variance_form-nan-quant_out": (
        lambda: csnr_variance_form([1.0, 2.0], [1.0, 2.0], [1.0, math.nan],
                                   [1.0, 2.0]), DomainError, "quant_out"),
    # a NaN once made the tensor 2's complement, as NaN >= 0 is False
    "signedness_of-nan": (
        lambda: signedness_of(np.array([math.nan, 1.0])), DomainError,
        "NaN"),
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
    # a missing directory once raised a bare FileNotFoundError
    "save_checkpoint-missing-directory": (
        lambda: save_checkpoint(_MLP, os.path.join(_MISSING_DIR, "m.ackpt")),
        CheckpointError, "cannot write checkpoint .*no-such-dir"),
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
