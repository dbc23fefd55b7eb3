"""Hostile input to the library API fails with a typed AcimError that names
the argument at fault, never with a bare Python or numpy error or a silent
result."""

import math

import numpy as np
import pytest

from acimsim import (AcimError, DataError, DomainError, QuantizedTensor,
                     QuantParams, ShapeError, Signedness, TrainConfig,
                     csnr_measure, decompose_bits, init_mlp, train)


def _train_on(x, labels):
    train(init_mlp([4, 8, 3], 0), (x, np.array(labels)),
          TrainConfig(epochs=1))


def _train_on_label_7():
    # 3 classes; a label of 7 once indexed past the softmax
    _train_on(np.zeros((6, 4)), [0, 1, 2, 0, 1, 7])


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
    assert q.codes.dtype == np.int64 and q.codes.tolist() == [-3, 0, 7]
    codes = np.arange(-3, 4)
    assert QuantizedTensor(codes, params).codes is codes
