"""Quantizer, bit-plane and activation-group tests."""

import numpy as np
import pytest

from acimsim.errors import DomainError
from acimsim.quant import (QuantParams, QuantizedTensor, Signedness,
                           bit_sparsity, decompose_bits, dequantize,
                           encode_activation_groups, group_layout, quantize)

from oracles import recompose_bits, reconstruct_groups

U = Signedness.UNSIGNED
TC = Signedness.TWOS_COMPLEMENT


def test_quantize_signed_example():
    q = quantize([-1.0, 0.5, 1.0], 4, TC)
    assert q.params.scale == pytest.approx(1 / 7)
    assert np.array_equal(q.codes, [-7, 4, 7])


def test_quantize_unsigned_example():
    q = quantize([0.0, 0.5, 1.0], 3, U)
    assert q.params.scale == pytest.approx(1 / 7)
    assert np.array_equal(q.codes, [0, 4, 7])


def test_quantize_all_zero():
    q = quantize(np.zeros(5), 8, U)
    assert q.params.scale == 1.0
    assert not q.codes.any()


def test_quantize_rejects_bad_input():
    with pytest.raises(DomainError):
        quantize([-0.1, 0.5], 8, U)
    with pytest.raises(DomainError):
        quantize([1.0], 1, TC)
    with pytest.raises(DomainError):
        quantize([1.0], 17, TC)


def test_signed_clamp_never_emits_most_negative():
    # values at the negative peak land on -(2^(b-1)-1), not -2^(b-1)
    q = quantize([-1.0, 1.0], 8, TC)
    assert q.codes.min() == -127


def test_quantize_scale_consistency():
    rng = np.random.default_rng(1)
    t = rng.normal(size=64)
    a = quantize(t, 6, TC)
    b = quantize(3.5 * t, 6, TC)
    assert np.array_equal(a.codes, b.codes)
    assert b.params.scale == pytest.approx(3.5 * a.params.scale)


def test_dequantize_examples():
    p = QuantParams(1 / 7, 4, TC)
    assert np.allclose(dequantize(QuantizedTensor(np.array([-7, 4, 7]), p)),
                       [-1.0, 4 / 7, 1.0])
    assert dequantize(QuantizedTensor(np.array([0]), p))[0] == 0.0


def test_round_trip_error_bound():
    rng = np.random.default_rng(2)
    t = rng.normal(size=1000)
    q = quantize(t, 8, TC)
    assert np.max(np.abs(dequantize(q) - t)) <= q.params.scale / 2 + 1e-12


def test_quantized_tensor_range_check():
    p = QuantParams(1.0, 4, TC)
    QuantizedTensor(np.array([-8, 7]), p)  # full signed range is storable
    with pytest.raises(DomainError):
        QuantizedTensor(np.array([8]), p)
    with pytest.raises(DomainError):
        QuantizedTensor(np.array([-1]), QuantParams(1.0, 4, U))


def test_quant_params_validation():
    with pytest.raises(DomainError):
        QuantParams(0.0, 8, U)
    with pytest.raises(DomainError):
        QuantParams(1.0, 1, U)
    assert QuantParams(1.0, 4, U).value_range == (0.0, 15.0)
    assert QuantParams(0.5, 4, TC).value_range == (-4.0, 3.5)


def test_decompose_examples():
    b = decompose_bits(np.array([-3]), 4)
    assert b.dtype == np.int64 and b.shape == (4, 1)
    assert b[:, 0].tolist() == [1, 0, 1, 1]
    assert decompose_bits(np.array([5]), 3)[:, 0].tolist() == [1, 0, 1]
    assert set(np.unique(b)) <= {0, 1}


@pytest.mark.parametrize("signedness", [U, TC])
@pytest.mark.parametrize("bits", range(2, 9))
def test_decompose_recompose_exhaustive(bits, signedness):
    p = QuantParams(1.0, bits, signedness)
    codes = np.arange(p.code_min, p.code_max + 1)
    planes = decompose_bits(codes.reshape(-1, 2), bits)
    assert planes.shape == (bits, codes.size // 2, 2)
    assert np.array_equal(recompose_bits(planes, signedness).ravel(), codes)


def test_group_layout_examples():
    assert group_layout(8, U, 4) == [(4, 0, False), (4, 4, False)]
    assert group_layout(6, U, 4) == [(4, 0, False), (2, 4, False)]
    # signed: body groups LSB-first, sign bit last with width 1
    assert group_layout(9, TC, 4) == [(4, 0, False), (4, 4, False),
                                      (1, 8, True)]
    assert group_layout(8, TC, 1) == [(1, i, False) for i in range(7)] + [(1, 7, True)]


def test_group_layout_errors():
    with pytest.raises(DomainError):
        group_layout(8, U, 0)
    with pytest.raises(DomainError):
        group_layout(4, U, 5)


@pytest.mark.parametrize("signedness", [U, TC])
@pytest.mark.parametrize("bits", range(2, 10))
def test_group_reconstruction_exhaustive(bits, signedness):
    p = QuantParams(1.0, bits, signedness)
    codes = np.arange(p.code_min, p.code_max + 1)
    for y in range(1, bits + 1):
        layout = group_layout(bits, signedness, y)
        words = encode_activation_groups(codes, layout)
        assert len(words) == len(layout)
        assert np.array_equal(reconstruct_groups(words, layout), codes)
        assert sum(sign for _, _, sign in layout) <= 1
        for value, (width, shift, _) in zip(words, layout):
            assert value.dtype == np.int64
            assert value.min() >= 0
            assert value.max() <= (1 << width) - 1
            # one group of a layout alone gives the same words
            one, = encode_activation_groups(codes, [(width, shift, False)])
            assert np.array_equal(one, value)
        if signedness is TC:
            assert layout[-1][2] and layout[-1][0] == 1


def test_bit_sparsity_edges():
    zeros = decompose_bits(np.zeros(10, dtype=int), 4)
    assert bit_sparsity(zeros) == [0.0] * 4
    assert bit_sparsity(decompose_bits(np.full(10, 15), 4)) == [1.0] * 4


def test_bit_sparsity_uniform_half():
    rng = np.random.default_rng(3)
    n = 20_000
    codes = rng.integers(0, 256, size=n)
    se = 0.5 / np.sqrt(n)
    for s in bit_sparsity(decompose_bits(codes, 8)):
        assert abs(s - 0.5) <= 3 * se + 1e-12
