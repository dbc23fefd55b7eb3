"""Quantizer, bit-plane and activation-group tests."""

import numpy as np
import pytest

from acimsim.errors import DomainError
from acimsim.quant import (BitPlanes, QuantParams, QuantizedTensor, Signedness,
                           bit_sparsity, decompose_bits, dequantize,
                           encode_activation_groups, fake_quant, group_layout,
                           quantize)

from oracles import recompose_bits

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
    assert np.array_equal(fake_quant(t, 8, TC), dequantize(q))


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
    p = QuantParams(1.0, 4, TC)
    b = decompose_bits(QuantizedTensor(np.array([-3]), p))
    assert [int(pl[0]) for pl in b.planes] == [1, 0, 1, 1]
    pu = QuantParams(1.0, 3, U)
    bu = decompose_bits(QuantizedTensor(np.array([5]), pu))
    assert [int(pl[0]) for pl in bu.planes] == [1, 0, 1]
    assert all(set(np.unique(pl)) <= {0, 1} for pl in b.planes)


def test_bitplanes_length_check():
    with pytest.raises(Exception):
        BitPlanes([np.zeros(1)], QuantParams(1.0, 4, U))


@pytest.mark.parametrize("signedness", [U, TC])
@pytest.mark.parametrize("bits", range(2, 9))
def test_decompose_recompose_exhaustive(bits, signedness):
    p = QuantParams(1.0, bits, signedness)
    codes = np.arange(p.code_min, p.code_max + 1)
    q = QuantizedTensor(codes, p)
    assert np.array_equal(recompose_bits(decompose_bits(q)), codes)


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
    q = QuantizedTensor(codes, p)
    for y in range(1, bits + 1):
        g = encode_activation_groups(decompose_bits(q), y)
        assert np.array_equal(g.reconstruct(), codes)
        signs = [grp.sign_group for grp in g.groups]
        assert sum(signs) <= 1
        for grp in g.groups:
            assert grp.values.min() >= 0
            assert grp.values.max() <= (1 << grp.width) - 1
        if signedness is TC:
            assert g.groups[-1].sign_group and g.groups[-1].width == 1


def test_bit_sparsity_edges():
    p = QuantParams(1.0, 4, U)
    zeros = decompose_bits(QuantizedTensor(np.zeros(10, dtype=int), p))
    assert bit_sparsity(zeros) == [0.0] * 4
    full = decompose_bits(QuantizedTensor(np.full(10, 15), p))
    assert bit_sparsity(full) == [1.0] * 4


def test_bit_sparsity_uniform_half():
    rng = np.random.default_rng(3)
    n = 20_000
    p = QuantParams(1.0, 8, U)
    q = QuantizedTensor(rng.integers(0, 256, size=n), p)
    se = 0.5 / np.sqrt(n)
    for s in bit_sparsity(decompose_bits(q)):
        assert abs(s - 0.5) <= 3 * se + 1e-12
