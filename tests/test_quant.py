"""Quantizer, bit-plane and activation-group tests."""

import numpy as np
import pytest

from acimsim.errors import DomainError
from acimsim.quant import (CODE, QuantParams, QuantizedTensor, Signedness,
                           bit_sparsity, decompose_bits, dequantize,
                           encode_activation_groups, fake_quantize,
                           group_layout, quantize)
from acimsim.tensor import im2col

from oracles import (activation_signedness, clamped_codes, recompose_bits,
                     reconstruct_groups, ste_mask)

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
    with pytest.raises(DomainError):
        # checked before the cast, which would wrap 2^32 + 3 to 3
        QuantizedTensor(np.array([2**32 + 3, 0]), p)


_P4 = QuantParams(1.0, 4, TC)

# each returns the code arrays of one producer, from int64 input where it
# takes codes
CODE_PRODUCERS = {
    "quantize": lambda: [quantize(np.linspace(-1, 1, 9), 16, TC).codes],
    "QuantizedTensor-int64": lambda: [QuantizedTensor(np.arange(-3, 4),
                                                      _P4).codes],
    "QuantizedTensor-uint8": lambda: [QuantizedTensor(
        np.arange(8, dtype=np.uint8), _P4).codes],
    "QuantizedTensor-float": lambda: [QuantizedTensor(
        np.array([-3.0, 0.0, 7.0]), _P4).codes],
    "decompose_bits": lambda: [decompose_bits(np.arange(-3, 4), 4)],
    "encode_activation_groups": lambda: encode_activation_groups(
        np.arange(-8, 8), group_layout(4, TC, 2)),
    "im2col": lambda: [im2col(quantize(np.ones((2, 4, 4)), 4, U).codes,
                              3, 3, padding=1)],
}


@pytest.mark.parametrize("producer", CODE_PRODUCERS)
def test_codes_and_bit_fields_are_code_dtype(producer):
    arrays = CODE_PRODUCERS[producer]()
    assert arrays and all(a.dtype == CODE for a in arrays)


def test_quant_params_validation():
    with pytest.raises(DomainError):
        QuantParams(0.0, 8, U)
    with pytest.raises(DomainError):
        QuantParams(1.0, 1, U)
    # the representable interval the STE mask oracle passes: [0, 15] and
    # [-4, 3.5], each edge inside
    for params, edges in ((QuantParams(1.0, 4, U), (0.0, 15.0)),
                          (QuantParams(0.5, 4, TC), (-4.0, 3.5))):
        lo, hi = edges
        t = np.array([np.nextafter(lo, -np.inf), lo, hi,
                      np.nextafter(hi, np.inf)])
        assert np.array_equal(ste_mask(t, params), [0.0, 1.0, 1.0, 0.0])


def _low_top_cases():
    """(t, bits, signedness) with a peak p whose top code value
    code_max * (p / code_max) rounds below p in float64, on every width
    where one exists among 4096 draws."""
    gen = np.random.default_rng(7)
    for bits in range(2, 17):
        for sgn in (U, TC):
            code_max = QuantParams(1.0, bits, sgn).code_max
            p = gen.uniform(0.5, 2.0, 4096)
            p = p[code_max * (p / code_max) < p]
            if p.size:
                p = float(p[0])
                yield ([0.0, p / 3, p] if sgn is U else [-p, -p / 3, 0.0, p],
                       bits, sgn)


def _zero_cases():
    """(t, bits, signedness) with zeros of either sign: post-ReLU tensors
    that hold -0.0 (which np.maximum keeps or drops by code path), a signed
    one, and all-zero tensors."""
    relu = np.maximum(np.random.default_rng(9).normal(size=(8, 16)), 0.0)
    relu[::3] = -0.0
    yield [-0.0, 0.0, 0.7, 2.0], 8, U
    yield relu, 4, U
    yield [-0.0, 0.3, -0.2, 0.0], 8, TC
    for sgn in (U, TC):
        yield np.full((3, 4), -0.0), 8, sgn
        yield np.zeros((2, 5)), 16, sgn


_FAKE_QUANT_CASES = [
    # (-scale/2, 0) rounds to -0.0 before the -0.0 is made +0.0
    ([1.0, -0.001, -0.0039, 0.5, -0.0], 8, TC),
    ([[0.3, -2.0], [1e-9, -1e-9]], 2, TC),
    (np.zeros((3, 4)), 8, TC),
    (np.zeros(5), 4, U),
    (np.zeros((0, 3)), 8, TC),
    (np.zeros(0), 8, U),
    (np.random.default_rng(4).normal(size=(32, 64)), 8, TC),
    (np.random.default_rng(5).normal(size=(7, 3)) * 1e-3, 16, TC),
    (np.maximum(np.random.default_rng(6).normal(size=(32, 64)), 0), 8, U),
    (np.maximum(np.random.default_rng(7).normal(size=(9, 5)), 0), 2, U),
    ([0.0, 0.25, 1.0, 7.0], 3, U),
    # 127 * (p / 127) < p: the mask drops +p but keeps -p, since its range
    # runs from code_min = -128, one code past the clip at -127
    ([-0.498160386955547, 0.1, 0.498160386955547], 8, TC),
]


def assert_mask_is_ste(mask, t, params):
    """fake_quantize's mask against the int path's ste_mask: None exactly
    when ste_mask is all ones (no value clipped), else float64 of t's shape
    with ste_mask's bytes."""
    want = ste_mask(np.asarray(t, dtype=np.float64), params)
    assert (mask is None) == bool(want.all())
    if mask is not None:
        assert mask.dtype == np.float64 and mask.shape == want.shape
        assert mask.tobytes() == want.tobytes()


# the identities fake_quantize skips passes by: an unsigned -0.0 rounds to
# +0.0 without copysign or + 0.0, an all-zero tensor needs no mask, and a low
# top (code_max * scale < peak) still builds one
@pytest.mark.parametrize("t, bits, signedness",
                         [*_FAKE_QUANT_CASES, *_zero_cases(),
                          *_low_top_cases()])
def test_fake_quantize_equals_int_path(t, bits, signedness):
    q, mask = fake_quantize(t, bits, signedness)
    ref = quantize(t, bits, signedness)
    want = dequantize(ref)
    assert q.dtype == np.float64 and q.shape == np.shape(t)
    assert q.tobytes() == want.tobytes()
    assert np.array_equal(np.signbit(q), np.signbit(want))
    assert_mask_is_ste(mask, t, ref.params)


@pytest.mark.parametrize("t, bits, signedness, error", [
    ([1.0, np.nan], 8, TC, DomainError),
    ([np.inf, 1.0], 8, TC, DomainError),
    ([-np.inf, 1.0], 8, TC, DomainError),
    ([np.nan, 1.0], 8, U, DomainError),
    ([np.inf, 1.0], 8, U, DomainError),
    # non-finite is reported before negatives
    ([-np.inf, 1.0], 8, U, DomainError),
    ([-1.0, np.nan], 8, U, DomainError),
    ([-0.5, 1.0], 8, U, DomainError),
    # the bit width is checked before the data
    ([np.nan], 1, TC, DomainError),
    ([-1.0], 17, U, DomainError),
    # a subnormal peak over code_max underflows to scale 0
    ([5e-324], 8, TC, DomainError),
    # an explicit unsigned still rejects negatives, however tiny, where
    # no signedness would choose 2's complement
    ([1.0, -5e-324], 8, U, DomainError),
])
def test_fake_quantize_errors_match_quantize(t, bits, signedness, error):
    with pytest.raises(error) as want:
        quantize(t, bits, signedness)
    with pytest.raises(error) as got:
        fake_quantize(t, bits, signedness)
    assert str(got.value) == str(want.value)


def test_non_finite_is_reported_before_negatives():
    for t in ([-np.inf, 1.0], [-1.0, np.nan]):
        with pytest.raises(DomainError, match="non-finite"):
            quantize(t, 8, U)


def _default_cases():
    """(id, t): random tensors, signed and post-ReLU, then the edges of the
    activation signedness rule."""
    gen = np.random.default_rng(31)
    for shape in ((16,), (8, 32), (2, 3, 5)):
        t = gen.normal(size=shape)
        yield f"normal{shape}", t
        yield f"relu{shape}", np.maximum(t, 0.0)
    yield "all-zero", np.zeros((3, 4))
    yield "all-negative-zero", np.full(4, -0.0)
    yield "empty", np.zeros((0, 3))
    yield "negative-zero-and-one", np.array([-0.0, 1.0])
    yield "all-positive", gen.uniform(0.1, 2.0, size=(4, 6))
    yield "one-tiny-negative", np.array([0.5, -5e-324, 1.0, 0.25])


_DEFAULT_CASES = dict(_default_cases())


@pytest.mark.parametrize("bits", [2, 5, 8, 16])
@pytest.mark.parametrize("case", _DEFAULT_CASES)
def test_default_signedness_is_the_activation_rule(case, bits):
    # signedness=None: the same bytes and params as the explicit call with
    # unsigned when min(t) >= 0, else 2's complement
    t = _DEFAULT_CASES[case]
    sign = activation_signedness(t)
    got, want = quantize(t, bits), quantize(t, bits, sign)
    assert got.params == want.params and got.params.signedness is sign
    assert got.codes.dtype == want.codes.dtype
    assert got.codes.tobytes() == want.codes.tobytes()
    (got_q, got_mask), (want_q, want_mask) = (fake_quantize(t, bits, *s)
                                              for s in ((), (sign,)))
    assert got_q.tobytes() == want_q.tobytes()
    assert (got_mask is None) == (want_mask is None)
    assert got_mask is None or got_mask.tobytes() == want_mask.tobytes()


def _clamp_cases():
    """(t, bits, signedness) over every width: random data, ties at half
    codes, the peak alone, and the _low_top_cases."""
    gen = np.random.default_rng(2024)
    for bits in range(2, 17):
        for sgn in (U, TC):
            code_max = QuantParams(1.0, bits, sgn).code_max
            t = gen.normal(size=300) * 10.0 ** gen.integers(-6, 6)
            yield np.abs(t) if sgn is U else t, bits, sgn
            n = np.arange(code_max - 3, code_max + 1, dtype=np.float64)
            ties = np.concatenate([(n + 0.5) / code_max, n / code_max, [1.0]])
            yield (ties if sgn is U else np.concatenate([ties, -ties]),
                   bits, sgn)
            yield [3.5], bits, sgn
    yield from _low_top_cases()


@pytest.mark.parametrize("t, bits, signedness", list(_clamp_cases()))
def test_codes_equal_clamped_rounding(t, bits, signedness):
    # without its clamp the rule gives the clamped codes, and the mask's
    # one-sided test gives the two-sided ste_mask, on every width
    scale, want = clamped_codes(t, bits, signedness)
    ref = quantize(t, bits, signedness)
    assert ref.params.scale == scale
    assert np.array_equal(ref.codes, want.astype(np.int64))
    q, mask = fake_quantize(t, bits, signedness)
    assert q.tobytes() == (want * scale + 0.0).tobytes()
    assert_mask_is_ste(mask, t, ref.params)


def test_low_top_peak_masks_the_peak():
    # the mask drops +p and, for signed data, keeps -p, since code_min is one
    # code past the lowest code the peak gives
    cases = list(_low_top_cases())
    assert len(cases) >= 15
    for t, bits, sgn in cases:
        _, mask = fake_quantize(t, bits, sgn)
        assert mask[-1] == 0 and mask[0] == 1, (t, bits, sgn)
        code_max = QuantParams(1.0, bits, sgn).code_max
        assert quantize(t, bits, sgn).codes.max() == code_max


@pytest.mark.parametrize("t, bits, signedness", [
    ([1e-310], 8, TC), ([1e-310, -2e-311], 8, TC), ([1e-310], 8, U),
    # a normal peak whose scale, peak / 65535, is subnormal
    ([1e-305], 16, U)])
def test_subnormal_scale_is_rejected(t, bits, signedness):
    for quantizer in (quantize, fake_quantize):
        with pytest.raises(DomainError, match="positive normal float"):
            quantizer(t, bits, signedness)


def test_smallest_normal_scale_is_accepted():
    peak = 127 * np.finfo(np.float64).tiny
    q = quantize([peak, -peak / 2], 8, TC)
    assert q.params.scale == np.finfo(np.float64).tiny
    assert q.codes.tolist() == [127, -64]


def test_decompose_examples():
    b = decompose_bits(np.array([-3]), 4)
    assert b.dtype == CODE and b.shape == (4, 1)
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
            assert value.dtype == CODE
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
