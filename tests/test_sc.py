import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mkpolar import sc
from mkpolar.analysis import sc_node_count
from mkpolar.construction import design_code
from mkpolar.encoding import expand_message
from mkpolar.kernels import stage_transform
from mkpolar.sc import (
    SCDecoder,
    f_op,
    g_op,
    lambda0,
    lambda1,
    lambda2,
)

from conftest import DECODERS, kernel_vectors, noiseless_llrs, spec_with_frozen

nonzero_llr = st.floats(-50, 50).filter(lambda v: abs(v) > 1e-6)

# The decoder saturates channel LLRs to +-max / (2N); at N = 2 no sum of two
# saturated values overflows. The min-sum steps also see +-inf and +-max.
BOUND = np.finfo(float).max / (2 * 2)
TINY = np.nextafter(0.0, 1.0)
EDGES = [0.0, -0.0, TINY, -TINY, 1.0, -1.0, BOUND, -BOUND]
saturated_llr = st.one_of(st.sampled_from(EDGES), st.floats(-BOUND, BOUND))
any_llr = st.one_of(
    st.sampled_from(EDGES + [np.finfo(float).max, -np.finfo(float).max, np.inf, -np.inf]),
    st.floats(allow_nan=False),
)


@st.composite
def llr_step_inputs(draw, n_llrs, n_sums, elements):
    """Inputs of one LLR step: n_llrs LLR operands and n_sums partial sums.

    Operands come as scalars, as (q, 1) blocks or as (q, 37) row blocks of
    one frames-last (n_llrs * q, 37) array, the views the tree walk passes;
    partial sums are uint8 blocks of the same shape (Python ints for
    scalars). Some entries of the later operands mirror the first with the
    opposite sign, so equal magnitudes of opposite sign occur often.
    """
    batch = draw(st.sampled_from([None, 1, 37]))
    q = 1 if batch is None else draw(st.integers(1, 4))
    width = batch or 1
    llrs = draw(arrays(float, (n_llrs * q, width), elements=elements))
    mirror = draw(arrays(bool, (q, width)))
    for j in range(1, n_llrs):
        llrs[j * q : (j + 1) * q][mirror] = -llrs[:q][mirror]
    sums = draw(arrays(np.uint8, (n_sums * q, width), elements=st.integers(0, 1)))
    operands = [llrs[j * q : (j + 1) * q] for j in range(n_llrs)]
    partial_sums = [sums[j * q : (j + 1) * q] for j in range(n_sums)]
    if batch is None:
        operands = [float(v[0, 0]) for v in operands]
        partial_sums = [int(v[0, 0]) for v in partial_sums]
    return operands, partial_sums


def textbook_boxplus(*llrs):
    """prod sign(l_i) * min |l_i|, the min-sum box-plus of any number of LLRs."""
    sign = np.prod([np.sign(v) for v in llrs], axis=0)
    return sign * np.min([np.abs(v) for v in llrs], axis=0)


def minus_one_to(u, dtype=np.float64):
    """(-1)^u of 0/1 partial sums u, in the float type dtype."""
    return np.where(np.asarray(u) != 0, -1, 1).astype(dtype)


# Each LLR step's textbook formula, computed in the float type of its LLRs.
TEXTBOOK = {
    f_op: textbook_boxplus,
    g_op: lambda l0, l1, u0: minus_one_to(u0, np.result_type(l0)) * l0 + l1,
    lambda0: textbook_boxplus,
    lambda1: lambda l0, l1, l2, u0: minus_one_to(u0, np.result_type(l0)) * l0 + textbook_boxplus(l1, l2),
    lambda2: lambda l1, l2, u0, u1: (minus_one_to(u0, np.result_type(l1)) * l1
                                     + minus_one_to(np.bitwise_xor(u0, u1), np.result_type(l1)) * l2),
}

# LLR step -> (LLR operands, partial sums)
STEP_ARITY = {f_op: (2, 0), g_op: (2, 1), lambda0: (3, 0), lambda1: (3, 1), lambda2: (2, 2)}


def in_place(step, *args):
    """step(*args) in its numpy form, which writes into buffers its caller supplies: out (and
    scratch) are allocated, NaN-filled, in the LLRs' shape and float type; scalars run as 0-d."""
    llrs = args[: STEP_ARITY[step][0]]
    out, scratch = (np.full(np.shape(llrs[0]), np.nan, dtype=np.result_type(*llrs)) for _ in range(2))
    got = step(*args, out=out) if step is g_op else step(*args, out=out, scratch=scratch)
    assert got is out
    return got


def assert_same_llrs(got, want):
    """Equal values (+0 == -0) and equal hard decisions."""
    assert np.shape(got) == np.shape(want)
    assert np.array_equal(got, want)
    assert np.array_equal(np.asarray(got) <= 0, np.asarray(want) <= 0)


class TestLlrOps:
    def test_f_op(self):
        assert in_place(f_op, 1.5, -2.0) == pytest.approx(-1.5)
        assert in_place(f_op, 0.0, 5.0) == pytest.approx(0.0)
        assert in_place(f_op, 3.0, 4.0) == pytest.approx(3.0)

    def test_f_op_matches_sign_product_formula_at_extremes(self):
        # The reference is the textbook sign(l0) sign(l1) min(|l0|, |l1|).
        tiny = np.nextafter(0.0, 1.0)
        values = np.array([0.0, tiny, 1.5, 1e308, np.inf])
        values = np.concatenate([values, -values])
        l0, l1 = np.meshgrid(values, values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = np.sign(l0) * np.sign(l1) * np.minimum(np.abs(l0), np.abs(l1))
            got = in_place(f_op, l0, l1)
        assert np.array_equal(got, expected)
        assert np.array_equal(got <= 0, expected <= 0)

    def test_g_op(self):
        assert in_place(g_op, 2.0, 3.0, 0) == pytest.approx(5.0)
        assert in_place(g_op, 2.0, 3.0, 1) == pytest.approx(1.0)
        assert in_place(g_op, 7.5, 0.0, 1) == pytest.approx(-7.5)

    def test_lambda0(self):
        assert in_place(lambda0, 1.0, 2.0, -3.0) == pytest.approx(-1.0)
        assert in_place(lambda0, 0.0, 2.0, -3.0) == pytest.approx(0.0)
        assert in_place(lambda0, 5.0, 5.0, 5.0) == pytest.approx(5.0)

    def test_lambda1(self):
        assert in_place(lambda1, 1.0, 2.0, 3.0, 0) == pytest.approx(3.0)
        assert in_place(lambda1, 1.0, 2.0, 3.0, 1) == pytest.approx(1.0)
        assert in_place(lambda1, 0.0, -4.0, 2.5, 0) == pytest.approx(in_place(f_op, -4.0, 2.5))

    def test_lambda2(self):
        assert in_place(lambda2, 2.0, 3.0, 1, 1) == pytest.approx(1.0)
        assert in_place(lambda2, 2.0, 3.0, 0, 0) == pytest.approx(5.0)
        assert in_place(lambda2, 2.0, 3.0, 0, 1) == pytest.approx(-1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(llr_step_inputs(2, 0, any_llr))
    @settings(max_examples=200, deadline=None)
    def test_f_op_matches_textbook(self, inputs):
        (l0, l1), _ = inputs
        assert_same_llrs(in_place(f_op, l0, l1), textbook_boxplus(l0, l1))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(llr_step_inputs(3, 0, any_llr))
    @settings(max_examples=200, deadline=None)
    def test_lambda0_matches_textbook(self, inputs):
        (l0, l1, l2), _ = inputs
        assert_same_llrs(in_place(lambda0, l0, l1, l2), textbook_boxplus(l0, l1, l2))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(llr_step_inputs(2, 1, saturated_llr))
    @settings(max_examples=200, deadline=None)
    def test_g_op_matches_textbook(self, inputs):
        (l0, l1), (u0,) = inputs
        assert_same_llrs(in_place(g_op, l0, l1, u0), TEXTBOOK[g_op](l0, l1, u0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(llr_step_inputs(3, 1, saturated_llr))
    @settings(max_examples=200, deadline=None)
    def test_lambda1_matches_textbook(self, inputs):
        (l0, l1, l2), (u0,) = inputs
        assert_same_llrs(in_place(lambda1, l0, l1, l2, u0), TEXTBOOK[lambda1](l0, l1, l2, u0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(llr_step_inputs(2, 2, saturated_llr))
    @settings(max_examples=200, deadline=None)
    def test_lambda2_matches_textbook(self, inputs):
        (l1, l2), (u0, u1) = inputs
        assert_same_llrs(in_place(lambda2, l1, l2, u0, u1), TEXTBOOK[lambda2](l1, l2, u0, u1))

    @given(nonzero_llr, nonzero_llr)
    @settings(max_examples=200, deadline=None)
    def test_boxplus_sign_property(self, a, b):
        # h(a [+] b) == h(a) xor h(b) whenever a*b != 0, with h(v) = [v <= 0]
        assert (in_place(f_op, a, b) <= 0) == ((a <= 0) ^ (b <= 0))


def array_flags(a):
    names = ("C_CONTIGUOUS", "F_CONTIGUOUS", "OWNDATA", "WRITEABLE", "ALIGNED", "WRITEBACKIFCOPY")
    return {name: a.flags[name] for name in names}


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("shape", [(), (5,), (5, 1), (5, 1024)], ids=str)
@pytest.mark.parametrize("step", STEP_ARITY, ids=lambda step: step.__name__)
def test_llr_step_into_out_equals_allocating_form(step, shape, dtype, rng):
    # The allocating form is the textbook formula, computed by numpy in the LLRs' float type.
    n_llrs, n_sums = STEP_ARITY[step]
    # Small integers give ties and zeros of both signs; the rest are Gaussian.
    llrs = np.where(rng.random((n_llrs, *shape)) < 0.5, rng.integers(-2, 3, (n_llrs, *shape)),
                    4 * rng.standard_normal((n_llrs, *shape))).astype(dtype)
    llrs[rng.random(llrs.shape) < 0.1] = -0.0
    sums = rng.integers(0, 2, (n_sums, *shape), dtype=np.uint8)
    if shape == ():
        llrs, sums = [dtype(v) for v in llrs], [int(v) for v in sums]
    want = TEXTBOOK[step](*llrs, *sums)
    got = in_place(step, *llrs, *sums)
    assert got.dtype == want.dtype == dtype
    assert_same_llrs(got, want)


@pytest.mark.parametrize("step", STEP_ARITY, ids=lambda step: step.__name__)
def test_llr_step_list_form_equals_numpy_form(step, rng):
    # One float64 frame's nodes of span <= 27 run each step on lists of Python floats,
    # with partial sums as the walk keeps them there: 0/1 ints and bools.
    n_llrs, n_sums = STEP_ARITY[step]
    shape = (n_llrs, 500)
    edges = np.array([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, BOUND, -BOUND, TINY, -TINY])
    llrs = np.where(rng.random(shape) < 0.6, rng.choice(edges, shape), 4 * rng.standard_normal(shape))
    llrs[1:, :100] = -llrs[0, :100]  # equal magnitudes of opposite sign
    sums = rng.integers(0, 2, (n_sums, 500), dtype=np.uint8)
    want = in_place(step, *llrs, *sums)
    sums = [[bool(v) if j % 2 else v for j, v in enumerate(row)] for row in sums.tolist()]
    got = step(*llrs.tolist(), *sums)
    assert isinstance(got, list) and {type(v) for v in got} == {float}
    assert_same_llrs(got, want)


def test_list_boxplus_keeps_the_builtin_forms_values_and_zero_signs():
    # The list form compares instead of calling the builtins; every value and every zero
    # sign must be the old formula's, which assert_same_llrs (+0 == -0) cannot see.
    def builtin_boxplus(l0, l1):
        return [max(min(a, b), -max(a, b)) for a, b in zip(l0, l1)]

    def signed(values):
        return [(v, math.copysign(1.0, v)) for v in values]

    edges = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, BOUND, -BOUND, TINY, -TINY]
    pairs = [list(column) for column in zip(*itertools.product(edges, repeat=2))]
    assert signed(f_op(*pairs)) == signed(builtin_boxplus(*pairs))
    l0, l1, l2 = [list(column) for column in zip(*itertools.product(edges, repeat=3))]
    assert signed(lambda0(l0, l1, l2)) == signed(builtin_boxplus(builtin_boxplus(l0, l1), l2))


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("kind", DECODERS)
@pytest.mark.parametrize("kv", [(2, 3, 2, 3, 2, 3), (2, 2, 2, 2, 3, 3, 3), (3, 3, 3, 2, 2)], ids=str)
def test_every_node_is_entered_by_one_named_step(kv, kind, dtype, monkeypatch, rng):
    # perfbench times the steps by wrapping these module names: each non-root node of
    # the (pruned) tree must be entered by one call through them, on every path of the walk.
    spec = design_code(kv, int(np.prod(kv)) // 2)
    decoder = DECODERS[kind](spec)
    schedule = getattr(decoder, "schedule", None)
    per_decode = sc_node_count(kv) if schedule is None else len(list(schedule)) - 1
    active, calls = [0], [0]

    def counted(step):
        def wrapper(*args, **kwargs):
            calls[0] += not active[0]  # lambda0 and lambda1 call f_op inside
            active[0] += 1
            try:
                return step(*args, **kwargs)
            finally:
                active[0] -= 1

        return wrapper

    for name in ("f_op", "g_op", "lambda0", "lambda1", "lambda2"):
        monkeypatch.setattr(sc, name, counted(getattr(sc, name)))
    llrs = (4 + 4 * rng.standard_normal((3, spec.n_bits))).astype(dtype)
    decoder.decode(llrs[0])
    assert calls[0] == per_decode
    decoder.decode_batch(llrs)
    assert calls[0] == 2 * per_decode


def naive_sc(spec, llr):
    """Buffer-free functional SC on the textbook LLR formulas, an oracle for the production decoder."""

    def rec(alpha, kv_sub, offset):
        if not kv_sub:
            bit = 0 if spec.frozen[offset] else int(alpha[0] <= 0)
            return [bit], np.array([bit], dtype=np.uint8)
        k, rest = kv_sub[0], kv_sub[1:]
        q = len(alpha) // k
        if k == 2:
            l0, l1 = alpha[:q], alpha[q:]
            u0, b0 = rec(TEXTBOOK[f_op](l0, l1), rest, offset)
            u1, b1 = rec(TEXTBOOK[g_op](l0, l1, b0), rest, offset + q)
            return u0 + u1, np.concatenate([b0 ^ b1, b1])
        l0, l1, l2 = alpha[:q], alpha[q : 2 * q], alpha[2 * q :]
        ua, ba = rec(TEXTBOOK[lambda0](l0, l1, l2), rest, offset)
        ub, bb = rec(TEXTBOOK[lambda1](l0, l1, l2, ba), rest, offset + q)
        uc, bc = rec(TEXTBOOK[lambda2](l1, l2, ba, bb), rest, offset + 2 * q)
        return ua + ub + uc, np.concatenate([ba ^ bb, ba ^ bc, ba ^ bb ^ bc])

    u, x = rec(np.asarray(llr, dtype=float), spec.kernels, 0)
    return np.array(u, dtype=np.uint8), x


@pytest.mark.parametrize("kv", [(2, 2), (3,), (2, 3), (3, 2), (3, 3, 2), (2, 3, 3), (2, 2, 2, 3)], ids=str)
def test_decoder_matches_naive_oracle(kv, rng):
    n = int(np.prod(kv))
    for trial in range(20):
        frozen = rng.integers(0, 2, n, dtype=np.uint8)
        spec = spec_with_frozen(kv, frozen)
        llr = rng.normal(0, 2, n)
        got_u, got_x = SCDecoder(spec).decode(llr)
        want_u, want_x = naive_sc(spec, llr)
        assert np.array_equal(got_u, want_u)
        assert np.array_equal(got_x, want_x)


@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("kv", [(2,), (3,), (3, 2, 2), (2, 2, 3), (2, 3, 3, 2), (3, 3, 2, 2, 3)], ids=str)
def test_single_bits_decide_ties_and_frozen_bits_as_naive_sc(kv, dtype, rng):
    # One frame's nodes of span 2 or 3 decide their single-bit children themselves: an
    # LLR of exactly +-0 decides 1 on an unfrozen bit, a frozen bit is 0 under any LLR.
    # Small integers give ties, exact zero sums and equal magnitudes, all exact in float32.
    n = math.prod(kv)
    for _ in range(20):
        spec = spec_with_frozen(kv, rng.integers(0, 2, n))
        decoder = SCDecoder(spec)
        llrs = rng.choice([0.0, -0.0, 1.0, -1.0, -1.0, 2.0, -2.0], (2, n)).astype(dtype)
        u_batch, x_batch = decoder.decode_batch(llrs)
        for frame, u_b, x_b in zip(llrs, u_batch, x_batch):
            u, x = decoder.decode(frame)
            want_u, want_x = naive_sc(spec, frame)
            assert np.array_equal(u, want_u) and np.array_equal(x, want_x)
            assert np.array_equal(u, u_b) and np.array_equal(x, x_b)


class TestDecodeSC:
    def test_hand_trace_n3(self):
        spec = spec_with_frozen((3,), [1, 1, 0])
        u_hat, x_hat = SCDecoder(spec).decode([5.0, -1.0, -2.0])
        assert u_hat.tolist() == [0, 0, 1]
        assert np.array_equal(x_hat, stage_transform(u_hat, spec.kernels))

    def test_all_frozen_decodes_zero(self, rng):
        spec = spec_with_frozen((2, 3), np.ones(6, dtype=np.uint8))
        llr = rng.normal(0, 2, 6)
        u_hat, x_hat = SCDecoder(spec).decode(llr)
        assert not u_hat.any()
        assert not x_hat.any()

    def test_length_mismatch(self):
        spec = spec_with_frozen((3,), [1, 1, 0])
        with pytest.raises(ValueError):
            SCDecoder(spec).decode([1.0, 2.0])

    def test_nan_llr_rejected(self):
        spec = spec_with_frozen((3,), [1, 1, 0])
        with pytest.raises(ValueError, match="LLR 1 of frame 0 is NaN"):
            SCDecoder(spec).decode([1.0, np.nan, 2.0])
        with pytest.raises(ValueError, match="LLR 2 of frame 1 is NaN"):
            SCDecoder(spec).decode_batch([[1.0, 1.0, 1.0], [1.0, 1.0, np.nan]])

    @pytest.mark.parametrize("kv", [(2,), (3,), (2, 3), (3, 2, 2)], ids=str)
    def test_zero_llr_decides_one(self, kv):
        n = int(np.prod(kv))
        spec = spec_with_frozen(kv, np.zeros(n))
        u_hat, x_hat = SCDecoder(spec).decode(np.zeros(n))
        assert u_hat.tolist() == [1] * n
        assert np.array_equal(x_hat, stage_transform(u_hat, spec.kernels))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kv", [(2,), (3,), (2, 3), (3, 2, 2), (2, 2, 2, 2, 2, 3)], ids=str)
    def test_infinite_and_huge_llrs_saturate(self, kv, rng):
        n = int(np.prod(kv))
        frozen = (rng.random(n) < 0.5).astype(np.uint8)
        spec = spec_with_frozen(kv, frozen)
        u = expand_message(rng.integers(0, 2, (40, spec.k_bits), dtype=np.uint8), spec)
        x = stage_transform(u, spec.kernels)
        # Noiseless frames whose bits are certain to various degrees decode exactly.
        magnitude = rng.choice([np.inf, 1e308, 4.0], size=x.shape)
        u_hat, x_hat = SCDecoder(spec).decode_batch(noiseless_llrs(x, magnitude))
        assert np.array_equal(u_hat, u)
        assert np.array_equal(x_hat, x)
        # inf and 1e308 both exceed the saturation bound, so they decide alike.
        signs = rng.choice([-1.0, 1.0], size=x.shape)
        u_inf, x_inf = SCDecoder(spec).decode_batch(signs * np.inf)
        u_big, x_big = SCDecoder(spec).decode_batch(signs * 1e308)
        assert np.array_equal(u_inf, u_big) and np.array_equal(x_inf, x_big)
        assert np.array_equal(x_inf, stage_transform(u_inf, spec.kernels))

    @pytest.mark.filterwarnings("error")
    def test_conflicting_infinities_tie(self):
        # x0 = x1 = u1 with LLRs (+inf, -inf): the g step sums to exactly 0, a tie.
        u_hat, x_hat = SCDecoder(spec_with_frozen((2,), [1, 0])).decode([np.inf, -np.inf])
        assert u_hat.tolist() == [0, 1]
        assert x_hat.tolist() == [1, 1]

    @pytest.mark.parametrize("kv", [(2,), (3, 2), (2, 2, 3)], ids=str)
    def test_empty_batch(self, kv):
        n = int(np.prod(kv))
        spec = spec_with_frozen(kv, np.arange(n) % 2)
        u_hat, x_hat = SCDecoder(spec).decode_batch(np.zeros((0, n)))
        for out in (u_hat, x_hat):
            assert out.shape == (0, n) and out.dtype == np.uint8

    @pytest.mark.parametrize("kv", kernel_vectors(96, min_n=4), ids=str)
    def test_noiseless_roundtrip(self, kv, rng):
        n = int(np.prod(kv))
        k = n // 2
        frozen = np.zeros(n, dtype=np.uint8)
        frozen[rng.permutation(n)[: n - k]] = 1
        spec = spec_with_frozen(kv, frozen)
        msg = rng.integers(0, 2, (32, k), dtype=np.uint8)
        u = expand_message(msg, spec)
        x = stage_transform(u, spec.kernels)
        u_hat, x_hat = SCDecoder(spec).decode_batch(noiseless_llrs(x, 4.0))
        assert np.array_equal(u_hat, u)
        assert np.array_equal(x_hat, x)

    def test_xhat_is_reencoded_uhat(self, rng):
        spec = spec_with_frozen((2, 2, 3), (np.arange(12) < 6).astype(np.uint8))
        llr = rng.normal(0, 2, (50, 12))
        u_hat, x_hat = SCDecoder(spec).decode_batch(llr)
        assert np.array_equal(x_hat, stage_transform(u_hat, spec.kernels))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("batch", [1, 40])
    def test_in_range_f_ordered_input_is_read_in_place_and_untouched(self, dtype, batch, rng):
        spec = spec_with_frozen((3, 2, 2), (np.arange(12) % 3 == 0).astype(np.uint8))
        llrs = np.asfortranarray(rng.normal(1.0, 2.0, (batch, 12)).astype(dtype))
        before, flags = llrs.copy(order="A"), array_flags(llrs)
        u_hat, x_hat = SCDecoder(spec).decode_batch(llrs)
        want_u, want_x = SCDecoder(spec).decode_batch(np.ascontiguousarray(llrs))
        assert llrs.dtype == dtype and array_flags(llrs) == flags
        assert np.array_equal(llrs, before) and llrs.flags.f_contiguous
        assert np.array_equal(u_hat, want_u) and np.array_equal(x_hat, want_x)

    @pytest.mark.parametrize("batch", [1, 40])
    def test_f_ordered_input_with_infinities_is_saturated(self, batch, rng):
        # An F-ordered input out of range is saturated into a copy, as a
        # C-ordered one is: +-inf decide as +-bound, and the input keeps its infinities.
        spec = spec_with_frozen((2, 3, 2), (np.arange(12) % 4 == 1).astype(np.uint8))
        llrs = rng.normal(0.5, 2.0, (batch, 12))
        llrs[rng.random(llrs.shape) < 0.3] = np.inf
        llrs[rng.random(llrs.shape) < 0.3] = -np.inf
        llrs = np.asfortranarray(llrs)
        before = llrs.copy(order="A")
        bound = np.finfo(float).max / (2 * 12)
        got = SCDecoder(spec).decode_batch(llrs)
        want = SCDecoder(spec).decode_batch(np.ascontiguousarray(np.clip(llrs, -bound, bound)))
        assert np.isinf(llrs).any() and np.array_equal(llrs, before)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_batch_matches_single(self, rng):
        spec = spec_with_frozen((3, 2, 3), (np.arange(18) % 2 == 0).astype(np.uint8))
        llrs = rng.normal(0, 1.5, (10, 18))
        dec = SCDecoder(spec)
        batch_u, batch_x = dec.decode_batch(llrs)
        for i in range(10):
            u_i, x_i = SCDecoder(spec).decode(llrs[i])
            assert np.array_equal(u_i, batch_u[i])
            assert np.array_equal(x_i, batch_x[i])
