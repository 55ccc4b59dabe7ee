import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from conftest import kernel_vectors, noiseless_llrs, spec_with_frozen

nonzero_llr = st.floats(-50, 50).filter(lambda v: abs(v) > 1e-6)


class TestLlrOps:
    def test_f_op(self):
        assert f_op(1.5, -2.0) == pytest.approx(-1.5)
        assert f_op(0.0, 5.0) == pytest.approx(0.0)
        assert f_op(3.0, 4.0) == pytest.approx(3.0)

    def test_f_op_matches_sign_product_formula_at_extremes(self):
        # The reference is the textbook sign(l0) sign(l1) min(|l0|, |l1|).
        tiny = np.nextafter(0.0, 1.0)
        values = np.array([0.0, tiny, 1.5, 1e308, np.inf])
        values = np.concatenate([values, -values])
        l0, l1 = np.meshgrid(values, values)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = np.sign(l0) * np.sign(l1) * np.minimum(np.abs(l0), np.abs(l1))
            got = f_op(l0, l1)
        assert np.array_equal(got, expected)
        assert np.array_equal(got <= 0, expected <= 0)

    def test_g_op(self):
        assert g_op(2.0, 3.0, 0) == pytest.approx(5.0)
        assert g_op(2.0, 3.0, 1) == pytest.approx(1.0)
        assert g_op(7.5, 0.0, 1) == pytest.approx(-7.5)

    def test_lambda0(self):
        assert lambda0(1.0, 2.0, -3.0) == pytest.approx(-1.0)
        assert lambda0(0.0, 2.0, -3.0) == pytest.approx(0.0)
        assert lambda0(5.0, 5.0, 5.0) == pytest.approx(5.0)

    def test_lambda1(self):
        assert lambda1(1.0, 2.0, 3.0, 0) == pytest.approx(3.0)
        assert lambda1(1.0, 2.0, 3.0, 1) == pytest.approx(1.0)
        assert lambda1(0.0, -4.0, 2.5, 0) == pytest.approx(f_op(-4.0, 2.5))

    def test_lambda2(self):
        assert lambda2(2.0, 3.0, 1, 1) == pytest.approx(1.0)
        assert lambda2(2.0, 3.0, 0, 0) == pytest.approx(5.0)
        assert lambda2(2.0, 3.0, 0, 1) == pytest.approx(-1.0)

    @given(nonzero_llr, nonzero_llr)
    @settings(max_examples=200, deadline=None)
    def test_boxplus_sign_property(self, a, b):
        # h(a [+] b) == h(a) xor h(b) whenever a*b != 0, with h(v) = [v <= 0]
        assert (f_op(a, b) <= 0) == ((a <= 0) ^ (b <= 0))


def naive_sc(spec, llr):
    """Buffer-free functional SC used as an oracle for the production decoder."""

    def rec(alpha, kv_sub, offset):
        if not kv_sub:
            bit = 0 if spec.frozen[offset] else int(alpha[0] <= 0)
            return [bit], np.array([bit], dtype=np.uint8)
        k, rest = kv_sub[0], kv_sub[1:]
        q = len(alpha) // k
        if k == 2:
            l0, l1 = alpha[:q], alpha[q:]
            u0, b0 = rec(f_op(l0, l1), rest, offset)
            u1, b1 = rec(g_op(l0, l1, b0), rest, offset + q)
            return u0 + u1, np.concatenate([b0 ^ b1, b1])
        l0, l1, l2 = alpha[:q], alpha[q : 2 * q], alpha[2 * q :]
        ua, ba = rec(lambda0(l0, l1, l2), rest, offset)
        ub, bb = rec(lambda1(l0, l1, l2, ba), rest, offset + q)
        uc, bc = rec(lambda2(l1, l2, ba, bb), rest, offset + 2 * q)
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

    def test_batch_matches_single(self, rng):
        spec = spec_with_frozen((3, 2, 3), (np.arange(18) % 2 == 0).astype(np.uint8))
        llrs = rng.normal(0, 1.5, (10, 18))
        dec = SCDecoder(spec)
        batch_u, batch_x = dec.decode_batch(llrs)
        for i in range(10):
            u_i, x_i = SCDecoder(spec).decode(llrs[i])
            assert np.array_equal(u_i, batch_u[i])
            assert np.array_equal(x_i, batch_x[i])
