import itertools

import numpy as np
import pytest

from mkpolar.encoding import encode_message, encode_recursive, expand_message
from mkpolar.kernels import generator_matrix, gf2_vecmat, inverse_generator

from conftest import encode_matrix, kernel_vectors, spec_with_frozen


def _spec(kv, frozen):
    return spec_with_frozen(kv, frozen)


class TestExpandMessage:
    def test_ternary_first_frozen(self):
        spec = _spec((3,), [1, 0, 0])
        assert expand_message([1, 0], spec).tolist() == [0, 1, 0]
        assert expand_message([0, 1], spec).tolist() == [0, 0, 1]

    def test_all_zero(self):
        spec = _spec((2, 2), [1, 0, 0, 0])
        assert expand_message([0, 0, 0], spec).tolist() == [0, 0, 0, 0]

    def test_binary_first_frozen(self):
        spec = _spec((2, 2), [1, 0, 0, 0])
        assert expand_message([1, 0, 1], spec).tolist() == [0, 1, 0, 1]

    def test_length_mismatch(self):
        spec = _spec((3,), [1, 0, 0])
        with pytest.raises(ValueError):
            expand_message([1, 0, 1], spec)


class TestEncodeExamples:
    def test_spc3_codewords(self):
        # u = (0, u0, u1) encodes to (u0, u1, u0 ^ u1)
        spec = _spec((3,), [1, 0, 0])
        for u0, u1 in itertools.product((0, 1), repeat=2):
            x = encode_matrix(np.array([0, u0, u1], dtype=np.uint8), spec)
            assert x.tolist() == [u0, u1, u0 ^ u1]

    def test_spc4_codewords(self):
        # u = (0, a0, a1, a2) encodes to (a0^a1^a2, a0^a2, a1^a2, a2)
        spec = _spec((2, 2), [1, 0, 0, 0])
        for a0, a1, a2 in itertools.product((0, 1), repeat=3):
            x = encode_matrix(np.array([0, a0, a1, a2], dtype=np.uint8), spec)
            assert x.tolist() == [a0 ^ a1 ^ a2, a0 ^ a2, a1 ^ a2, a2]

    def test_rep3_codeword(self):
        # u = (0, 0, a0) encodes to (0, a0, a0)
        spec = _spec((3,), [1, 1, 0])
        for a0 in (0, 1):
            x = encode_matrix(np.array([0, 0, a0], dtype=np.uint8), spec)
            assert x.tolist() == [0, a0, a0]


class TestEncodeRecursive:
    @pytest.mark.parametrize("kv", [kv for kv in kernel_vectors(96) if np.prod(kv) in (6, 12, 18, 24, 36, 48, 96)], ids=str)
    def test_matches_matrix(self, kv, rng):
        n = int(np.prod(kv))
        spec = _spec(kv, np.zeros(n, dtype=np.uint8))
        u = rng.integers(0, 2, (1000, n), dtype=np.uint8)
        assert np.array_equal(encode_recursive(u, spec), encode_matrix(u, spec))

    def test_all_zero(self):
        spec = _spec((2, 3), np.zeros(6, dtype=np.uint8))
        assert encode_recursive(np.zeros(6, dtype=np.uint8), spec).tolist() == [0] * 6

    def test_unit_last_gives_last_row(self):
        spec = _spec((2, 3), np.zeros(6, dtype=np.uint8))
        u = np.zeros(6, dtype=np.uint8)
        u[-1] = 1
        g = generator_matrix((2, 3))
        assert np.array_equal(encode_recursive(u, spec), g[-1])


class TestEncoderProperties:
    @pytest.mark.parametrize("kv", [(2, 3), (3, 3), (3, 2, 2), (2, 2, 3)], ids=str)
    def test_linearity(self, kv, rng):
        n = int(np.prod(kv))
        spec = _spec(kv, np.zeros(n, dtype=np.uint8))
        u1 = rng.integers(0, 2, (64, n), dtype=np.uint8)
        u2 = rng.integers(0, 2, (64, n), dtype=np.uint8)
        assert np.array_equal(
            encode_recursive(u1 ^ u2, spec),
            encode_recursive(u1, spec) ^ encode_recursive(u2, spec),
        )

    @pytest.mark.parametrize("kv", [(2, 3), (3, 3, 2), (2, 2, 2, 3)], ids=str)
    def test_bijection(self, kv, rng):
        n = int(np.prod(kv))
        spec = _spec(kv, np.zeros(n, dtype=np.uint8))
        u = rng.integers(0, 2, (128, n), dtype=np.uint8)
        x = encode_recursive(u, spec)
        assert np.array_equal(gf2_vecmat(x, inverse_generator(kv)), u)

    def test_encode_message_pipeline(self, rng):
        spec = _spec((2, 3), [1, 1, 0, 0, 0, 0])
        msg = rng.integers(0, 2, 4, dtype=np.uint8)
        x = encode_message(msg, spec)
        assert np.array_equal(x, encode_matrix(expand_message(msg, spec), spec))
