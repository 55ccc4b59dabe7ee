import itertools
import re

import numpy as np
import pytest

from mkpolar.encoding import encode_message, expand_message
from mkpolar.kernels import stage_transform

from conftest import (
    encode_matrix,
    generator_matrix,
    gf2_vecmat,
    inverse_generator,
    kernel_vectors,
    spec_with_frozen,
)


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

    @pytest.mark.parametrize(
        "message,complaint",
        [([2, 0, 1], "entry [0] is 2,"), ([0.6, 0, 1], "entry [0] is 0.6,"),
         (np.array([0, 1, 255], dtype=np.uint8), "entry [2] is 255,"),
         ([[0, 1, 1], [1, 0, -1]], "entry [1, 2] is -1,"), ([0, np.nan, 1], "entry [1] is nan,")],
        ids=("int", "float", "uint8", "batch", "nan"),
    )
    def test_non_binary_message_rejected(self, message, complaint):
        spec = _spec((2, 2), [1, 0, 0, 0])
        for call in (expand_message, encode_message):
            with pytest.raises(ValueError, match=re.escape(complaint)):
                call(message, spec)

    def test_binary_message_of_any_dtype_accepted(self):
        spec = _spec((2, 2), [1, 0, 0, 0])
        for message in ([1, 0, 1], [1.0, 0.0, 1.0], [True, False, True], np.array([1, 0, 1], np.uint8)):
            u = expand_message(message, spec)
            assert u.dtype == np.uint8 and u.tolist() == [0, 1, 0, 1]


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
        assert np.array_equal(stage_transform(u, spec.kernels), encode_matrix(u, spec))

    def test_all_zero(self):
        spec = _spec((2, 3), np.zeros(6, dtype=np.uint8))
        assert stage_transform(np.zeros(6, dtype=np.uint8), spec.kernels).tolist() == [0] * 6

    def test_unit_last_gives_last_row(self):
        spec = _spec((2, 3), np.zeros(6, dtype=np.uint8))
        u = np.zeros(6, dtype=np.uint8)
        u[-1] = 1
        g = generator_matrix((2, 3))
        assert np.array_equal(stage_transform(u, spec.kernels), g[-1])


class TestEncoderProperties:
    @pytest.mark.parametrize("kv", [(2, 3), (3, 3), (3, 2, 2), (2, 2, 3)], ids=str)
    def test_linearity(self, kv, rng):
        n = int(np.prod(kv))
        spec = _spec(kv, np.zeros(n, dtype=np.uint8))
        u1 = rng.integers(0, 2, (64, n), dtype=np.uint8)
        u2 = rng.integers(0, 2, (64, n), dtype=np.uint8)
        assert np.array_equal(
            stage_transform(u1 ^ u2, spec.kernels),
            stage_transform(u1, spec.kernels) ^ stage_transform(u2, spec.kernels),
        )

    @pytest.mark.parametrize("kv", [(2, 3), (3, 3, 2), (2, 2, 2, 3)], ids=str)
    def test_bijection(self, kv, rng):
        n = int(np.prod(kv))
        spec = _spec(kv, np.zeros(n, dtype=np.uint8))
        u = rng.integers(0, 2, (128, n), dtype=np.uint8)
        x = stage_transform(u, spec.kernels)
        assert np.array_equal(gf2_vecmat(x, inverse_generator(kv)), u)

    def test_encode_message_pipeline(self, rng):
        spec = _spec((2, 3), [1, 1, 0, 0, 0, 0])
        msg = rng.integers(0, 2, 4, dtype=np.uint8)
        x = encode_message(msg, spec)
        assert np.array_equal(x, encode_matrix(expand_message(msg, spec), spec))
