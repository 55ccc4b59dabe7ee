import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkpolar.kernels import (
    T2,
    T3,
    factor_length,
    generator_matrix,
    inverse_generator,
    is_valid_length,
    kron,
    nearest_valid_lengths,
    stage_transform,
    validate_kernel_vector,
)

from conftest import gf2_matmul, gf2_vecmat, kernel_vectors

KV_LE_96 = kernel_vectors(96)


def test_kernel_matrices():
    assert T2.tolist() == [[1, 0], [1, 1]]
    assert T3.tolist() == [[1, 1, 1], [1, 0, 1], [0, 1, 1]]


def test_kron_t2_t2():
    expected = [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]]
    assert kron(T2, T2).tolist() == expected


def test_kron_t2_t3():
    # Block structure [[T3, 0], [T3, T3]] of the length-6 generator.
    expected = np.zeros((6, 6), dtype=np.uint8)
    expected[:3, :3] = T3
    expected[3:, :3] = T3
    expected[3:, 3:] = T3
    assert np.array_equal(kron(T2, T3), expected)


def test_kron_identity():
    assert np.array_equal(kron(np.eye(1, dtype=np.uint8), T3), T3)


def test_kron_associative():
    for a, b, c in [(T2, T2, T3), (T3, T2, T3), (T2, T3, T2)]:
        assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))


def test_generator_single_kernels():
    assert np.array_equal(generator_matrix((2,)), T2)
    assert np.array_equal(generator_matrix((3,)), T3)


def test_generator_2_3():
    assert np.array_equal(generator_matrix((2, 3)), kron(T2, T3))


def test_inverse_t2_self():
    assert np.array_equal(inverse_generator((2,)), T2)


def test_inverse_t3():
    t3_inv = inverse_generator((3,))
    assert t3_inv.tolist() == [[1, 0, 1], [1, 1, 0], [1, 1, 1]]
    assert np.array_equal(gf2_matmul(T3, t3_inv), np.eye(3, dtype=np.uint8))


@pytest.mark.parametrize("kv", KV_LE_96, ids=str)
def test_generator_inverse_identity(kv):
    g = generator_matrix(kv)
    g_inv = inverse_generator(kv)
    assert np.array_equal(gf2_matmul(g, g_inv), np.eye(len(g), dtype=np.uint8))


def test_gf2_vecmat_t3_rows():
    assert gf2_vecmat((0, 1, 1), T3).tolist() == [1, 1, 0]
    assert gf2_vecmat((0, 0, 0), T3).tolist() == [0, 0, 0]


def test_gf2_vecmat_unit_vector_reads_row():
    g = generator_matrix((2, 3))
    u = np.zeros(6, dtype=np.uint8)
    u[0] = 1
    assert np.array_equal(gf2_vecmat(u, g), g[0])


def test_gf2_vecmat_dimension_mismatch():
    with pytest.raises(ValueError):
        gf2_vecmat((1, 0), T3)


@pytest.mark.parametrize("kv", KV_LE_96, ids=str)
def test_encode_decode_roundtrip(kv, rng):
    g = generator_matrix(kv)
    g_inv = inverse_generator(kv)
    u = rng.integers(0, 2, (8, len(g)), dtype=np.uint8)
    assert np.array_equal(gf2_vecmat(gf2_vecmat(u, g), g_inv), u)


@pytest.mark.parametrize("kv", KV_LE_96, ids=str)
def test_stage_transform_matches_matrix(kv, rng):
    g = generator_matrix(kv)
    u = rng.integers(0, 2, (16, len(g)), dtype=np.uint8)
    assert np.array_equal(stage_transform(u, kv), gf2_vecmat(u, g))
    assert np.array_equal(stage_transform(u, kv, inverse=True), gf2_vecmat(u, inverse_generator(kv)))


def test_stage_transform_single_frame(rng):
    kv = (3, 2, 3)
    u = rng.integers(0, 2, 18, dtype=np.uint8)
    assert np.array_equal(stage_transform(u, kv), gf2_vecmat(u, generator_matrix(kv)))


def test_validate_kernel_vector_rejects():
    with pytest.raises(ValueError):
        validate_kernel_vector(())
    with pytest.raises(ValueError):
        validate_kernel_vector((2, 4))


@given(st.integers(0, 8), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_factor_length_roundtrip(a, b):
    n = 2**a * 3**b
    if n >= 2:
        assert factor_length(n) == (a, b)


def test_factor_length_rejects_other_primes():
    with pytest.raises(ValueError, match="96 and 108"):
        factor_length(100)


def test_is_valid_length_agrees_with_factor_length():
    for n in range(-3, 5001):
        try:
            factor_length(n)
        except ValueError:
            assert not is_valid_length(n), n
        else:
            assert is_valid_length(n), n


def test_nearest_valid_lengths():
    assert nearest_valid_lengths(100) == (96, 108)
    assert nearest_valid_lengths(96) == (96, 108)
