import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkpolar.construction import CodeSpec, design_code
from mkpolar.kernels import (
    factor_length,
    nearest_valid_lengths,
    stage_transform,
    validate_kernel_vector,
)

from conftest import (
    T2,
    T3,
    T3_INV,
    generator_matrix,
    gf2_matmul,
    gf2_vecmat,
    inverse_generator,
    is_valid_length,
    kernel_vectors,
)

KV_LE_96 = kernel_vectors(96)


def transform_matrix(kv, inverse=False):
    """The matrix stage_transform multiplies by: its rows are the images of the unit vectors."""
    n = int(np.prod(kv))
    return stage_transform(np.eye(n, dtype=np.uint8), kv, inverse=inverse)


def test_kernel_matrices():
    assert T2.tolist() == [[1, 0], [1, 1]]
    assert T3.tolist() == [[1, 1, 1], [1, 0, 1], [0, 1, 1]]


def test_kron_t2_t2():
    expected = [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]]
    assert generator_matrix((2, 2)).tolist() == expected
    assert transform_matrix((2, 2)).tolist() == expected


def test_kron_t2_t3():
    # Block structure [[T3, 0], [T3, T3]] of the length-6 generator.
    expected = np.zeros((6, 6), dtype=np.uint8)
    expected[:3, :3] = T3
    expected[3:, :3] = T3
    expected[3:, 3:] = T3
    assert np.array_equal(generator_matrix((2, 3)), expected)
    assert np.array_equal(transform_matrix((2, 3)), expected)


def test_kron_identity():
    # A one-kernel transform is the kernel itself, and its inverse the kernel's inverse.
    for k, kernel, inverse in ((2, T2, T2), (3, T3, T3_INV)):
        assert np.array_equal(transform_matrix((k,)), kernel)
        assert np.array_equal(transform_matrix((k,), inverse=True), inverse)


def test_kron_associative():
    # The transform of a kernel vector is the Kronecker product of the
    # transforms of its parts, however the vector is split.
    for kv in [(2, 2, 3), (3, 2, 3), (2, 3, 2)]:
        for cut in (1, 2):
            head, tail = transform_matrix(kv[:cut]), transform_matrix(kv[cut:])
            assert np.array_equal(transform_matrix(kv), np.kron(head, tail))


def test_generator_single_kernels():
    assert np.array_equal(generator_matrix((2,)), T2)
    assert np.array_equal(generator_matrix((3,)), T3)


def test_generator_2_3():
    assert np.array_equal(generator_matrix((2, 3)), np.kron(T2, T3))


def test_inverse_t2_self():
    assert np.array_equal(inverse_generator((2,)), T2)


def test_inverse_t3():
    t3_inv = inverse_generator((3,))
    assert t3_inv.tolist() == [[1, 0, 1], [1, 1, 0], [1, 1, 1]]
    assert np.array_equal(transform_matrix((3,), inverse=True), t3_inv)
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


@pytest.mark.parametrize("inverse", [False, True])
@pytest.mark.parametrize("kv", [(2,), (3,), (3, 2), (2, 3, 3), (3, 3, 2, 2)], ids=str)
def test_stage_transform_layouts_agree(kv, inverse, rng):
    # The one-frame and the frames-last paths give the oracle's bits in the
    # input's shape and leave the input as it was; an F-ordered batch comes
    # back F-ordered.
    n = int(np.prod(kv))
    m = inverse_generator(kv) if inverse else generator_matrix(kv)
    wide = rng.integers(0, 2, (10, n), dtype=np.uint8)
    before = wide.copy()
    inputs = [wide[0], wide[:1], wide[:1, np.newaxis], wide[:0], wide[:5], np.asfortranarray(wide[:5]),
              wide[::2], np.ascontiguousarray(wide.T).T[3:4]]
    for bits in inputs:
        for kernels in (kv, list(kv)):
            out = stage_transform(bits, kernels, inverse=inverse)
            assert out.shape == bits.shape and out.dtype == np.uint8
            assert np.array_equal(out, gf2_vecmat(bits, m))
    assert stage_transform(inputs[5], kv, inverse=inverse).flags.f_contiguous
    assert np.array_equal(wide, before)


def test_stage_transform_rejects_bad_input_after_a_cached_plan():
    bits = np.zeros(6, dtype=np.uint8)
    assert not stage_transform(bits, (2, 3), inverse=True).any()
    for kv in ((2, 4), [2, 5], (), (2,) * 17):
        with pytest.raises(ValueError):
            stage_transform(bits, kv, inverse=True)
    with pytest.raises(ValueError, match="code length 6"):
        stage_transform(np.zeros((2, 5), dtype=np.uint8), (2, 3))


@pytest.mark.parametrize("bits", ([0.5, 1], [2, 0], [-1, 0], np.array([0, 2], dtype=np.uint8)), ids=str)
def test_stage_transform_rejects_entries_other_than_0_or_1(bits):
    # A cast to uint8 would take 0.5 for 0, -1 for 255, and return no codeword.
    with pytest.raises(ValueError, match=r"bits entry \[[01]\] is (0\.5|2|-1), not 0 or 1"):
        stage_transform(bits, (2,))
    with pytest.raises(ValueError, match="not 0 or 1"):
        stage_transform(np.tile(bits, (3, 1)), (2,), inverse=True)


def test_stage_transform_takes_0d_integer_array_kernels():
    # An unhashable 0-d array passes the integer rule, so its plan is made from the validated
    # tuple; it once leaked the cache's "unhashable type" TypeError.
    for inverse in (False, True):
        assert stage_transform([0, 1], [np.array(2)], inverse=inverse).tolist() == [1, 1]


def test_validate_kernel_vector_rejects():
    with pytest.raises(ValueError):
        validate_kernel_vector(())
    with pytest.raises(ValueError):
        validate_kernel_vector((2, 4))


@pytest.mark.parametrize("kv", [(2.5, 3.9), (2.0, 3), ("2", "3")], ids=repr)
def test_non_integer_kernel_sizes_are_rejected(kv):
    # Each entry is taken by operator.index; a (2, 3) plan is cached first, so
    # the 2.0 cannot pass as the 2 it equals.
    bits = np.zeros(6, dtype=np.uint8)
    assert not stage_transform(bits, (2, 3)).any()
    frozen = np.array([1, 1, 1, 0, 0, 0], dtype=np.uint8)
    for build in (
        lambda: validate_kernel_vector(kv),
        lambda: design_code(kv, 3),
        lambda: CodeSpec(6, 3, kv, frozen),
        lambda: CodeSpec.from_frozen_indices(6, 3, kv, [0, 1, 2]),
        lambda: stage_transform(bits, kv),
        lambda: stage_transform(bits, kv, inverse=True),
    ):
        with pytest.raises(ValueError, match=f"kernel size {kv[0]!r} is not an integer") as info:
            build()
        assert "\n" not in str(info.value)


def test_numpy_integer_kernel_sizes_are_accepted():
    kv = (np.int64(2), np.uint8(3))
    assert validate_kernel_vector(kv) == (2, 3)
    assert all(type(k) is int for k in validate_kernel_vector(kv))
    assert design_code(kv, 3).kernels == design_code((2, 3), 3).kernels == (2, 3)
    assert np.array_equal(design_code(kv, 3).frozen, design_code((2, 3), 3).frozen)
    u = np.array([0, 0, 0, 1, 0, 1], dtype=np.uint8)
    assert np.array_equal(stage_transform(u, kv), stage_transform(u, (2, 3)))


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
