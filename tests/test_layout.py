"""Decoders, message expansion and the stage transform give the same results whatever the
memory layout of their input, in the memory order of that input."""

import numpy as np
import pytest

from mkpolar.construction import construct_code
from mkpolar.encoding import expand_message
from mkpolar.kernels import stage_transform

from conftest import DECODERS, generator_matrix, gf2_vecmat, inverse_generator


@pytest.fixture(scope="module", params=[(144, 72, "last"), (72, 36, "first")], ids=str)
def spec(request):
    return construct_code(*request.param, ebn0_db=2.0)


def _layouts(llrs):
    """The same frames as C-ordered, Fortran-ordered, transposed-view, row-strided and column-sliced arrays."""
    batch, n = llrs.shape
    doubled = np.full((2 * batch, n), np.nan)
    doubled[::2] = llrs
    wide = np.full((batch, n + 3), np.nan)
    wide[:, 2 : n + 2] = llrs
    return {
        "c": np.ascontiguousarray(llrs),
        "fortran": np.asfortranarray(llrs),
        "transposed-view": np.ascontiguousarray(llrs.T).T,
        "row-strided": doubled[::2],
        "column-sliced": wide[:, 2 : n + 2],
    }


# The memory order each layout's (batch, N) results come back in: F-contiguous
# inputs get the frames-last arrays themselves, any other input a C-ordered copy.
RESULT_ORDER = {
    "c": "C_CONTIGUOUS",
    "fortran": "F_CONTIGUOUS",
    "transposed-view": "F_CONTIGUOUS",
    "row-strided": "C_CONTIGUOUS",
    "column-sliced": "C_CONTIGUOUS",
}


@pytest.mark.parametrize("batch", (0, 1, 37))
@pytest.mark.parametrize("kind", DECODERS)
def test_decode_batch_does_not_depend_on_input_layout(kind, batch, spec, rng):
    decoder = DECODERS[kind](spec)
    n = spec.n_bits
    # Every other frame holds integer LLRs, so many exact zeros (ties).
    llrs = np.array([
        rng.integers(-2, 3, n).astype(float) if i % 2 else rng.normal(1.0, 2.0, n)
        for i in range(batch)
    ]).reshape(batch, n)
    singles = [decoder.decode(row) for row in llrs]
    for name, layout in _layouts(llrs).items():
        u_hat, x_hat = decoder.decode_batch(layout)
        assert u_hat.shape == x_hat.shape == (batch, n), name
        assert u_hat.flags[RESULT_ORDER[name]] and x_hat.flags[RESULT_ORDER[name]], name
        for frame, (u, x) in enumerate(singles):
            assert np.array_equal(u_hat[frame], u), (name, frame)
            assert np.array_equal(x_hat[frame], x), (name, frame)


def test_stage_transform_on_noncontiguous_input_with_two_leading_axes(rng):
    kv = (2, 3, 2)
    n = 12
    u = rng.integers(0, 2, (4, 3, 2 * n), dtype=np.uint8).transpose(1, 0, 2)[:, :, ::2]
    assert u.shape == (3, 4, n) and not (u.flags.c_contiguous or u.flags.f_contiguous)
    before = u.copy()
    assert np.array_equal(stage_transform(u, kv), gf2_vecmat(u, generator_matrix(kv)))
    assert np.array_equal(stage_transform(u, kv, inverse=True), gf2_vecmat(u, inverse_generator(kv)))
    assert np.array_equal(u, before)


def test_stage_transform_keeps_the_memory_order_of_its_input(rng):
    kv = (3, 2, 2)
    u = rng.integers(0, 2, (5, 12), dtype=np.uint8)
    expected = gf2_vecmat(u, generator_matrix(kv))
    c_result = stage_transform(u, kv)
    f_result = stage_transform(np.asfortranarray(u), kv)
    assert c_result.flags.c_contiguous and f_result.flags.f_contiguous
    assert np.array_equal(c_result, expected) and np.array_equal(f_result, expected)


@pytest.mark.parametrize("batch", (1, 37))
def test_expand_message_keeps_the_memory_order_of_its_input(batch, spec, rng):
    msgs = rng.integers(0, 2, (batch, spec.k_bits), dtype=np.uint8)
    expected = np.zeros((batch, spec.n_bits), dtype=np.uint8)
    expected[:, spec.info_indices] = msgs
    for name, layout in _layouts(msgs).items():
        u = expand_message(layout, spec)
        assert u.flags[RESULT_ORDER[name]], name
        assert np.array_equal(u, expected), name
