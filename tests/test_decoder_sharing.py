"""Decoders keep no per-decode state: one instance serves any number of threads."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mkpolar.construction import construct_code

from conftest import DECODERS


@pytest.fixture(scope="module")
def spec():
    return construct_code(144, 72, "last", ebn0_db=2.0)


def _batches(n, rng):
    """Batches of different sizes; half of them hold many exact-zero LLRs."""
    sizes = (37, 1, 64, 5)
    return [
        rng.integers(-2, 3, (size, n)).astype(float) if i % 2 else rng.normal(1.0, 2.0, (size, n))
        for i, size in enumerate(sizes)
    ]


@pytest.mark.parametrize("kind", DECODERS)
def test_one_decoder_shared_by_threads_gives_sequential_results(kind, spec, rng):
    decoder = DECODERS[kind](spec)
    batches = _batches(spec.n_bits, rng)
    expected = [decoder.decode_batch(llrs) for llrs in batches]
    start = threading.Barrier(len(batches))

    def work(llrs):
        start.wait(timeout=60)
        return [decoder.decode_batch(llrs) for _ in range(10)]

    # Threads switch often, so their decodes interleave mid-walk.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(batches)) as pool:
            results = list(pool.map(work, batches, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    for (u_want, x_want), runs in zip(expected, results):
        for u, x in runs:
            assert np.array_equal(u, u_want) and np.array_equal(x, x_want)


@pytest.mark.parametrize("kind", DECODERS)
def test_decode_batch_leaves_decoder_unchanged(kind, spec, rng):
    decoder = DECODERS[kind](spec)
    before = dict(vars(decoder))
    leaves = dict(decoder._leaves)
    for llrs in _batches(spec.n_bits, rng):
        decoder.decode_batch(llrs)
        decoder.decode(llrs[0])
    assert vars(decoder).keys() == before.keys()
    assert all(vars(decoder)[name] is value for name, value in before.items())
    assert decoder._leaves == leaves


@pytest.mark.parametrize("kind", DECODERS)
def test_calls_return_arrays_that_share_no_memory(kind, spec, rng):
    decoder = DECODERS[kind](spec)
    llrs = rng.normal(1.0, 2.0, (8, spec.n_bits))
    first = decoder.decode_batch(llrs)
    second = decoder.decode_batch(llrs)
    for a in first:
        for b in second:
            assert not np.shares_memory(a, b)
    u_first, _ = decoder.decode(llrs[0])
    u_second, _ = decoder.decode(llrs[0])
    assert not np.shares_memory(u_first, u_second)
    assert not np.shares_memory(first[0], llrs) and not np.shares_memory(first[1], llrs)
