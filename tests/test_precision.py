"""Decoding in float32: the walk follows the precision of the LLRs it is given.

float32 LLRs are decoded in float32 from the saturation to the last leaf, and
anything else in float64. These tests bound what the rounding may change: how
many frames' decisions differ from float64 on the same channel LLRs, the FER,
and the equivalences and saturation rules the float64 decoders keep.
"""

import inspect
import math

import numpy as np
import pytest

from mkpolar import fast_ssc, sc
from mkpolar.construction import design_code
from mkpolar.encoding import expand_message
from mkpolar.fast_ssc import FastSSCDecoder, NodeLimits
from mkpolar.kernels import stage_transform
from mkpolar.sc import SCDecoder

from conftest import DECODERS, noiseless_llrs

# At most this share of frames (8 of 4096) may decide any bit differently in
# float32 than in float64 on the same channel LLRs. None did for any code and
# decoder below at 2 dB; float32 rounds an LLR by a relative 6e-8, so only a
# frame with a near-tie decision can differ, and a lost bit of precision
# shows as far more.
MAX_DIFFERING_SHARE = 0.002


def channel_frames(spec, count, seed, ebn0_db=2.0):
    """(u, llrs): random messages' sourcewords and their float64 BPSK/AWGN LLRs."""
    rng = np.random.default_rng(seed)
    sigma2 = 1.0 / (2.0 * spec.rate * 10 ** (ebn0_db / 10))
    u = expand_message(rng.integers(0, 2, (count, spec.k_bits), dtype=np.uint8), spec)
    x = stage_transform(u, spec.kernels)
    noise = rng.standard_normal(x.shape)
    return u, 2.0 * ((1.0 - 2.0 * x) + np.sqrt(sigma2) * noise) / sigma2


def binomial_sd(errors, frames):
    p = errors / frames
    return math.sqrt(p * (1 - p) / frames)


@pytest.mark.parametrize("kind", DECODERS)
@pytest.mark.parametrize(
    "kv,k", [((2, 2, 2, 2, 2, 3), 48), ((3, 3, 3, 2, 2, 2, 2), 216), ((3, 3) + (2,) * 8, 1152)], ids=str
)
def test_float32_decides_like_float64(kind, kv, k):
    # N = 96, 432 and 2304 at R = 1/2, 2 dB: FER 0.10-0.24.
    spec = design_code(kv, k, ebn0_db=2.0)
    decoder = DECODERS[kind](spec)
    frames = 4096
    u, llrs = channel_frames(spec, frames, seed=spec.n_bits)
    u64, x64 = decoder.decode_batch(llrs)
    u32, x32 = decoder.decode_batch(llrs.astype(np.float32))
    differing = int((u32 != u64).any(axis=1).sum())
    assert differing <= MAX_DIFFERING_SHARE * frames
    assert np.array_equal(x32, stage_transform(u32, spec.kernels))
    # Both FERs estimate the same channel: they agree within 3 combined sigmas.
    e64, e32 = int((u64 != u).any(axis=1).sum()), int((u32 != u).any(axis=1).sum())
    assert 0 < e64 < frames
    slack = 3 * math.hypot(binomial_sd(e64, frames), binomial_sd(e32, frames))
    assert abs(e32 - e64) / frames <= max(slack, 3 / frames)


@pytest.mark.parametrize(
    "kv,k", [((2, 3), 3), ((3, 2), 4), ((2, 2, 3), 6), ((3, 3, 2), 9), ((2, 2, 2, 2, 2, 3), 48)], ids=str
)
def test_float32_fast_ssc_without_spc_equals_sc(kv, k):
    # Gaussian LLRs are tie-free in float32 too, so the pruned walk is bit-exact.
    spec = design_code(kv, k, ebn0_db=3.0)
    _, llrs = channel_frames(spec, 2000, seed=k)
    llrs = llrs.astype(np.float32)
    u_sc, x_sc = SCDecoder(spec).decode_batch(llrs)
    u_f, x_f = FastSSCDecoder(spec, limits=NodeLimits(spc=False)).decode_batch(llrs)
    assert np.array_equal(u_f, u_sc) and np.array_equal(x_f, x_sc)


@pytest.mark.parametrize("kind", DECODERS)
@pytest.mark.parametrize("kv", [(2, 3), (3, 2), (2, 2, 3), (3, 3, 2), (2, 2, 2, 2, 2, 3)], ids=str)
def test_float32_frame_decides_as_in_a_batch(kind, kv, rng):
    # One float32 frame computes its single bits' LLRs in float64, a batch in
    # float32; each is one exact min/max or one sum, whose sign both types keep.
    # Small integers give ties and exact zero sums, tiny and huge values sums
    # that round differently in the two types.
    n = math.prod(kv)
    decoder = DECODERS[kind](design_code(kv, n // 2, ebn0_db=2.0))
    values = np.array([0, 1, 2, 3, 1e-45, 1e-38, 1e-7, 1e7, 1e30, 1e35])
    llrs = np.where(rng.random((300, n)) < 0.7, rng.choice(values, (300, n)), 4 * rng.standard_normal((300, n)))
    llrs = (llrs * rng.choice([-1.0, 1.0], llrs.shape)).astype(np.float32)
    u_batch, x_batch = decoder.decode_batch(llrs)
    for frame, u_b, x_b in zip(llrs, u_batch, x_batch):
        u_f, x_f = decoder.decode(frame)
        assert np.array_equal(u_f, u_b) and np.array_equal(x_f, x_b)


@pytest.mark.parametrize("kind", DECODERS)
def test_float32_infinite_and_huge_llrs_saturate(kind, rng):
    spec = design_code((2, 2, 2, 2, 2, 3), 48)
    decoder = DECODERS[kind](spec)
    u = expand_message(rng.integers(0, 2, (40, spec.k_bits), dtype=np.uint8), spec)
    x = stage_transform(u, spec.kernels)
    magnitude = rng.choice([np.inf, 3e38, 4.0], size=x.shape)
    u_hat, x_hat = decoder.decode_batch(noiseless_llrs(x, magnitude).astype(np.float32))
    assert np.array_equal(u_hat, u) and np.array_equal(x_hat, x)
    # inf, 3e38 and the saturation bound itself decide alike, with no overflow.
    signs = rng.choice([-1.0, 1.0], size=x.shape).astype(np.float32)
    bound = np.finfo(np.float32).max / (2 * spec.n_bits)
    outputs = [decoder.decode_batch(signs * m) for m in (np.float32(np.inf), np.float32(3e38), bound)]
    for u_m, x_m in outputs[1:]:
        assert np.array_equal(u_m, outputs[0][0]) and np.array_equal(x_m, outputs[0][1])


@pytest.mark.parametrize("kind", DECODERS)
def test_float32_nan_rejected(kind):
    spec = design_code((2, 3), 3)
    llrs = np.ones((2, 6), dtype=np.float32)
    llrs[1, 4] = np.nan
    with pytest.raises(ValueError, match="LLR 4 of frame 1 is NaN"):
        DECODERS[kind](spec).decode_batch(llrs)
    with pytest.raises(ValueError, match="LLR 4 of frame 0 is NaN"):
        DECODERS[kind](spec).decode(llrs[1])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", DECODERS)
def test_complex_llrs_rejected(kind):
    # Cast to float, a complex LLR would lose its imaginary part with only a
    # ComplexWarning; an all-real complex array is rejected by its type too.
    decoder = DECODERS[kind](design_code((2, 3), 3))
    for llr in (np.ones(6) + 1j, np.ones(6, dtype=np.complex64), [1j] * 6):
        with pytest.raises(ValueError, match="LLRs must be real"):
            decoder.decode(llr)
    with pytest.raises(ValueError, match="LLRs must be real"):
        decoder.decode_batch(np.ones((2, 6)) - 1j)


STEPS = ("f_op", "g_op", "lambda0", "lambda1", "lambda2")
LEAVES = ("decode_rate1", "decode_spc", "decode_rep")


class FloatArrayLog:
    """numpy, except that array() and asarray() log the type of every float
    array they return: the leaf decoders' LLRs and the REP pattern sum."""

    def __init__(self, seen):
        self._seen = seen

    def __getattr__(self, name):
        return getattr(np, name)

    def _log(self, out):
        if np.issubdtype(out.dtype, np.floating):
            self._seen.setdefault("leaf float arrays", set()).add(out.dtype)
        return out

    def array(self, *args, **kwargs):
        return self._log(np.array(*args, **kwargs))

    def asarray(self, *args, **kwargs):
        return self._log(np.asarray(*args, **kwargs))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", DECODERS)
def test_walk_keeps_the_llr_precision(kind, dtype, monkeypatch):
    # A silent upcast would cost the float32 speed and fail nothing else. One
    # float64 frame walks its nodes of span <= 27 on lists, whose Python floats
    # are float64; a float32 frame takes the float form only for single bits.
    seen, lists = {}, []

    def log_output(name):
        original = getattr(sc, name)

        def wrapper(*args):
            result = original(*args)
            is_list = isinstance(result, list)
            types = {type(v) for v in result} if is_list else {getattr(result, "dtype", type(result))}
            lists.append(is_list)
            seen.setdefault(name, set()).update(types)
            return result

        monkeypatch.setattr(sc, name, wrapper)

    for name in STEPS:
        log_output(name)
    # Both kernels at every depth, so every step and, in Fast-SSC, every leaf class runs.
    spec = design_code((2, 3, 2, 3, 2, 3), 108, ebn0_db=2.0)
    decoder = DECODERS[kind](spec)
    used = {n.node_class.value for n in getattr(decoder, "schedule", ()) if n.span > 1}
    monkeypatch.setattr(fast_ssc, "np", FloatArrayLog(seen))
    _, llrs = channel_frames(spec, 5, seed=1)
    expected = set(STEPS) | ({"leaf float arrays"} if used else set())
    decoder.decode_batch(llrs.astype(dtype))
    assert set(seen) == expected
    assert all(types == {np.dtype(dtype)} for types in seen.values()), seen
    seen.clear()
    decoder.decode(llrs[0].astype(dtype))
    assert set(seen) == expected
    if dtype == np.float64:
        assert all(seen.pop(name) in ({float}, {float, np.dtype(dtype)}) for name in STEPS), seen
    else:
        assert not any(lists) and (float in seen["f_op"] or kind != "sc"), seen
        assert all(seen.pop(name) - {float} == {np.dtype(dtype)} for name in STEPS), seen
    assert all(types == {np.dtype(dtype)} for types in seen.values()), seen
    if kind != "sc":
        assert {"rate1", "rep3a", "rep3c"} <= used and ("spc" in used) == (kind == "fastssc")


def test_only_float32_stays_float32(monkeypatch):
    # Lists of Python floats or ints, integer arrays and every float type but native
    # float32 walk float64 slabs; float32 frames walk float32 ones. A node above span
    # 27 runs numpy steps even in one float64 frame, so decode and decode_batch both
    # show the type of the slab block each step writes into.
    written = []

    def log_out(name):
        original = getattr(sc, name)
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            out = signature.bind(*args, **kwargs).arguments.get("out")
            if out is not None:
                written.append(out.dtype)
            return original(*args, **kwargs)

        monkeypatch.setattr(sc, name, wrapper)

    for name in STEPS:
        log_out(name)
    spec = design_code((2, 3, 2, 3, 2, 3), 108, ebn0_db=2.0)
    _, llrs = channel_frames(spec, 2, seed=1)
    ints = np.rint(llrs).astype(int)
    cases = [(llrs.tolist(), np.float64), (ints.tolist(), np.float64), (ints, np.float64),
             (llrs.astype(np.float16), np.float64),
             (llrs.astype(np.dtype(np.float32).newbyteorder()), np.float64),
             (llrs.astype(np.float32), np.float32)]
    for make in DECODERS.values():
        decoder = make(spec)
        for frames, want in cases:
            for decode, arg in ((decoder.decode, frames[0]), (decoder.decode_batch, frames)):
                written.clear()
                decode(arg)
                assert written and set(written) == {np.dtype(want)}, (type(arg), want)
    assert fast_ssc.decode_rep([1.0, -2.0], fast_ssc.rep_pattern((2,)))[0].tolist() == [1, 1]
