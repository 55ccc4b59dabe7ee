import math
import sys
from functools import reduce

import numpy as np
import pytest
from hypothesis import strategies as st

from mkpolar.channel import BLOCK_FRAMES, awgn_llr, modulate
from mkpolar.construction import CodeSpec, design_code, ebn0_db_to_linear
from mkpolar.encoding import expand_message
from mkpolar.fast_ssc import FastSSCDecoder, NodeLimits
from mkpolar.kernels import stage_transform
from mkpolar.sc import SCDecoder

# The three decoder configurations whose outputs the equivalence tests compare.
DECODERS = {
    "sc": SCDecoder,
    "fastssc": FastSSCDecoder,
    "fastssc-nospc-general": lambda spec: FastSSCDecoder(
        spec, limits=NodeLimits(spc=False, general_rep=True)
    ),
}


def kernel_vectors(max_n, min_n=2):
    """All kernel vectors whose code length lies in [min_n, max_n]."""
    found = []

    def grow(prefix, width):
        if min_n <= width:
            found.append(tuple(prefix))
        for k in (2, 3):
            if width * k <= max_n:
                prefix.append(k)
                grow(prefix, width * k)
                prefix.pop()

    grow([], 1)
    return [kv for kv in found if kv]


# Dense GF(2) generators, the oracle for kernels.stage_transform: the Arikan
# kernel T2 and the ternary kernel T3 written out, independent of the row XORs
# the package runs. The inverse of a Kronecker product is the Kronecker product
# of the kernels' inverses, taken in the same order. T2 is its own inverse;
# T3 @ T3_INV = I (mod 2).
T2 = np.array([[1, 0], [1, 1]], dtype=np.uint8)
T3 = np.array([[1, 1, 1], [1, 0, 1], [0, 1, 1]], dtype=np.uint8)
T3_INV = np.array([[1, 0, 1], [1, 1, 0], [1, 1, 1]], dtype=np.uint8)
KERNELS = {2: T2, 3: T3}
KERNEL_INVERSES = {2: T2, 3: T3_INV}


def generator_matrix(kv):
    """N x N generator: Kronecker product of the kernels in kv order."""
    return reduce(np.kron, (KERNELS[k] for k in kv))


def inverse_generator(kv):
    """GF(2) inverse of generator_matrix(kv)."""
    return reduce(np.kron, (KERNEL_INVERSES[k] for k in kv))


def is_valid_length(n):
    """Whether n is a code length 2**a * 3**b >= 2 (the oracle for kernels.factor_length)."""
    if n < 2:
        return False
    for p in (2, 3):
        while n % p == 0:
            n //= p
    return n == 1


def gf2_vecmat(u, m):
    """Row vector times matrix over GF(2): result[j] = XOR_i u[i] * m[i, j]."""
    u = np.asarray(u, dtype=np.uint8)
    m = np.asarray(m, dtype=np.uint8)
    if u.shape[-1] != m.shape[0]:
        raise ValueError(f"dimension mismatch: vector length {u.shape[-1]} vs {m.shape[0]} rows")
    return (u.astype(np.uint32) @ m.astype(np.uint32)) % 2


def gf2_matmul(a, b):
    """Matrix product over GF(2)."""
    a = np.asarray(a, dtype=np.uint32)
    b = np.asarray(b, dtype=np.uint32)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    return ((a @ b) % 2).astype(np.uint8)


def spec_with_frozen(kv, frozen):
    frozen = np.asarray(frozen, dtype=np.uint8)
    n = math.prod(kv)
    return CodeSpec(n_bits=n, k_bits=n - int(frozen.sum()), kernels=tuple(kv), frozen=frozen)


def rate1_spec(kv):
    n = math.prod(kv)
    return spec_with_frozen(kv, np.zeros(n, dtype=np.uint8))


def rep_spec(kv):
    """All bits frozen except the last."""
    n = math.prod(kv)
    frozen = np.ones(n, dtype=np.uint8)
    frozen[-1] = 0
    return spec_with_frozen(kv, frozen)


def encode_matrix(u, spec):
    """Codeword x = u . G over GF(2) using the dense generator (oracle for the encoder)."""
    return gf2_vecmat(u, generator_matrix(spec.kernels)).astype(np.uint8)


def rate1_uhat_matrix(beta, kv_sub):
    """Rate-1 sourceword by the dense route beta . G_p^-1 (oracle for decode_rate1)."""
    return gf2_vecmat(beta, inverse_generator(kv_sub)).astype(np.uint8)


def frames_first_chunk(decoder, start, count, spec, sigma2, seed, point_index):
    """(frame_errors, bit_errors) of frames start..start+count-1 with every array
    C-ordered (frames, N): the frames-first formulation of channel._simulate_chunk,
    which decodes its float64 channel LLRs saturated and rounded to float32."""
    n, k = spec.n_bits, spec.k_bits
    msgs = np.empty((count, k), dtype=np.uint8)
    noise = np.empty((count, n))
    end = start + count
    for block in range(start // BLOCK_FRAMES, -(-end // BLOCK_FRAMES)):
        rng = np.random.default_rng([seed, point_index, block])
        first = block * BLOCK_FRAMES
        lo, hi = max(start, first), min(end, first + BLOCK_FRAMES)
        rows, taken = slice(lo - start, hi - start), slice(lo - first, hi - first)
        msgs[rows] = rng.integers(0, 2, size=(BLOCK_FRAMES, k), dtype=np.uint8)[taken]
        noise[rows] = rng.standard_normal((BLOCK_FRAMES, n))[taken]
    u = expand_message(msgs, spec)
    x = stage_transform(u, spec.kernels)
    bound = np.finfo(np.float32).max
    llrs = np.clip(awgn_llr(modulate(x), sigma2, noise), -bound, bound).astype(np.float32)
    u_hat, _ = decoder.decode_batch(llrs)
    assert llrs.flags.c_contiguous and u.flags.c_contiguous and u_hat.flags.c_contiguous
    bad = u_hat != u
    return int(bad.any(axis=1).sum()), int(bad[:, spec.info_indices].sum())


def noiseless_llrs(x, magnitude=6.0):
    return magnitude * (1.0 - 2.0 * np.asarray(x, dtype=float))


@st.composite
def arbitrary_specs(draw, max_n=72):
    """Codes with a random kernel vector and a completely arbitrary frozen mask."""
    kv = draw(
        st.lists(st.sampled_from([2, 3]), min_size=1, max_size=6).filter(
            lambda v: np.prod(v) <= max_n
        )
    )
    n = int(np.prod(kv))
    frozen = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return spec_with_frozen(tuple(kv), np.array(frozen, dtype=np.uint8))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def spec96():
    return design_code((2, 2, 2, 2, 2, 3), 48)


# Scalar Gaussian approximation, one synthetic channel at a time: the oracle
# for the array GA in mkpolar.construction.
_ALPHA, _BETA, _GAMMA = -0.4527, 0.0218, 0.86
_FLOOR = sys.float_info.min


def scalar_phi(x):
    if x < 0.8678:
        return math.exp(0.0564 * x * x - 0.485 * x)
    return max(math.exp(_ALPHA * x**_GAMMA + _BETA), _FLOOR)


def scalar_phi_inv(y):
    if y > 0.6846:
        return 4.3049 * (1.0 - math.sqrt(1.0 + 0.9567 * math.log(y)))
    return (1.0 / _ALPHA * math.log(y) - _BETA / _ALPHA) ** (1.0 / _GAMMA)


def _scalar_ga_children(z, k):
    p = scalar_phi(z)
    w = scalar_phi_inv(max(p * (2.0 - p), _FLOOR))
    if k == 2:
        return (w, 2.0 * z)
    pw = scalar_phi(w)
    z_left = scalar_phi_inv(max(pw + p - pw * p, _FLOOR))
    return (z_left, w + z, 2.0 * z)


def scalar_ga_reliabilities(kv, rate, ebn0_db):
    """Per-leaf GA means, evolving each node's mean on its own."""
    means = [4.0 * rate * ebn0_db_to_linear(ebn0_db, rate)]
    for k in kv:
        means = [child for z in means for child in _scalar_ga_children(z, k)]
    return np.array(means)
