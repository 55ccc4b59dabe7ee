import math
import sys

import numpy as np
import pytest
from hypothesis import strategies as st

from mkpolar.construction import CodeSpec, design_code, ebn0_db_to_linear
from mkpolar.kernels import code_length, generator_matrix, gf2_vecmat, inverse_generator


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


def spec_with_frozen(kv, frozen):
    frozen = np.asarray(frozen, dtype=np.uint8)
    n = code_length(kv)
    return CodeSpec(n_bits=n, k_bits=n - int(frozen.sum()), kernels=tuple(kv), frozen=frozen)


def rate1_spec(kv):
    n = code_length(kv)
    return spec_with_frozen(kv, np.zeros(n, dtype=np.uint8))


def rep_spec(kv):
    """All bits frozen except the last."""
    n = code_length(kv)
    frozen = np.ones(n, dtype=np.uint8)
    frozen[-1] = 0
    return spec_with_frozen(kv, frozen)


def encode_matrix(u, spec):
    """Codeword x = u . G over GF(2) using the dense generator (oracle for the encoder)."""
    return gf2_vecmat(u, generator_matrix(spec.kernels)).astype(np.uint8)


def rate1_uhat_matrix(beta, kv_sub):
    """Rate-1 sourceword by the dense route beta . G_p^-1 (oracle for decode_rate1)."""
    return gf2_vecmat(beta, inverse_generator(kv_sub)).astype(np.uint8)


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
