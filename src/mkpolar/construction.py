"""Gaussian-approximation code construction for mixed binary/ternary stages.

Reliability design tracks the mean of the Gaussian-distributed LLR of every
synthetic channel down the decode tree. A node with mean z produces, at a
binary stage,

    w = phi_inv(1 - (1 - phi(z))^2)              children (w, 2z)

and at a ternary stage

    z_left = phi_inv(1 - (1 - phi(w))(1 - phi(z)))   children (z_left, w + z, 2z)

where phi and its inverse use the standard two-branch exponential
approximations. The K most reliable leaves form the information set.
"""

import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .kernels import code_length, factor_length, validate_kernel_vector

_ALPHA = -0.4527
_BETA = 0.0218
_GAMMA = 0.86
_A = 1.0 / _ALPHA
_B = -_BETA / _ALPHA
_C = 1.0 / _GAMMA
_PHI_X_SPLIT = 0.8678
_PHI_INV_Y_SPLIT = 0.6846

# Smallest normal double; keeps logs finite when phi underflows for huge means.
_FLOOR = sys.float_info.min

DEFAULT_DESIGN_EBN0_DB = 3.0


def phi(x):
    """Mean-to-expectation proxy phi(x), approximated in two branches."""
    if x < 0:
        raise ValueError(f"phi requires x >= 0, got {x}")
    if x < _PHI_X_SPLIT:
        return math.exp(0.0564 * x * x - 0.485 * x)
    return max(math.exp(_ALPHA * x**_GAMMA + _BETA), _FLOOR)


def phi_inv(y):
    """Inverse of phi on (0, 1], approximated in two branches."""
    if not 0.0 < y <= 1.0:
        raise ValueError(f"phi_inv requires 0 < y <= 1, got {y}")
    if y > _PHI_INV_Y_SPLIT:
        return 4.3049 * (1.0 - math.sqrt(1.0 + 0.9567 * math.log(y)))
    return (_A * math.log(y) + _B) ** _C


def _ga_children(z, k):
    # 1 - (1-p)^2 is computed as p*(2-p): the naive form cancels to zero in
    # double precision once p < 2^-53, long before phi itself underflows.
    p = phi(z)
    w = phi_inv(max(p * (2.0 - p), _FLOOR))
    if k == 2:
        return (w, 2.0 * z)
    pw = phi(w)
    z_left = phi_inv(max(pw + p - pw * p, _FLOOR))
    return (z_left, w + z, 2.0 * z)


def ebn0_db_to_linear(ebn0_db, rate):
    """Linear Eb/N0 at code rate `rate`; the one conversion, shared by GA and the channel.

    Raises ValueError unless 0 < rate < 1 and both 4*R*Eb/N0 (the GA's initial
    mean and the channel's LLR scale 2/sigma^2) and its inverse are finite and positive.
    """
    if not 0.0 < rate < 1.0:
        raise ValueError(f"rate must be in (0, 1), got {rate}")
    try:
        ebn0 = 10.0 ** (ebn0_db / 10.0)
    except OverflowError:
        ebn0 = math.inf
    scale = 4.0 * rate * ebn0
    if not (0.0 < scale < math.inf and 2.0 / scale < math.inf):
        raise ValueError(f"Eb/N0 {ebn0_db} dB is out of range: 4*R*Eb/N0 = {scale:g} at R = {rate:g}")
    return ebn0


def ga_reliabilities(kv, rate, ebn0_db):
    """Per-leaf LLR means of the N synthetic channels, in leaf-index order.

    The single channel mean 4*R*Eb/N0 is evolved through every stage of the
    decode tree; child order per stage is (left, [center,] right).
    """
    kv = validate_kernel_vector(kv)
    means = [4.0 * rate * ebn0_db_to_linear(ebn0_db, rate)]
    for k in kv:
        means = [child for z in means for child in _ga_children(z, k)]
    return np.array(means)


def select_frozen(z, k_bits):
    """Frozen mask freezing the N-K least reliable indices.

    Ties in the means freeze the lower index, so the mask is deterministic.
    """
    z = np.asarray(z, dtype=float)
    n = len(z)
    if not 0 <= k_bits <= n:
        raise ValueError(f"k_bits must be in [0, {n}], got {k_bits}")
    order = np.argsort(z, kind="stable")
    mask = np.zeros(n, dtype=np.uint8)
    mask[order[: n - k_bits]] = 1
    return mask


class OrderingStrategy:
    """Kernel placement strategies for the Kronecker product."""

    FIRST = "first"
    LAST = "last"
    HIGHEST_RELIABILITY = "highest_reliability"

    ALL = (FIRST, LAST, HIGHEST_RELIABILITY)


def order_kernels(n_two, n_three, strategy, rate=0.5, ebn0_db=DEFAULT_DESIGN_EBN0_DB):
    """Choose the kernel vector for n_two binary and n_three ternary stages.

    FIRST puts every ternary kernel before the binary ones, LAST after them.
    HIGHEST_RELIABILITY scores each distinct arrangement by the sum of the K
    largest GA means (K = round(rate * N)) and returns the best; ties keep
    the lexicographically first arrangement.
    """
    if n_two < 0 or n_three < 0 or n_two + n_three < 1:
        raise ValueError(f"need at least one kernel, got n_two={n_two}, n_three={n_three}")
    if strategy == OrderingStrategy.FIRST:
        return (3,) * n_three + (2,) * n_two
    if strategy == OrderingStrategy.LAST:
        return (2,) * n_two + (3,) * n_three
    if strategy != OrderingStrategy.HIGHEST_RELIABILITY:
        raise ValueError(f"unknown ordering strategy {strategy!r}")

    if n_two == 0 or n_three == 0:
        return (2,) * n_two + (3,) * n_three
    slots = n_two + n_three
    n = 2**n_two * 3**n_three
    k_bits = round(rate * n)
    best_kv, best_score = None, -math.inf
    for pos in itertools.combinations(range(slots), n_three):
        kv = tuple(3 if i in pos else 2 for i in range(slots))
        z = ga_reliabilities(kv, rate, ebn0_db)
        score = np.sort(z)[n - k_bits :].sum()
        if score > best_score:
            best_kv, best_score = kv, score
    return best_kv


@dataclass(eq=False)
class CodeSpec:
    """Complete definition of one code: length, dimension, kernels, frozen set."""

    n_bits: int
    k_bits: int
    kernels: tuple
    frozen: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.kernels = validate_kernel_vector(self.kernels)
        n = code_length(self.kernels)
        if self.n_bits != n:
            raise ValueError(f"n_bits={self.n_bits} does not match kernel product {n}")
        if not 0 <= self.k_bits <= self.n_bits:
            raise ValueError(f"k_bits must be in [0, {self.n_bits}], got {self.k_bits}")
        self.frozen = np.asarray(self.frozen, dtype=np.uint8)
        if self.frozen.shape != (self.n_bits,):
            raise ValueError(f"frozen mask must have length {self.n_bits}")
        if not np.isin(self.frozen, (0, 1)).all():
            raise ValueError("frozen mask entries must be 0 or 1")
        if int(self.frozen.sum()) != self.n_bits - self.k_bits:
            raise ValueError(
                f"frozen mask weight {int(self.frozen.sum())} != N - K = {self.n_bits - self.k_bits}"
            )

    @property
    def rate(self):
        return self.k_bits / self.n_bits

    @property
    def frozen_indices(self):
        return np.flatnonzero(self.frozen)

    @property
    def info_indices(self):
        return np.flatnonzero(self.frozen == 0)


def design_code(kernels, k_bits, ebn0_db=DEFAULT_DESIGN_EBN0_DB):
    """Build a CodeSpec with the frozen set chosen by GA at the given Eb/N0."""
    kernels = validate_kernel_vector(kernels)
    n = code_length(kernels)
    if 0 < k_bits < n:
        z = ga_reliabilities(kernels, k_bits / n, ebn0_db)
        frozen = select_frozen(z, k_bits)
    else:
        # Degenerate all-frozen / all-information codes skip GA.
        frozen = np.full(n, 1 if k_bits == 0 else 0, dtype=np.uint8)
    return CodeSpec(n_bits=n, k_bits=k_bits, kernels=kernels, frozen=frozen)


def construct_code(n_bits, k_bits, ordering=OrderingStrategy.LAST, ebn0_db=DEFAULT_DESIGN_EBN0_DB):
    """Factor n_bits, order the kernels, and design the frozen set."""
    n_two, n_three = factor_length(n_bits)
    rate = k_bits / n_bits if 0 < k_bits < n_bits else 0.5
    kv = order_kernels(n_two, n_three, ordering, rate=rate, ebn0_db=ebn0_db)
    return design_code(kv, k_bits, ebn0_db=ebn0_db)
