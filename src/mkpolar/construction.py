"""Gaussian-approximation code construction for mixed binary/ternary stages.

Reliability design tracks the mean of the Gaussian-distributed LLR of every
synthetic channel down the decode tree. A node with mean z produces, at a
binary stage,

    w = phi_inv(1 - (1 - phi(z))^2)              children (w, 2z)

and at a ternary stage

    z_left = phi_inv(1 - (1 - phi(w))(1 - phi(z)))   children (z_left, w + z, 2z)

where phi and its inverse use the standard two-branch exponential
approximations (Trifonov, IEEE TCOM 2012). The K most reliable leaves form
the information set. GA evolves a whole stage at once over numpy arrays; the
means after stage j depend only on the first j kernels, so highest-reliability
ordering computes each kernel prefix's means once.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .kernels import MAX_CODE_LENGTH, factor_length, validate_kernel_vector

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


def _phi(x):
    """phi over an array of means x >= 0; the small-x branch sees clamped inputs."""
    xs = np.minimum(x, _PHI_X_SPLIT)  # its polynomial would overflow exp at large x
    small = np.exp(0.0564 * xs * xs - 0.485 * xs)
    large = np.maximum(np.exp(_ALPHA * x**_GAMMA + _BETA), _FLOOR)
    return np.where(x < _PHI_X_SPLIT, small, large)


def _phi_inv(y):
    """phi_inv over an array y in (0, 1]; the sqrt branch sees clamped inputs."""
    log_y = np.log(y)
    near_one = 4.3049 * (1.0 - np.sqrt(np.maximum(1.0 + 0.9567 * log_y, 0.0)))
    return np.where(y > _PHI_INV_Y_SPLIT, near_one, (_A * log_y + _B) ** _C)


def phi(x):
    """Mean-to-expectation proxy phi(x), approximated in two branches."""
    if x < 0:
        raise ValueError(f"phi requires x >= 0, got {x}")
    return float(_phi(np.array([x], dtype=float))[0])


def phi_inv(y):
    """Inverse of phi on (0, 1], approximated in two branches."""
    if not 0.0 < y <= 1.0:
        raise ValueError(f"phi_inv requires 0 < y <= 1, got {y}")
    return float(_phi_inv(np.array([y], dtype=float))[0])


def _ga_stage(z, k):
    """Means of every node's k children, interleaved as (left, [center,] right)."""
    # 1 - (1-p)^2 is computed as p*(2-p): the naive form cancels to zero in
    # double precision once p < 2^-53, long before phi itself underflows.
    p = _phi(z)
    w = _phi_inv(np.maximum(p * (2.0 - p), _FLOOR))
    if k == 2:
        children = (w, 2.0 * z)
    else:
        pw = _phi(w)
        children = (_phi_inv(np.maximum(pw + p - pw * p, _FLOOR)), w + z, 2.0 * z)
    return np.column_stack(children).ravel()


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


def _initial_mean(rate, ebn0_db):
    return np.array([4.0 * rate * ebn0_db_to_linear(ebn0_db, rate)])


def ga_reliabilities(kv, rate, ebn0_db):
    """Per-leaf LLR means of the N synthetic channels, in leaf-index order.

    The single channel mean 4*R*Eb/N0 is evolved through every stage of the
    decode tree; child order per stage is (left, [center,] right).
    """
    kv = validate_kernel_vector(kv)
    z = _initial_mean(rate, ebn0_db)
    for k in kv:
        z = _ga_stage(z, k)
    return z


def _arrangements(z, n_two, n_three):
    """Yield (kv, means) for each arrangement of the kernels left below means z.

    A 3 goes before a 2 at each slot (itertools.combinations order over the
    ternary positions); each prefix's means are shared by all its extensions.
    """
    if n_two == n_three == 0:
        yield (), z
        return
    for k, left_two, left_three in ((3, n_two, n_three - 1), (2, n_two - 1, n_three)):
        if left_two >= 0 and left_three >= 0:
            for kv, means in _arrangements(_ga_stage(z, k), left_two, left_three):
                yield (k,) + kv, means


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
    the arrangement whose ternary positions come first in
    itertools.combinations order, i.e. a 3 before a 2 at the first slot
    where two arrangements differ.
    """
    if n_two < 0 or n_three < 0 or n_two + n_three < 1:
        raise ValueError(f"need at least one kernel, got n_two={n_two}, n_three={n_three}")
    n = 2**n_two * 3**n_three
    if n > MAX_CODE_LENGTH:  # before any GA stage runs
        raise ValueError(f"code length {n} is above the maximum of {MAX_CODE_LENGTH}")
    if strategy == OrderingStrategy.FIRST:
        return (3,) * n_three + (2,) * n_two
    if strategy == OrderingStrategy.LAST:
        return (2,) * n_two + (3,) * n_three
    if strategy != OrderingStrategy.HIGHEST_RELIABILITY:
        raise ValueError(f"unknown ordering strategy {strategy!r}")

    k_bits = round(rate * n)
    best_kv, best_score = None, -math.inf
    for kv, z in _arrangements(_initial_mean(rate, ebn0_db), n_two, n_three):
        score = np.sort(z)[n - k_bits :].sum()
        if score > best_score:
            best_kv, best_score = kv, score
    return best_kv


@dataclass(eq=False)
class CodeSpec:
    """Complete definition of one code: length, dimension, kernels, frozen set,
    and the Eb/N0 design_code chose it at (None if built by hand or loaded)."""

    n_bits: int
    k_bits: int
    kernels: tuple
    frozen: np.ndarray = field(repr=False)
    design_ebn0_db: float | None = None

    def __post_init__(self):
        self.kernels = validate_kernel_vector(self.kernels)
        n = math.prod(self.kernels)
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
    n = math.prod(kernels)
    if 0 < k_bits < n:
        z = ga_reliabilities(kernels, k_bits / n, ebn0_db)
        frozen = select_frozen(z, k_bits)
    else:
        # Degenerate all-frozen / all-information codes skip GA.
        frozen = np.full(n, 1 if k_bits == 0 else 0, dtype=np.uint8)
    return CodeSpec(n, k_bits, kernels, frozen, design_ebn0_db=ebn0_db)


def construct_code(n_bits, k_bits, ordering=OrderingStrategy.LAST, ebn0_db=DEFAULT_DESIGN_EBN0_DB):
    """Factor n_bits, order the kernels, and design the frozen set."""
    n_two, n_three = factor_length(n_bits)
    rate = k_bits / n_bits if 0 < k_bits < n_bits else 0.5
    kv = order_kernels(n_two, n_three, ordering, rate=rate, ebn0_db=ebn0_db)
    return design_code(kv, k_bits, ebn0_db=ebn0_db)
