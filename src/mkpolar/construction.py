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
ordering evolves its arrangements level by level, each kernel prefix once, with
one call per kernel per level for all prefixes, capped at 4N means. GA runs
once per code: a highest-reliability code freezes by the means its ordering
evolved for the winning arrangement, which equal that arrangement's GA bit for bit.
A designed CodeSpec keeps the means it froze by as its ga_means.
"""

import itertools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .kernels import MAX_CODE_LENGTH, _as_bits, _as_integer, factor_length, validate_kernel_vector

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

    Raises ValueError unless 0 < rate < 1 and ebn0_db is a real number for which 4*R*Eb/N0
    (the GA's initial mean and the channel's LLR scale 2/sigma^2) and its inverse are finite and positive.
    """
    if not 0.0 < rate < 1.0:
        raise ValueError(f"rate must be in (0, 1), got {rate}")
    try:
        ebn0 = 10.0 ** float(ebn0_db / 10.0)
    except OverflowError:
        ebn0 = math.inf
    except TypeError:
        raise ValueError(f"Eb/N0 {ebn0_db!r} is not a real number") from None
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


def _evolve_arrangements(n_two, n_three, rate, ebn0_db):
    """Yield (kv, GA means) for every arrangement of n_two 2s and n_three 3s, in
    itertools.combinations order over the ternary positions (a 3 before a 2 at each slot).

    Level by level, all prefixes of a run that take a 3 next share one _ga_stage call and
    all that take a 2 another; _ga_stage is elementwise, so each prefix's slice is bit for
    bit its own evolution. Levels are cut into runs of at most 4N means, done in order, so
    no call and no level held grows with the number of arrangements.
    """
    stages, max_width = n_two + n_three, 4 * 2**n_two * 3**n_three
    slots = ((3, n_three), (2, n_two))
    pending = [[((), _initial_mean(rate, ebn0_db))]]
    while pending:
        run = pending.pop()
        children = {}
        for k, count in slots:
            takers = [means for kv, means in run if kv.count(k) < count]
            if takers:
                out = _ga_stage(np.concatenate(takers), k)
                bounds = itertools.accumulate((k * len(means) for means in takers), initial=0)
                children[k] = iter([out[a:b] for a, b in itertools.pairwise(bounds)])
        level = [(kv + (k,), next(children[k])) for kv, _ in run for k, count in slots if kv.count(k) < count]
        if len(level[0][0]) == stages:
            yield from level
            continue
        size = max_width // max(len(means) for _, means in level)
        pending.extend(reversed([level[i : i + size] for i in range(0, len(level), size)]))


def select_frozen(z, k_bits):
    """Frozen mask freezing the N-K least reliable indices.

    Ties in the means freeze the lower index, so the mask is deterministic.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1:
        raise ValueError(f"reliabilities must be 1-D, got shape {z.shape}")
    n = len(z)
    k_bits = _as_integer("k_bits", k_bits, 0, n)
    if np.isnan(z).any():
        raise ValueError("reliabilities must not be NaN")
    order = np.argsort(z, kind="stable")
    mask = np.zeros(n, dtype=np.uint8)
    mask[order[: n - k_bits]] = 1
    return mask


class OrderingStrategy:
    """Kernel placement strategies for the Kronecker product."""

    FIRST = "first"
    LAST = "last"
    HIGHEST_RELIABILITY = "highest_reliability"


def order_kernels(n_two, n_three, strategy, rate=0.5, ebn0_db=DEFAULT_DESIGN_EBN0_DB):
    """Choose the kernel vector for n_two binary and n_three ternary stages.

    FIRST puts every ternary kernel before the binary ones, LAST after them.
    HIGHEST_RELIABILITY scores each distinct arrangement by the sum of the K
    largest GA means (K = round(rate * N)) and returns the best; ties keep
    the arrangement whose ternary positions come first in
    itertools.combinations order, i.e. a 3 before a 2 at the first slot
    where two arrangements differ. Arrangements are evolved level by level in
    that order, each prefix once, one GA call per kernel per level, capped at 4N means.
    """
    return _order_kernels(n_two, n_three, strategy, rate, ebn0_db)[0]


def _order_kernels(n_two, n_three, strategy, rate, ebn0_db):
    """(order_kernels' kernel vector, the GA means HIGHEST_RELIABILITY evolved for it, else None)."""
    stages = MAX_CODE_LENGTH.bit_length() - 1  # of the longest code; bounds each count
    n_two, n_three = _as_integer("n_two", n_two, 0, stages), _as_integer("n_three", n_three, 0, stages)
    first = validate_kernel_vector((3,) * n_three + (2,) * n_two)  # before any GA stage runs
    if strategy == OrderingStrategy.FIRST:
        return first, None
    if strategy == OrderingStrategy.LAST:
        return first[::-1], None
    if strategy != OrderingStrategy.HIGHEST_RELIABILITY:
        raise ValueError(f"unknown ordering strategy {strategy!r}")

    n = math.prod(first)
    k_bits = round(rate * n)
    best, best_score = None, -math.inf
    for kv, z in _evolve_arrangements(n_two, n_three, rate, ebn0_db):
        score = np.sort(z)[n - k_bits :].sum()
        if score > best_score:
            best, best_score = (kv, z), score
    return best[0], best[1].copy()  # a slice would keep its whole run of means alive


@dataclass(eq=False)
class CodeSpec:
    """Complete definition of one code: length, dimension, kernels, frozen set,
    the Eb/N0 design_code chose it at and the GA means it froze by (both None if
    built by hand or loaded; the means also None for a K of 0 or N).

    Every check of a code is made here, each failing with a one-line ValueError:
    the kernels, N, K and the frozen mask, and in from_frozen_indices each index.
    """

    n_bits: int
    k_bits: int
    kernels: tuple
    frozen: np.ndarray = field(repr=False)
    design_ebn0_db: float | None = None
    ga_means: np.ndarray | None = field(default=None, init=False, repr=False)

    @classmethod
    def from_frozen_indices(cls, n_bits, k_bits, kernels, frozen_indices):
        """CodeSpec freezing `frozen_indices`, each in 0..N-1 and listed once.
        The mask is sized by the validated kernel product, never by n_bits."""
        kernels = validate_kernel_vector(kernels)
        frozen = np.zeros(math.prod(kernels), dtype=np.uint8)
        for i in frozen_indices:
            i = _as_integer("frozen index", i, 0, len(frozen) - 1)
            if frozen[i]:
                raise ValueError(f"frozen index {i} is listed twice")
            frozen[i] = 1
        return cls(n_bits, k_bits, kernels, frozen)

    def __post_init__(self):
        self.kernels = validate_kernel_vector(self.kernels)
        n = math.prod(self.kernels)
        self.n_bits = _as_integer("N", self.n_bits)
        if self.n_bits != n:
            raise ValueError(f"N {self.n_bits} != kernel product {n}")
        self.k_bits = _as_integer("K", self.k_bits, 0, n)
        frozen = _as_bits("frozen mask", self.frozen)  # before a cast could make -1 a 255, 0.5 a 0
        if frozen.shape != (n,):
            raise ValueError(f"frozen mask must have length {n}")
        self.frozen = frozen.astype(np.uint8, copy=False)
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
    return _design(kernels, k_bits, ebn0_db)


def _design(kernels, k_bits, ebn0_db, z=None):
    """design_code's CodeSpec, running GA unless the kernels' means z are given;
    its ga_means are None for a K of 0 or N."""
    kernels = validate_kernel_vector(kernels)
    n = math.prod(kernels)
    k_bits = _as_integer("K", k_bits, 0, n)
    if 0 < k_bits < n:
        if z is None:
            z = ga_reliabilities(kernels, k_bits / n, ebn0_db)
        frozen = select_frozen(z, k_bits)
    else:
        # Degenerate all-frozen / all-information codes skip GA, not its Eb/N0 rule (at R = 1/2).
        ebn0_db_to_linear(ebn0_db, 0.5)
        z = None
        frozen = np.full(n, 1 if k_bits == 0 else 0, dtype=np.uint8)
    spec = CodeSpec(n, k_bits, kernels, frozen, design_ebn0_db=ebn0_db)
    spec.ga_means = z
    return spec


def construct_code(n_bits, k_bits, ordering=OrderingStrategy.LAST, ebn0_db=DEFAULT_DESIGN_EBN0_DB):
    """Factor n_bits, order the kernels, and design the frozen set; a
    highest-reliability code reuses its ordering's GA means (see module docstring)."""
    n_two, n_three = factor_length(n_bits)
    n_bits = 2**n_two * 3**n_three
    k_bits = _as_integer("K", k_bits, 0, n_bits)
    rate = k_bits / n_bits if 0 < k_bits < n_bits else 0.5
    kv, z = _order_kernels(n_two, n_three, ordering, rate, ebn0_db)
    return _design(kv, k_bits, ebn0_db, z)
