"""GF(2) kernel algebra: the 2x2 and 3x3 polarizing kernels as row XORs.

The generator of a multi-kernel polar code is the left-to-right Kronecker
product of 2x2 and 3x3 polarizing kernels, described by a kernel vector such
as (2, 2, 3). Arithmetic is mod 2 on uint8 arrays with entries in {0, 1}.

The encoder, the decode tree's partial sums (apply_kernel) and the leaf
inverses all run the kernels as in-place row XORs (KERNEL_STEPS), stage by
stage. stage_transform keeps one immutable plan per kernel vector and
direction, so a call validates nothing it has seen before.
"""

import operator
from functools import lru_cache
from math import prod
from typing import NamedTuple

import numpy as np

# Arikan kernel and the ternary kernel.
T2 = np.array([[1, 0], [1, 1]], dtype=np.uint8)
T3 = np.array([[1, 1, 1], [1, 0, 1], [0, 1, 1]], dtype=np.uint8)

KERNELS = {2: T2, 3: T3}

# T_k as row operations: a step (a, b) is row a ^= row b. Each step is its own
# inverse, so running the steps in reverse multiplies by T_k^-1.
KERNEL_STEPS = {2: ((0, 1),), 3: ((0, 1), (2, 0), (1, 2))}

# Longest supported N (28x the paper's largest); GA and the decoders size arrays by N.
MAX_CODE_LENGTH = 2**16


def validate_kernel_vector(kv):
    """Return kv as a tuple of ints: nonempty, each 2 or 3, product at most MAX_CODE_LENGTH.
    Each entry is taken by operator.index, so a float, even 2.0, or a str is rejected."""
    sizes = []
    for k in kv:
        try:
            sizes.append(operator.index(k))
        except TypeError:
            raise ValueError(f"kernel size {k!r} is not an integer") from None
    kv = tuple(sizes)
    if not kv:
        raise ValueError("kernel vector must be nonempty")
    bad = [k for k in kv if k not in (2, 3)]
    if bad:
        raise ValueError(f"unsupported kernel sizes {bad}; only 2 and 3 are allowed")
    if prod(kv) > MAX_CODE_LENGTH:
        raise ValueError(f"code length {prod(kv)} is above the maximum of {MAX_CODE_LENGTH}")
    return kv


def factor_length(n):
    """Factor a codeword length into (n_two, n_three) with N = 2**n_two * 3**n_three.

    Raises ValueError when N is outside 2..MAX_CODE_LENGTH and, naming the
    nearest supported lengths, when N has any other prime factor.
    """
    if not 2 <= n <= MAX_CODE_LENGTH:
        raise ValueError(f"codeword length must be in 2..{MAX_CODE_LENGTH}, got {n}")
    n_two, n_three, rest = _factor(n)
    if rest != 1:
        below, above = nearest_valid_lengths(n)
        raise ValueError(
            f"{n} is not a product of 2s and 3s; nearest supported lengths are {below} and {above}"
        )
    return n_two, n_three


def nearest_valid_lengths(n):
    """Closest supported lengths (below, above) bracketing n."""
    below = next((m for m in range(n, 1, -1) if _factor(m)[2] == 1), 2)
    above = next(m for m in range(max(n, 2), 3 * max(n, 2) + 4) if m > n and _factor(m)[2] == 1)
    return below, above


def _factor(n):
    """(a, b, rest) with n = 2**a * 3**b * rest and rest prime to 6, for n >= 1."""
    a = b = 0
    while n % 2 == 0:
        n, a = n // 2, a + 1
    while n % 3 == 0:
        n, b = n // 3, b + 1
    return a, b, n


def apply_kernel(v, k):
    """Multiply axis -2 of v (length k) by T_k in place over GF(2)."""
    for a, b in KERNEL_STEPS[k]:
        row = v[..., a, :]
        row ^= v[..., b, :]


class _StagePlan(NamedTuple):
    """What stage_transform runs for one kernel vector in one direction.

    `batch` (frames-last input of any width) and `single` (one frame) hold,
    per kernel in kv order, (shape, steps): the stage is ``v[a] ^= v[b]`` for
    each step (a, b) on ``v = x.reshape(shape)``, the view whose axis of
    length k holds the kernel's rows in every block. Steps are T_k's row XORs,
    reversed for the inverse.
    """

    n: int
    batch: tuple
    single: tuple


def _stage_views(kv, inverse, single):
    n = prod(kv)
    stages = []
    for depth, k in enumerate(kv):
        blocks = prod(kv[:depth])
        rest = n // (blocks * k)
        # Axes of length 1 are dropped: numpy XORs a 1-D view, or a scalar
        # of a one-frame, one-block stage, several times faster than a 2-D
        # view with an axis of length 1.
        shape = (blocks,) * (blocks > 1) + (k,) + (((rest,) * (rest > 1)) if single else (-1,))
        lead = (slice(None),) * (blocks > 1)
        steps = KERNEL_STEPS[k][::-1] if inverse else KERNEL_STEPS[k]
        stages.append((shape, tuple((lead + (a,), lead + (b,)) for a, b in steps)))
    return tuple(stages)


# Distinct kernel vectors are few (a code's suffixes); the bound only caps a
# process that transforms many codes. Typed on each kernel size, so a 2.0 is
# validated (and rejected) instead of finding the plan of a 2.
@lru_cache(maxsize=1024, typed=True)
def _stage_plan(inverse, *kv):
    kv = validate_kernel_vector(kv)
    return _StagePlan(prod(kv), _stage_views(kv, inverse, False), _stage_views(kv, inverse, True))


def stage_transform(bits, kv, inverse=False):
    """Apply the per-stage blockwise kernel maps of the decode tree.

    Multiplies by the generator, the Kronecker product of the kernels in kv
    order (by its inverse when ``inverse`` is set), in O(N log N) in-place
    row XORs. Accepts a trailing axis of length N; leading axes are
    treated as a batch. The XORs run on one frames-last (N, batch) copy, each
    a contiguous run; the result keeps the input's memory order. A single
    frame, 1-D or with every leading axis of length 1, is transformed in its
    own C-ordered copy, which is returned. The plan of each (kv, inverse) is
    built and validated once, then cached.
    """
    plan = _stage_plan(inverse, *kv)
    bits = np.asarray(bits)
    n = plan.n
    if bits.shape[-1:] != (n,):
        raise ValueError(f"input shape {bits.shape} does not end in the code length {n}")
    if bits.size == n:
        out = x = np.array(bits, dtype=np.uint8, order="C")
        stages = plan.single
    else:
        x = np.array(bits.T, dtype=np.uint8, order="C")
        out, stages = None, plan.batch
    for shape, steps in stages:
        v = x.reshape(shape)
        for a, b in steps:
            v[a] ^= v[b]
    if out is None:
        out = np.empty_like(bits, dtype=np.uint8)
        out.T[...] = x
    return out
