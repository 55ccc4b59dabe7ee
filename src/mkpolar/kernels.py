"""GF(2) kernel algebra: polarizing matrices, Kronecker products, generators.

The generator matrix of a multi-kernel polar code is the left-to-right
Kronecker product of 2x2 and 3x3 polarizing kernels, described by a kernel
vector such as (2, 2, 3). All matrices are dense uint8 arrays with entries
in {0, 1}; arithmetic is mod 2.

The encoder, the decode tree's partial sums and the leaf inverses all run
the kernels as in-place row XORs (KERNEL_STEPS, apply_kernel); the matrices
are the oracle the steps are tested against.
"""

from functools import reduce
from math import prod

import numpy as np

# Arikan kernel and the ternary kernel, with their GF(2) inverses.
# T2 is self-inverse; T3_INV satisfies T3 @ T3_INV = I (mod 2).
T2 = np.array([[1, 0], [1, 1]], dtype=np.uint8)
T3 = np.array([[1, 1, 1], [1, 0, 1], [0, 1, 1]], dtype=np.uint8)
T2_INV = T2
T3_INV = np.array([[1, 0, 1], [1, 1, 0], [1, 1, 1]], dtype=np.uint8)

KERNELS = {2: T2, 3: T3}
KERNEL_INVERSES = {2: T2_INV, 3: T3_INV}

# T_k as row operations: a step (a, b) is row a ^= row b. Each step is its own
# inverse, so running the steps in reverse multiplies by T_k^-1.
KERNEL_STEPS = {2: ((0, 1),), 3: ((0, 1), (2, 0), (1, 2))}

# Longest supported N (28x the paper's largest); GA and the decoders size arrays by N.
MAX_CODE_LENGTH = 2**16


def validate_kernel_vector(kv):
    """Return kv as a tuple of ints: nonempty, each 2 or 3, product at most MAX_CODE_LENGTH."""
    kv = tuple(int(k) for k in kv)
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
    n_two = n_three = 0
    rest = n
    while rest % 2 == 0:
        rest //= 2
        n_two += 1
    while rest % 3 == 0:
        rest //= 3
        n_three += 1
    if rest != 1:
        below, above = nearest_valid_lengths(n)
        raise ValueError(
            f"{n} is not a product of 2s and 3s; nearest supported lengths are {below} and {above}"
        )
    return n_two, n_three


def is_valid_length(n):
    """Whether n is a supported codeword length 2**a * 3**b >= 2."""
    return n >= 2 and _is_smooth(n)


def nearest_valid_lengths(n):
    """Closest supported lengths (below, above) bracketing n."""
    below = next((m for m in range(n, 1, -1) if _is_smooth(m)), 2)
    above = next(m for m in range(max(n, 2), 3 * max(n, 2) + 4) if m > n and _is_smooth(m))
    return below, above


def _is_smooth(n):
    for p in (2, 3):
        while n % p == 0:
            n //= p
    return n == 1


def kron(a, b):
    """Kronecker product of two 0/1 matrices (entries stay in {0, 1})."""
    return np.kron(np.asarray(a, dtype=np.uint8), np.asarray(b, dtype=np.uint8))


def generator_matrix(kv):
    """N x N generator: Kronecker product of the kernels in kv order."""
    kv = validate_kernel_vector(kv)
    return reduce(kron, (KERNELS[k] for k in kv))


def inverse_generator(kv):
    """GF(2) inverse of generator_matrix(kv).

    The inverse of a Kronecker product is the Kronecker product of the
    per-kernel inverses, taken in the same order.
    """
    kv = validate_kernel_vector(kv)
    return reduce(kron, (KERNEL_INVERSES[k] for k in kv))


def apply_kernel(v, k, inverse=False):
    """Multiply axis -2 of v (length k) by T_k, or T_k^-1, in place over GF(2)."""
    steps = KERNEL_STEPS[k]
    for a, b in reversed(steps) if inverse else steps:
        row = v[..., a, :]
        row ^= v[..., b, :]


def stage_transform(bits, kv, inverse=False):
    """Apply the per-stage blockwise kernel maps of the decode tree.

    Equivalent to ``bits @ generator_matrix(kv)`` (or the inverse generator
    when ``inverse`` is set) but in O(N log N) in-place row XORs instead of a
    dense product. Accepts a trailing axis of length N; leading axes are
    treated as a batch. The XORs run on one frames-last (N, batch) copy, each
    a contiguous run; the result keeps the input's memory order.
    """
    kv = validate_kernel_vector(kv)
    x = np.array(np.asarray(bits).T, dtype=np.uint8, order="C")
    n = prod(kv)
    if x.shape[0] != n:
        raise ValueError(f"input length {x.shape[0]} does not match code length {n}")
    for depth, k in enumerate(kv):
        apply_kernel(x.reshape(prod(kv[:depth]), k, -1), k, inverse)
    out = np.empty_like(bits, dtype=np.uint8)
    out.T[...] = x
    return out
