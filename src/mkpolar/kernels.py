"""GF(2) kernel algebra: the 2x2 and 3x3 polarizing kernels as row XORs.

The generator of a multi-kernel polar code is the left-to-right Kronecker
product of 2x2 and 3x3 polarizing kernels, described by a kernel vector such
as (2, 2, 3). Arithmetic is mod 2 on uint8 arrays with entries in {0, 1}.
KERNEL_STEPS states each kernel once. The encoder, the decode tree's partial-sum
combines and the leaf inverses all run it in the one loop of _run_stages, from
stages cached per kernel vector and direction. The one integer rule (_as_integer),
the one real-number rule (_as_real) and the one 0/1 rule (_as_bits) behind every
public argument live here too.
"""

import operator
from functools import lru_cache
from math import inf, prod

import numpy as np

# T_k as row operations: a step (a, b) is row a ^= row b. T_2 = [[1, 0], [1, 1]]
# and T_3 = [[1, 1, 1], [1, 0, 1], [0, 1, 1]]. Each step is its own inverse,
# so running the steps in reverse multiplies by T_k^-1.
KERNEL_STEPS = {2: ((0, 1),), 3: ((0, 1), (2, 0), (1, 2))}

# Longest supported N (28x the paper's largest); GA and the decoders size arrays by N.
MAX_CODE_LENGTH = 2**16


def _as_integer(name, value, low=-inf, high=inf):
    """value by operator.index, in low..high: the one integer rule. A bool, float (even 2.0) or str
    raises ValueError "NAME VALUE is not an integer", an integer out of bounds "... is outside LOW..HIGH"."""
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or isinstance(value, bool):
        raise ValueError(f"{name} {value!r} is not an integer")
    if not low <= index <= high:
        raise ValueError(f"{name} {index} is outside {low}..{high}")
    return index


def _as_instance(name, value, cls):
    """value, if it is a cls: the one rule for a code or a schedule. Anything else raises
    ValueError "NAME must be a CLS, got TYPE"."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def _as_real(name, value):
    """value as a float: the one real-number rule. A bool, a str, or a value float() cannot take
    (None, a sequence, a complex) raises ValueError "NAME VALUE is not a real number"."""
    if not isinstance(value, (bool, np.bool_, str, bytes)):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"{name} {value!r} is not a real number")


def _as_bits(name, values):
    """values as an array; an entry other than 0 or 1 raises a one-line ValueError naming it.
    A bool array is not scanned, an unsigned one only for its max."""
    values = np.asarray(values)
    if values.dtype.kind == "b" or values.dtype.kind == "u" and values.max(initial=0) <= 1:
        return values
    bad = (values != 0) & (values != 1)
    if bad.any():
        position = np.argwhere(bad)[0].tolist()
        entry = values[tuple(position)]
        entry = repr(str(entry)) if isinstance(entry, str) else entry  # a str "1" is not the number 1
        raise ValueError(f"{name} entry {position} is {entry}, not 0 or 1")
    return values


def validate_kernel_vector(kv):
    """Return kv as a tuple of ints: nonempty, each 2 or 3, product at most MAX_CODE_LENGTH.
    Each entry is taken by _as_integer; a kv that is not iterable raises ValueError."""
    try:
        kv = tuple([_as_integer("kernel size", k, 2, 3) for k in kv])
    except TypeError:
        raise ValueError(f"kernel vector {kv!r} is not a sequence") from None
    if not kv:
        raise ValueError("kernel vector must be nonempty")
    if prod(kv) > MAX_CODE_LENGTH:
        raise ValueError(f"code length {prod(kv)} is above the maximum of {MAX_CODE_LENGTH}")
    return kv


def factor_length(n):
    """Factor a codeword length into (n_two, n_three) with N = 2**n_two * 3**n_three.

    Raises ValueError when N is not an integer in 2..MAX_CODE_LENGTH and, naming
    the nearest supported lengths, when N has any other prime factor.
    """
    n = _as_integer("N", n, 2, MAX_CODE_LENGTH)
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


# Distinct kernel vectors are few (a code's suffixes); the bound only caps a
# process that transforms many codes. Typed on each kernel size, so a 2.0 is
# validated (and rejected) instead of finding the stages of a 2.
@lru_cache(maxsize=1024, typed=True)
def _stages(inverse, *kv):
    """Per kernel of kv, (shape, steps) of its stage, steps reversed for the inverse:
    ``v[a] ^= v[b]`` per step on ``v = x.reshape(shape + tail)``, whose axis of length k
    holds the kernel's rows in every block. Axes of length 1 are dropped, as numpy XORs
    a 1-D view or a scalar several times faster; the first stage's shape spans the frame."""
    kv = validate_kernel_vector(kv)
    n = prod(kv)
    stages = []
    for depth, k in enumerate(kv):
        blocks = prod(kv[:depth])
        rest = n // (blocks * k)
        shape = (blocks,) * (blocks > 1) + (k,) + (rest,) * (rest > 1)
        lead = (slice(None),) * (blocks > 1)
        steps = KERNEL_STEPS[k][::-1] if inverse else KERNEL_STEPS[k]
        stages.append((shape, tuple((lead + (a,), lead + (b,)) for a, b in steps)))
    return tuple(stages)


def _run_stages(x, stages, tail):
    """Run _stages' stages in place on x and return it: one frame for a tail of (), else
    frames-last with its frame axes as the tail. Every kernel XOR runs here. x must be
    C-contiguous, so each reshape is a view (copy=False, which checks it, costs 2.5x as much)."""
    for shape, steps in stages:
        v = x.reshape(shape + tail)
        for a, b in steps:
            v[a] ^= v[b]
    return x


def stage_transform(bits, kv, inverse=False):
    """Multiply by the generator, the Kronecker product of the kernels in kv order (by its
    inverse when ``inverse`` is set), in O(N log N) in-place row XORs, stage by stage.

    Takes 0/1 entries (_as_bits) on a trailing axis of length N; leading axes are a batch,
    whose XORs run on one frames-last (N, batch) copy, each a contiguous run, returned as
    its transposed view for an F-contiguous batch and as a C-ordered copy otherwise. A single
    frame, 1-D or with every leading axis of length 1, is transformed in its own C copy.
    """
    try:
        stages = _stages(inverse, *kv)
    except TypeError:  # kv not iterable, or an entry not hashable: validate it, then plan its tuple
        stages = _stages(inverse, *validate_kernel_vector(kv))
    bits = _as_bits("bits", bits)
    n = prod(stages[0][0])
    if bits.shape[-1:] != (n,):
        raise ValueError(f"input shape {bits.shape} does not end in the code length {n}")
    if bits.size == n:
        return _run_stages(np.array(bits, dtype=np.uint8, order="C"), stages, ())
    x = _run_stages(np.array(bits.T, dtype=np.uint8, order="C"), stages, bits.T.shape[1:])
    return x.T if bits.flags.f_contiguous else x.T.copy()


def rep_pattern(kv):
    """Repetition pattern P_v of a REP node with kernels kv: the codeword of (0, ..., 0, 1)."""
    unit = np.zeros(prod(validate_kernel_vector(kv)), dtype=np.uint8)
    unit[-1] = 1
    return stage_transform(unit, kv)
