"""Message expansion and codeword encoding.

Codewords come from the stage-wise transform, which costs O(N log N); the
tests check it against the dense GF(2) product u . G.
"""

import numpy as np

from .construction import CodeSpec
from .kernels import _as_bits, _as_instance, stage_transform


def expand_message(a, spec):
    """Place the K message bits into the information positions of a sourceword.

    Frozen positions are zero. Accepts a batch with the message bits on the
    trailing axis and returns the sourcewords in the memory order of the
    input; raises ValueError on any entry other than 0 or 1 and on a spec not a CodeSpec.
    """
    spec = _as_instance("spec", spec, CodeSpec)
    a = _as_bits("message", a)
    if a.shape[-1:] != (spec.k_bits,):
        raise ValueError(f"message shape {a.shape} does not end in K = {spec.k_bits}")
    return _expand(a, spec)


def _expand(a, spec):
    """expand_message without its checks, for the simulator's own message bits."""
    u = np.zeros_like(a, dtype=np.uint8, shape=a.shape[:-1] + (spec.n_bits,))
    u[..., spec.info_indices] = a
    return u


def encode_message(a, spec):
    """Expand then encode in one step: x = u . G over GF(2) by the stage transform."""
    return stage_transform(expand_message(a, spec), spec.kernels)
