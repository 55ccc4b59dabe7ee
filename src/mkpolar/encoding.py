"""Message expansion and codeword encoding.

Codewords come from the stage-wise transform, which costs O(N log N); the
tests check it against the dense GF(2) product u . G.
"""

import numpy as np

from .kernels import stage_transform


def expand_message(a, spec):
    """Place the K message bits into the information positions of a sourceword.

    Frozen positions are zero. Accepts a batch with the message bits on the
    trailing axis.
    """
    a = np.asarray(a, dtype=np.uint8)
    if a.shape[-1] != spec.k_bits:
        raise ValueError(f"message length {a.shape[-1]} != K = {spec.k_bits}")
    u = np.zeros(a.shape[:-1] + (spec.n_bits,), dtype=np.uint8)
    u[..., spec.info_indices] = a
    return u


def encode_recursive(u, spec):
    """Codeword x = u . G over GF(2) via stage-wise combine maps."""
    return stage_transform(u, spec.kernels)


def encode_message(a, spec):
    """Expand then encode in one step."""
    return encode_recursive(expand_message(a, spec), spec)
