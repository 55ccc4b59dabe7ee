"""Successive-cancellation decoding over mixed binary/ternary trees.

The decode tree follows the generator's Kronecker order: the first kernel in
the vector governs the root split, a node at depth d branches by the (d+1)-th
kernel, and leaves are single sourceword bits. Binary nodes apply the f and g
LLR maps to their left and right children; ternary nodes apply lambda0/1/2 to
left, center and right. Partial sums travel back up through the node's kernel
(kernels.apply_kernel). LLR sign convention: positive means bit 0; an LLR of
exactly zero decides 1 on an unfrozen bit. Fast-SSC without SPC is bit-exact
to SC for tie-free LLRs only (see fast_ssc.py).

This module owns the one tree walk both decoders run (`_TreeDecoder`).
SCDecoder walks the whole tree; FastSSCDecoder (fast_ssc.py) walks the same
tree but hands each pruned subtree to a one-step leaf decoder. Frames lie on
the last axis: a node gets its (span, batch) LLRs as the value its parent's
LLR step returns and owns the contiguous block x[offset:offset+span] of one
(N, batch) partial-sum array; its children fill their sub-blocks, then its
kernel combines the block in place, so once the root returns, x is x_hat.
"""

import numpy as np

from .kernels import apply_kernel


def f_op(l0, l1):
    """Min-sum box-plus: sign(l0) sign(l1) min(|l0|, |l1|).

    The sign comes from l0 * (+-1), which is exact, so no input overflows or
    raises an invalid-value warning as l0 * l1 would at 1e308 or inf * 0.
    """
    return np.copysign(np.minimum(np.abs(l0), np.abs(l1)), l0 * np.copysign(1.0, l1))


def g_op(l0, l1, u0):
    """(-1)^u0 * l0 + l1, with u0 the left partial sum."""
    return (1.0 - 2.0 * np.asarray(u0, dtype=float)) * l0 + l1


def lambda0(l0, l1, l2):
    """Three-way min-sum box-plus for the left branch of a ternary node."""
    return f_op(f_op(l0, l1), l2)


def lambda1(l0, l1, l2, u0):
    """(-1)^u0 * l0 + (l1 box-plus l2), for the center branch."""
    return (1.0 - 2.0 * np.asarray(u0, dtype=float)) * l0 + f_op(l1, l2)


def lambda2(l1, l2, u0, u1):
    """(-1)^u0 * l1 + (-1)^(u0 xor u1) * l2, for the right branch.

    u0 and u1 are the left and center partial sums.
    """
    u0 = np.asarray(u0, dtype=np.uint8)
    u1 = np.asarray(u1, dtype=np.uint8)
    s0 = 1.0 - 2.0 * u0
    s1 = 1.0 - 2.0 * (u0 ^ u1)
    return s0 * l1 + s1 * l2


class _TreeDecoder:
    """The SC tree walk and the decode entry points.

    Nodes are keyed by (depth, offset). A multi-bit node found in `_leaves`
    is decoded in one step by `self._decode_leaf(node, alpha, beta, u)`,
    which a subclass that fills `_leaves` must define, on (batch, span) views
    of the node's blocks; every other node recurses down to single-bit
    decisions. A decode keeps its state in the arrays it allocates, never on
    the instance, so one decoder may serve any number of threads at once.
    """

    def __init__(self, spec):
        self.spec = spec
        self._leaves = {}

    def decode(self, llr):
        """Decode one frame; returns (u_hat, x_hat) with x_hat the root partial sums."""
        llr = np.asarray(llr, dtype=float)
        if llr.shape != (self.spec.n_bits,):
            raise ValueError(f"expected {self.spec.n_bits} LLRs, got shape {llr.shape}")
        u, x = self.decode_batch(llr[np.newaxis, :])
        return u[0], x[0]

    def decode_batch(self, llrs):
        """Decode a (batch, N) array of frames; NaN LLRs are rejected.

        LLRs are saturated to +-max_float / (2N), so +-inf and huge values
        decide like large finite ones and no sum in the tree can overflow.
        Returns (u_hat, x_hat) in the memory order of the input: views of the
        walk's frames-last arrays for an F-contiguous input, else C-ordered copies.
        """
        n = self.spec.n_bits
        llrs = np.asarray(llrs, dtype=float)
        if llrs.ndim != 2 or llrs.shape[1] != n:
            raise ValueError(f"expected (batch, {n}) LLRs, got {llrs.shape}")
        # min() propagates NaN and, unlike isnan(), allocates no batch-sized mask
        if llrs.size and np.isnan(llrs.min()):
            frame, index = np.argwhere(np.isnan(llrs))[0]
            raise ValueError(f"LLR {index} of frame {frame} is NaN")
        bound = np.finfo(float).max / (2 * n)
        alpha = np.clip(llrs.T, -bound, bound, out=np.empty(llrs.shape[::-1]))
        u, x = np.empty((2, *alpha.shape), dtype=np.uint8)
        self._decode_node(alpha, x, u, 0, 0)
        return (u.T, x.T) if llrs.flags.f_contiguous else (u.T.copy(), x.T.copy())

    def _decode_node(self, alpha, x, u, depth, offset):
        """Decode the node whose (span, batch) LLRs are alpha into x[offset:offset+span] and u."""
        span = len(alpha)
        if span == 1:
            x[offset] = 0 if self.spec.frozen[offset] else alpha[0] <= 0
            u[offset] = x[offset]
            return
        beta = x[offset : offset + span]
        leaf = self._leaves.get((depth, offset))
        if leaf is not None:
            self._decode_leaf(leaf, alpha.T, beta.T, u[offset : offset + span].T)
            return

        k = self.spec.kernels[depth]
        q = span // k
        # Children's partial sums stay raw in their blocks until the last is decoded.
        if k == 2:
            l0, l1 = alpha[:q], alpha[q:]
            self._decode_node(f_op(l0, l1), x, u, depth + 1, offset)
            self._decode_node(g_op(l0, l1, beta[:q]), x, u, depth + 1, offset + q)
        else:
            l0, l1, l2 = alpha[:q], alpha[q : 2 * q], alpha[2 * q :]
            self._decode_node(lambda0(l0, l1, l2), x, u, depth + 1, offset)
            self._decode_node(lambda1(l0, l1, l2, beta[:q]), x, u, depth + 1, offset + q)
            child = lambda2(l1, l2, beta[:q], beta[q : 2 * q])
            self._decode_node(child, x, u, depth + 1, offset + 2 * q)
        # copy=False raises rather than combine a copy and leave x unchanged.
        apply_kernel(beta.reshape(k, -1, copy=False), k)


class SCDecoder(_TreeDecoder):
    """Successive-cancellation decoder for one code: the full tree walk.

    decode_batch runs any number of independent frames through the tree at
    once; one instance may be shared by threads (see _TreeDecoder).
    """
