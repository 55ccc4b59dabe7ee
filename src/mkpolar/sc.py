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
tree but hands each pruned subtree to a one-step leaf decoder.
"""

import numpy as np

from .kernels import apply_kernel, validate_kernel_vector


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


def tree_spans(kv):
    """Leaf span of a node at each depth: spans[0] = N down to spans[M] = 1."""
    kv = validate_kernel_vector(kv)
    spans = [1]
    for k in reversed(kv):
        spans.append(spans[-1] * k)
    return spans[::-1]


class _TreeDecoder:
    """The SC tree walk, its scratch buffers, and the decode entry points.

    Nodes are keyed by (depth, offset). A multi-bit node found in `_leaves`
    is decoded in one step by `self._decode_leaf(node)`, which a subclass
    that fills `_leaves` must define; every other node recurses down to
    single-bit decisions. The per-depth LLR and partial-sum buffers make an
    instance unsafe to share mid-decode; create one per worker.
    """

    def __init__(self, spec):
        self.spec = spec
        self.kv = spec.kernels
        self.spans = tree_spans(self.kv)
        self._leaves = {}
        self._batch = None
        self._llr = None
        self._beta = None
        self._u = None

    def _ensure_buffers(self, batch):
        if batch == self._batch:
            return
        self._batch = batch
        self._llr = [np.empty((batch, s), dtype=float) for s in self.spans]
        self._beta = [np.empty((batch, s), dtype=np.uint8) for s in self.spans]
        self._u = np.empty((batch, self.spec.n_bits), dtype=np.uint8)

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
        """
        llrs = np.asarray(llrs, dtype=float)
        if llrs.ndim != 2 or llrs.shape[1] != self.spec.n_bits:
            raise ValueError(f"expected (batch, {self.spec.n_bits}) LLRs, got {llrs.shape}")
        # min() propagates NaN and, unlike isnan(), allocates no batch-sized mask
        if llrs.size and np.isnan(llrs.min()):
            frame, index = np.argwhere(np.isnan(llrs))[0]
            raise ValueError(f"LLR {index} of frame {frame} is NaN")
        self._ensure_buffers(llrs.shape[0])
        bound = np.finfo(float).max / (2 * self.spec.n_bits)
        np.clip(llrs, -bound, bound, out=self._llr[0])
        self._decode_node(0, 0)
        return self._u.copy(), self._beta[0].copy()

    def _decode_node(self, depth, offset):
        span = self.spans[depth]
        if span == 1:
            beta = self._beta[depth]
            if self.spec.frozen[offset]:
                beta[:, 0] = 0
            else:
                beta[:, 0] = self._llr[depth][:, 0] <= 0
            self._u[:, offset] = beta[:, 0]
            return
        leaf = self._leaves.get((depth, offset))
        if leaf is not None:
            self._decode_leaf(leaf)
            return

        k = self.kv[depth]
        q = span // k
        alpha = self._llr[depth]
        child = self._llr[depth + 1]
        beta = self._beta[depth]

        # Children's partial sums stay raw in their slots until the last is decoded.
        if k == 2:
            l0, l1 = alpha[:, :q], alpha[:, q:span]
            child[:] = f_op(l0, l1)
            self._decode_node(depth + 1, offset)
            beta[:, :q] = self._beta[depth + 1]
            child[:] = g_op(l0, l1, beta[:, :q])
            self._decode_node(depth + 1, offset + q)
            beta[:, q:span] = self._beta[depth + 1]
        else:
            l0, l1, l2 = alpha[:, :q], alpha[:, q : 2 * q], alpha[:, 2 * q : span]
            child[:] = lambda0(l0, l1, l2)
            self._decode_node(depth + 1, offset)
            beta[:, :q] = self._beta[depth + 1]
            child[:] = lambda1(l0, l1, l2, beta[:, :q])
            self._decode_node(depth + 1, offset + q)
            beta[:, q : 2 * q] = self._beta[depth + 1]
            child[:] = lambda2(l1, l2, beta[:, :q], beta[:, q : 2 * q])
            self._decode_node(depth + 1, offset + 2 * q)
            beta[:, 2 * q : span] = self._beta[depth + 1]
        apply_kernel(beta.reshape(-1, k, q), k)


class SCDecoder(_TreeDecoder):
    """Successive-cancellation decoder for one code: the full tree walk.

    decode_batch runs any number of independent frames through the tree at
    once. One instance per worker (see _TreeDecoder).
    """
