"""Successive-cancellation decoding over mixed binary/ternary trees.

The decode tree follows the generator's Kronecker order: the first kernel in
the vector governs the root split, a node at depth d branches by the (d+1)-th
kernel, and leaves are single sourceword bits. Binary nodes apply the f and g
LLR maps to their left and right children; ternary nodes apply lambda0/1/2 to
left, center and right. Partial sums travel back up through the node's kernel
(kernels._run_stages). LLR sign convention: positive means bit 0; an LLR of
exactly zero decides 1 on an unfrozen bit. Fast-SSC without SPC is bit-exact
to SC for tie-free LLRs only (see fast_ssc.py). The box-plus max(min(a, b),
-max(a, b)) is exact, so every LLR has the value of its textbook formula; only
the sign of an exact zero may differ, and no decision (<= 0, |.|, a sum) sees it.
Each LLR step has three forms, on arrays, lists and floats (see f_op), and keeps its
LLRs' float type: float32 LLRs stay float32 (the +-1 factors are float32), else float64.

This module owns the one tree walk both decoders run (`_TreeDecoder`).
SCDecoder walks the whole tree; FastSSCDecoder (fast_ssc.py) walks the same
tree but hands each pruned subtree to a one-step leaf decoder. Frames lie on
the last axis: a node gets its (span, batch) LLRs as the value its parent's
LLR step returns and owns the contiguous block x[offset:offset+span] of one
(N, batch) partial-sum array; its children fill their sub-blocks, then its
kernel combines the block in place, so once the root returns, x is x_hat.
Every numpy LLR step writes into one slab per decode_batch call, a row block
per depth plus one scratch, laid out once per decoder; for one frame the blocks
are 1-D views, as x and u are. One frame's nodes of span at most _LIST_SPANS
of its float type walk Python lists (_decode_list) instead, as a list step costs
tens of nanoseconds per element and a numpy call about a microsecond; there a node
of span 2 or 3 decides each single-bit child after its step on floats, as llr <= 0 and not frozen.
"""

from itertools import accumulate
from operator import floordiv

import numpy as np

from .construction import CodeSpec
from .kernels import KERNEL_STEPS, _as_instance, _run_stages, _stages


def f_op(l0, l1, out=None, scratch=None):
    """Min-sum box-plus: sign(l0) sign(l1) min(|l0|, |l1|).

    The value of max(min(l0, l1), -max(l0, l1)), exact and with no product, so
    no input overflows or warns as l0 * l1 would at 1e308 or inf * 0. Only a
    zero's sign may differ: f(+0, -0) is +0. Each LLR step has three forms, all
    with the same values. Given arrays, it takes four numpy passes, writes its
    result to out (which may be l0) and its intermediates to scratch, both of
    the result's shape and float type, and returns out. Given lists of floats (and of 0/1
    partial sums) it returns a list, and given Python floats (not numpy scalars) and no out
    a float, with the formula's zero signs: swap so that a <= b, then a if a >= -b else -b.
    """
    if out is None and type(l0) is float:
        if l0 > l1:
            l0, l1 = l1, l0
        return l0 if l0 >= -l1 else -l1
    if isinstance(l0, list):
        out = []
        for a, b in zip(l0, l1):
            if a > b:
                a, b = b, a
            out.append(a if a >= -b else -b)
        return out
    high = np.negative(np.maximum(l0, l1, out=scratch), out=scratch)
    np.minimum(l0, l1, out=out)
    return np.maximum(out, high, out=out)


_FLOAT32 = np.dtype(np.float32)
# Largest node span one frame decodes on Python lists. Above 27 numpy's calls are cheaper. A float32
# frame's nodes of span 3 or less have single-bit children, each one exact min, max or negation or one
# sum of two float32 values: float64 keeps that sum's sign, which is all a bit decision reads.
_LIST_SPANS = {np.dtype(np.float64): 27, _FLOAT32: 3}


def _llr_dtype(llr):
    """The float type LLR arithmetic keeps: float32 for float32 LLRs, else float64."""
    return _FLOAT32 if getattr(llr, "dtype", None) is _FLOAT32 else np.float64


def _real_llrs(llr):
    """llr as an array of the float type LLR arithmetic keeps; complex LLRs raise ValueError."""
    dtype = _llr_dtype(llr)
    llr = np.asarray(llr)
    if llr.dtype.kind == "c":
        raise ValueError(f"LLRs must be real, got {llr.dtype} values")
    return llr.astype(dtype, copy=False)


def _signs(u, out):
    """The factors (-1)^u = 1 - 2u of partial sums u, written into out in its float type."""
    return np.subtract(1, np.add(u, u, out=out), out=out)


def g_op(l0, l1, u0, out=None):
    """(-1)^u0 * l0 + l1, with u0 the left partial sum; out as in f_op."""
    if out is None and type(l0) is float:
        return (-l0 if u0 else l0) + l1
    if isinstance(l0, list):
        return [(-a if s else a) + b for a, b, s in zip(l0, l1, u0)]
    np.multiply(_signs(u0, out), l0, out=out)
    return np.add(out, l1, out=out)


def lambda0(l0, l1, l2, out=None, scratch=None):
    """Three-way min-sum box-plus for the left branch of a ternary node."""
    return f_op(f_op(l0, l1, out, scratch), l2, out, scratch)


def lambda1(l0, l1, l2, u0, out=None, scratch=None):
    """(-1)^u0 * l0 + (l1 box-plus l2), for the center branch; out as in f_op."""
    if out is None and type(l0) is float:
        return (-l0 if u0 else l0) + f_op(l1, l2)
    if isinstance(l0, list):
        return [(-a if s else a) + b for a, b, s in zip(l0, f_op(l1, l2), u0)]
    boxplus = f_op(l1, l2, scratch, out)
    np.multiply(_signs(u0, out), l0, out=out)
    return np.add(out, boxplus, out=out)


def lambda2(l1, l2, u0, u1, out=None, scratch=None):
    """(-1)^u0 * l1 + (-1)^(u0 xor u1) * l2, for the right branch; out as in f_op.

    u0 and u1 are the left and center partial sums.
    """
    if out is None and type(l1) is float:
        return (-l1 if u0 else l1) + (-l2 if u0 ^ u1 else l2)
    if isinstance(l1, list):
        return [(-a if s else a) + (-b if s ^ t else b) for a, b, s, t in zip(l1, l2, u0, u1)]
    # (-1)^u0 * (l1 + (-1)^u1 * l2): +-1 commutes with rounding; an exact zero's sign may differ.
    np.add(l1, np.multiply(_signs(u1, out), l2, out=out), out=out)
    return np.multiply(_signs(u0, scratch), out, out=out)


class _TreeDecoder:
    """The SC tree walk and the decode entry points.

    Nodes are keyed by (depth, offset). A multi-bit node found in `_leaves` is decoded
    in one step by `self._decode_leaf(node, alpha)`, which a subclass that fills `_leaves`
    must define: it returns the node's (beta, u) blocks, or values broadcasting to them, in
    alpha's shape, (span, batch), (span,) for one frame or a list under a list-walked node;
    every other node recurses down to single-bit decisions, its LLR steps writing into the call's slab.
    One frame's nodes of span at most _LIST_SPANS of its float type recurse on
    Python lists (_decode_list), through the same steps and leaf decoder; a node
    of span 2 or 3 decides its single bits itself on floats and XORs them. A decode
    keeps its state in the arrays it allocates, never on the instance, so one
    decoder may serve any number of threads at once.
    """

    def __init__(self, spec):
        self.spec = _as_instance("spec", spec, CodeSpec)
        self._frozen = spec.frozen.tolist()
        self._leaves = {}
        kv = spec.kernels  # a depth-d node combines by the first stage of kv[d:]
        self._combines = [_stages(False, *kv[depth:])[:1] for depth in range(len(kv))]
        sizes = list(accumulate(kv, floordiv, initial=spec.n_bits))  # a depth-d node's span
        # Slab rows: a scratch block, then one out block per depth (whose steps use a scratch prefix).
        starts = list(accumulate([sizes[1], *sizes[1:]]))
        self._slab_rows = starts[-1]
        self._slab_blocks = [(slice(a, a + span), slice(span)) for a, span in zip(starts, sizes[1:])]
        self._list_depths = {dtype: sum(size > top for size in sizes) for dtype, top in _LIST_SPANS.items()}

    def decode(self, llr):
        """Decode one frame; returns (u_hat, x_hat) with x_hat the root partial sums.

        Computes in float32 for float32 LLRs and in float64 otherwise, as decode_batch.
        """
        llr = _real_llrs(llr)
        if llr.shape != (self.spec.n_bits,):
            raise ValueError(f"expected {self.spec.n_bits} LLRs, got shape {llr.shape}")
        u, x = self.decode_batch(llr[np.newaxis, :])
        return u[0], x[0]

    def decode_batch(self, llrs):
        """Decode a (batch, N) array of frames; NaN and complex LLRs are rejected.

        The walk computes in the precision of the LLRs: float32 for a float32
        array, float64 for anything else. LLRs are saturated to that type's
        +-max / (2N), so +-inf and huge values decide like large finite ones
        and no sum in the tree can overflow. An F-contiguous input already in
        that range is read in place; any other is saturated into a frames-last copy.
        Returns (u_hat, x_hat) in the memory order of the input: views of the
        walk's frames-last arrays for an F-contiguous input, else C-ordered copies.
        """
        n = self.spec.n_bits
        llrs = _real_llrs(llrs)
        if llrs.ndim != 2 or llrs.shape[1] != n:
            raise ValueError(f"expected (batch, {n}) LLRs, got {llrs.shape}")
        # min() propagates NaN and, unlike isnan(), allocates no batch-sized mask
        low = llrs.min(initial=np.inf)
        if np.isnan(low):
            frame, index = np.argwhere(np.isnan(llrs))[0]
            raise ValueError(f"LLR {index} of frame {frame} is NaN")
        bound = np.finfo(llrs.dtype).max / (2 * n)
        alpha = llrs.T
        if not (llrs.flags.f_contiguous and -bound <= low and llrs.max(initial=-np.inf) <= bound):
            alpha = np.clip(alpha, -bound, bound, out=np.empty_like(alpha, order="C"))
        u, x = np.empty((2, *alpha.shape), dtype=np.uint8)
        # One frame walks 1-D views, and needs blocks only above its first depth of span <= _LIST_SPANS.
        frames, depths = (0, self._list_depths[alpha.dtype]) if len(llrs) == 1 else (slice(None), None)
        slab = np.empty((self._slab_rows, len(llrs)), dtype=alpha.dtype)[:, frames]
        slabs = [(slab[out], slab[scratch]) for out, scratch in self._slab_blocks[:depths]]
        self._decode_node(alpha[:, frames], x[:, frames], u[:, frames], 0, 0, slabs)
        return (u.T, x.T) if llrs.flags.f_contiguous else (u.T.copy(), x.T.copy())

    def _decode_node(self, alpha, x, u, depth, offset, slabs):
        """Decode the node with (span, batch) LLRs alpha, (span,) for one frame, into x and u;
        slabs[depth] holds the (out, scratch) blocks of the node's LLR steps, if it has any."""
        span = len(alpha)
        if span == 1:
            x[offset] = u[offset] = 0 if self._frozen[offset] else alpha[0] <= 0
            return
        beta = x[offset : offset + span]
        leaf = self._leaves.get((depth, offset))
        if leaf is not None:
            beta[:], u[offset : offset + span] = self._decode_leaf(leaf, alpha)
            return
        if depth == len(slabs):  # one frame at its list depth
            beta[:], u[offset : offset + span] = self._decode_list(alpha.tolist(), depth, offset)
            return

        k = self.spec.kernels[depth]
        q = span // k
        out, scratch = slabs[depth]
        # Children's partial sums stay raw in their blocks until the last is decoded.
        if k == 2:
            l0, l1 = alpha[:q], alpha[q:]
            self._decode_node(f_op(l0, l1, out, scratch), x, u, depth + 1, offset, slabs)
            self._decode_node(g_op(l0, l1, beta[:q], out), x, u, depth + 1, offset + q, slabs)
        else:
            l0, l1, l2 = alpha[:q], alpha[q : 2 * q], alpha[2 * q :]
            self._decode_node(lambda0(l0, l1, l2, out, scratch), x, u, depth + 1, offset, slabs)
            child = lambda1(l0, l1, l2, beta[:q], out, scratch)
            self._decode_node(child, x, u, depth + 1, offset + q, slabs)
            child = lambda2(l1, l2, beta[:q], beta[q : 2 * q], out, scratch)
            self._decode_node(child, x, u, depth + 1, offset + 2 * q, slabs)
        _run_stages(beta, self._combines[depth], beta.shape[1:])

    def _decode_list(self, alpha, depth, offset):
        """The node's (x, u) blocks as lists, from one frame's LLRs alpha as a list of floats:
        _decode_node's walk, each kernel combine as XORs of its KERNEL_STEPS, except that a
        node of span 2 or 3 decides each single-bit child itself, after that child's step."""
        leaf = self._leaves.get((depth, offset))
        if leaf is not None:
            return self._decode_leaf(leaf, alpha)
        k = self.spec.kernels[depth]
        q = len(alpha) // k
        if q == 1:  # each child's step runs once on floats, a frozen one's too, so each is entered
            if k == 2:
                l0, l1 = alpha
                u0 = f_op(l0, l1) <= 0 and not self._frozen[offset]
                u = [u0, g_op(l0, l1, u0) <= 0 and not self._frozen[offset + 1]]
            else:
                l0, l1, l2 = alpha
                u0 = lambda0(l0, l1, l2) <= 0 and not self._frozen[offset]
                u1 = lambda1(l0, l1, l2, u0) <= 0 and not self._frozen[offset + 1]
                u = [u0, u1, lambda2(l1, l2, u0, u1) <= 0 and not self._frozen[offset + 2]]
            x = u.copy()
            for a, b in KERNEL_STEPS[k]:
                x[a] ^= x[b]
            return x, u
        l0, l1, l2 = alpha[:q], alpha[q : 2 * q], alpha[2 * q :]
        x0, u0 = self._decode_list(f_op(l0, l1) if k == 2 else lambda0(l0, l1, l2), depth + 1, offset)
        if k == 2:
            x1, u1 = self._decode_list(g_op(l0, l1, x0), depth + 1, offset + q)
            x, u = [x0, x1], u0 + u1
        else:
            x1, u1 = self._decode_list(lambda1(l0, l1, l2, x0), depth + 1, offset + q)
            x2, u2 = self._decode_list(lambda2(l1, l2, x0, x1), depth + 1, offset + 2 * q)
            x, u = [x0, x1, x2], u0 + u1 + u2
        for a, b in KERNEL_STEPS[k]:
            x[a] = [p ^ r for p, r in zip(x[a], x[b])]
        return sum(x, []), u


class SCDecoder(_TreeDecoder):
    """Successive-cancellation decoder for one code: the full tree walk.

    decode_batch runs any number of independent frames through the tree at
    once; one instance may be shared by threads (see _TreeDecoder).
    """
