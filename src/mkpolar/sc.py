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
Every step keeps its LLRs' float type: float32 LLRs stay float32 (the +-1
factors are built in float32), and anything else computes in float64.

This module owns the one tree walk both decoders run (`_TreeDecoder`).
SCDecoder walks the whole tree; FastSSCDecoder (fast_ssc.py) walks the same
tree but hands each pruned subtree to a one-step leaf decoder. Frames lie on
the last axis: a node gets its (span, batch) LLRs as the value its parent's
LLR step returns and owns the contiguous block x[offset:offset+span] of one
(N, batch) partial-sum array; its children fill their sub-blocks, then its
kernel combines the block in place, so once the root returns, x is x_hat.
A batch's LLR steps write into one slab per decode_batch call, a row block per
depth plus one scratch; one frame walks 1-D views with the allocating steps,
which at that size cost less than numpy's in-place calls. A float64 frame's
nodes of span at most _LIST_SPAN walk Python lists (_decode_list), as a float
min or max costs tens of nanoseconds and a numpy call about a microsecond.
"""

import numpy as np

from .kernels import KERNEL_STEPS, _run_stages, _stages

# Largest node span one float64 frame decodes on Python lists; above it numpy's calls are cheaper.
_LIST_SPAN = 27


def f_op(l0, l1, out=None, scratch=None):
    """Min-sum box-plus: sign(l0) sign(l1) min(|l0|, |l1|).

    Computed as max(min(l0, l1), -max(l0, l1)), the same value in four exact
    numpy passes with no product, so no input overflows or warns as l0 * l1
    would at 1e308 or inf * 0. Only a zero's sign may differ: f(+0, -0) is +0.
    Given out and scratch, both of the result's shape and float type, each LLR
    step writes its result to out (which may be l0) and its intermediates to scratch.
    Given lists of floats (and of 0/1 partial sums), each step returns a list of the same values.
    """
    if isinstance(l0, list):
        return [max(min(a, b), -max(a, b)) for a, b in zip(l0, l1)]
    if out is None:
        return np.maximum(np.minimum(l0, l1), np.negative(np.maximum(l0, l1)))
    high = np.negative(np.maximum(l0, l1, out=scratch), out=scratch)
    np.minimum(l0, l1, out=out)
    return np.maximum(out, high, out=out)


_FLOAT32 = np.dtype(np.float32)


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
    return np.add(np.multiply(u, -2, out=out, dtype=out.dtype), 1, out=out)


def g_op(l0, l1, u0, out=None):
    """(-1)^u0 * l0 + l1, with u0 the left partial sum; out as in f_op."""
    if isinstance(l0, list):
        return [(-a if s else a) + b for a, b, s in zip(l0, l1, u0)]
    if out is None:
        return (1.0 - 2.0 * np.asarray(u0, dtype=_llr_dtype(l0))) * l0 + l1
    np.multiply(_signs(u0, out), l0, out=out)
    return np.add(out, l1, out=out)


def lambda0(l0, l1, l2, out=None, scratch=None):
    """Three-way min-sum box-plus for the left branch of a ternary node."""
    return f_op(f_op(l0, l1, out, scratch), l2, out, scratch)


def lambda1(l0, l1, l2, u0, out=None, scratch=None):
    """(-1)^u0 * l0 + (l1 box-plus l2), for the center branch; out as in f_op."""
    if isinstance(l0, list):
        return [(-a if s else a) + b for a, b, s in zip(l0, f_op(l1, l2), u0)]
    if out is None:
        return (1.0 - 2.0 * np.asarray(u0, dtype=_llr_dtype(l0))) * l0 + f_op(l1, l2)
    boxplus = f_op(l1, l2, scratch, out)
    np.multiply(_signs(u0, out), l0, out=out)
    return np.add(out, boxplus, out=out)


def lambda2(l1, l2, u0, u1, out=None, scratch=None):
    """(-1)^u0 * l1 + (-1)^(u0 xor u1) * l2, for the right branch; out as in f_op.

    u0 and u1 are the left and center partial sums.
    """
    if isinstance(l1, list):
        return [(-a if s else a) + (-b if s ^ t else b) for a, b, s, t in zip(l1, l2, u0, u1)]
    if out is None:
        u0 = np.asarray(u0, dtype=np.uint8)
        flip = u0 ^ np.asarray(u1, dtype=np.uint8)
        dtype = _llr_dtype(l1)
        return (1.0 - 2.0 * u0.astype(dtype)) * l1 + (1.0 - 2.0 * flip.astype(dtype)) * l2
    # (-1)^u0 * (l1 + (-1)^u1 * l2): +-1 commutes with rounding; an exact zero's sign may differ.
    np.add(l1, np.multiply(_signs(u1, out), l2, out=out), out=out)
    return np.multiply(_signs(u0, scratch), out, out=out)


class _TreeDecoder:
    """The SC tree walk and the decode entry points.

    Nodes are keyed by (depth, offset). A multi-bit node found in `_leaves`
    is decoded in one step by `self._decode_leaf(node, alpha, beta, u)`,
    which a subclass that fills `_leaves` must define, on (batch, span) views
    of the node's blocks, (span,) for one frame; every other node recurses
    down to single-bit decisions. A float64 frame's nodes of span at most
    _LIST_SPAN recurse on Python lists (_decode_list), through the same steps
    and leaf decoder. A decode keeps its state in the arrays it allocates,
    never on the instance, so one decoder may serve any number of threads at once.
    """

    def __init__(self, spec):
        self.spec = spec
        self._frozen = spec.frozen.tolist()
        self._leaves = {}
        kv = spec.kernels  # a depth-d node combines by the first stage of kv[d:]
        self._combines = [_stages(False, *kv[depth:])[:1] for depth in range(len(kv))]

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
        if len(llrs) == 1:
            self._decode_node(alpha[:, 0], x[:, 0], u[:, 0], 0, 0, None)
        else:  # one slab per call: (out, scratch) row blocks per depth, a shared scratch first
            spans = (n // np.cumprod(self.spec.kernels)).tolist()
            starts = np.cumsum([spans[0], *spans]).tolist()
            slab = np.empty((starts[-1], len(llrs)), dtype=alpha.dtype)
            slabs = [(slab[start : start + span], slab[:span]) for start, span in zip(starts, spans)]
            self._decode_node(alpha, x, u, 0, 0, slabs)
        return (u.T, x.T) if llrs.flags.f_contiguous else (u.T.copy(), x.T.copy())

    def _decode_node(self, alpha, x, u, depth, offset, slabs):
        """Decode the node with (span, batch) LLRs alpha, (span,) for one frame, into x and u."""
        span = len(alpha)
        if span == 1:
            x[offset] = u[offset] = 0 if self._frozen[offset] else alpha[0] <= 0
            return
        beta = x[offset : offset + span]
        leaf = self._leaves.get((depth, offset))
        if leaf is not None:
            self._decode_leaf(leaf, alpha.T, beta.T, u[offset : offset + span].T)
            return
        if slabs is None and span <= _LIST_SPAN and alpha.dtype == np.float64:
            beta[:], u[offset : offset + span] = self._decode_list(alpha.tolist(), depth, offset)
            return

        k = self.spec.kernels[depth]
        q = span // k
        out, scratch = slabs[depth] if slabs else (None, None)
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
        _decode_node's walk, with each kernel combine as list XORs of its KERNEL_STEPS."""
        span = len(alpha)
        if span == 1:
            bit = not self._frozen[offset] and alpha[0] <= 0
            return [bit], [bit]
        leaf = self._leaves.get((depth, offset))
        if leaf is not None:
            beta, u = np.empty(span, dtype=np.uint8), np.empty(span, dtype=np.uint8)
            self._decode_leaf(leaf, np.array(alpha), beta, u)
            return beta.tolist(), u.tolist()
        k = self.spec.kernels[depth]
        q = span // k
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
