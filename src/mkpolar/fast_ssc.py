"""Fast-SSC decoding: frozen-pattern classification, pruned schedules, fast nodes.

Subtrees whose frozen pattern mirrors a simple subcode are decoded in one
specialized step instead of being traversed:

  Rate-0  all bits frozen                 -> zeros
  Rate-1  no bits frozen                  -> elementwise hard decision
  SPC     only the first bit frozen       -> single parity check (Wagner)
  REP     only the last bit unfrozen      -> repetition over pattern P_v

Ternary kernels leave the repeated bit in only part of the codeword, so REP
nodes carry a mask P_v (kernels.rep_pattern, the codeword of (0, ..., 0, 1))
and decide on the LLRs at P_v's ones, summed left to right in their float
type, so a frame decides alike alone and in any batch. REP2 nodes are
all-binary, REP3A all-ternary, REP3B/REP3C have their ternary stages
first/last; the classes differ only in which nodes are recognized (and
counted in Table 2).

FastSSCDecoder runs the same tree walk as SCDecoder (sc._TreeDecoder); the
schedule's multi-bit leaves replace the subtrees they prune. Each leaf decoder
takes the walk's frames-last LLR block, (span, batch), or one frame's (span,)
(a list under a list-walked node), and returns its codeword and sourceword bits
in that shape. Rate-1 and SPC leaves get the sourceword from their boolean hard
decisions by one inverse stage transform each. They decide a tied (zero) LLR
on the codeword bit, where SC decides the sourceword bit, so without SPC the
decoder is bit-exact to SC for tie-free LLRs only; on ties both return valid
codewords. The leaf decoders, like the LLR steps, compute in float32 for
float32 LLRs and in float64 otherwise.
"""

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from math import prod

import numpy as np

from .construction import CodeSpec
from .kernels import _as_bits, _as_instance, _as_integer, rep_pattern, stage_transform, validate_kernel_vector
# The LLR steps run in sc.py's walk; perfbench/spans.py still resolves them here.
from .sc import _llr_dtype, _TreeDecoder, f_op, g_op, lambda0, lambda1, lambda2  # noqa: F401


class NodeClass(str, Enum):
    RATE0 = "rate0"
    RATE1 = "rate1"
    SPC = "spc"
    REP2 = "rep2"
    REP3A = "rep3a"
    REP3B = "rep3b"
    REP3C = "rep3c"
    GENERIC = "generic"


REP_CLASSES = frozenset({NodeClass.REP2, NodeClass.REP3A, NodeClass.REP3B, NodeClass.REP3C})


@dataclass(frozen=True)
class NodeLimits:
    """Constraints on which fast nodes the schedule builder may emit.

    rep3a_max_span caps all-ternary REP nodes so their patterns can be
    tabulated (3, 9 or 27). REP3B/C are only recognized with exactly one
    ternary stage, the paper's constraint for a fixed-index implementation.
    spc turns SPC nodes on (the default) or off. general_rep lifts the REP
    constraints entirely (the paper's generalization). Every REP node decodes
    by its pattern sum, so these limits change which nodes are recognized,
    not how they decode.
    """

    rep3a_max_span: int = 27
    spc: bool = True
    general_rep: bool = False

    def __post_init__(self):
        for name in ("spc", "general_rep"):
            value = getattr(self, name)
            if not isinstance(value, (bool, np.bool_)):
                raise ValueError(f"{name} must be a bool, got {value!r}")
            object.__setattr__(self, name, bool(value))
        span = _as_integer("rep3a_max_span", self.rep3a_max_span, 3, 27)
        if span not in (3, 9, 27):
            raise ValueError(f"rep3a_max_span must be 3, 9 or 27, got {span}")
        object.__setattr__(self, "rep3a_max_span", span)


def _resolve_limits(limits):
    """limits, or NodeLimits() for None; anything else raises a one-line ValueError."""
    if not isinstance(limits, (NodeLimits, type(None))):
        raise ValueError(f"limits must be a NodeLimits, got {limits!r}")
    return limits or NodeLimits()


def _classify(n_frozen, first_frozen, last_frozen, span, kv_sub, limits):
    """Fast-node class from a node's frozen count and its first and last frozen bit.

    The one priority rule, Rate0 > Rate1 > REP > SPC where patterns coincide;
    a span-1 node is Rate0 or Rate1.
    """
    if n_frozen == span:
        return NodeClass.RATE0
    if n_frozen == 0:
        return NodeClass.RATE1
    if n_frozen == span - 1 and not last_frozen:
        n3 = kv_sub.count(3)
        if n3 == 0:
            return NodeClass.REP2
        if n3 == len(kv_sub):
            if span <= limits.rep3a_max_span or limits.general_rep:
                return NodeClass.REP3A
            return NodeClass.GENERIC
        if limits.general_rep:
            return NodeClass.REP3B if kv_sub[0] == 3 else NodeClass.REP3C
        if n3 == 1 and kv_sub[0] == 3:
            return NodeClass.REP3B
        if n3 == 1 and kv_sub[-1] == 3:
            return NodeClass.REP3C
        return NodeClass.GENERIC
    if n_frozen == 1 and first_frozen and limits.spc:
        return NodeClass.SPC
    return NodeClass.GENERIC


def classify_node(frozen_span, kv_sub, limits=None):
    """Fast-node class of a subtree from its frozen mask and sub-kernel vector.

    Checks the mask (0s and 1s only) against the kernels, counts its frozen bits
    and applies the priority rule build_schedule uses: Rate0 > Rate1 > REP > SPC.
    """
    mask = _as_bits("frozen mask", frozen_span)
    kv_sub = validate_kernel_vector(kv_sub)
    span = len(mask)
    if span != prod(kv_sub):  # at least 2, as kv_sub is nonempty
        raise ValueError(f"mask length {span} does not match kernel product {prod(kv_sub)}")
    n_frozen = int(np.count_nonzero(mask))
    return _classify(n_frozen, mask[0] == 1, mask[-1] != 0, span, kv_sub, _resolve_limits(limits))


@dataclass(frozen=True, eq=False, slots=True)
class ScheduleNode:
    node_class: NodeClass
    depth: int
    offset: int
    span: int
    kv_sub: tuple
    pattern: np.ndarray | None = field(default=None, repr=False)
    children: tuple = ()


@dataclass(frozen=True, eq=False)
class PrunedSchedule:
    """Immutable pruned decode tree driving a Fast-SSC decoder."""

    root: ScheduleNode
    kernels: tuple

    def __iter__(self):
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def leaves(self):
        return [n for n in self if n.node_class is not NodeClass.GENERIC]

    def export_lines(self):
        """Depth-first `depth,offset,span,class` line per pruned-tree node."""
        return [f"{n.depth},{n.offset},{n.span},{n.node_class.value}" for n in self]


def build_schedule(spec, limits=None):
    """Prune the decode tree of a code top-down into fast nodes.

    Classification is greedy: a recognized node becomes a leaf of the pruned
    tree, anything else recurses into its k children. Surviving single-bit
    leaves are emitted as Rate0/Rate1. Each node is classified by
    classify_node's rule in O(1) Python work, from one prefix count of the
    frozen mask and the node's first and last frozen bit. REP nodes of one
    sub-kernel vector share one read-only pattern (_shared_pattern); the
    schedule keeps no reference to the spec.
    """
    spec = _as_instance("spec", spec, CodeSpec)
    root = _ScheduleBuilder(spec, _resolve_limits(limits)).node(0, 0, spec.n_bits)
    return PrunedSchedule(root=root, kernels=spec.kernels)


class _ScheduleBuilder:
    """Builds schedule nodes by recursion over plain lists of one code's frozen mask.

    It holds no reference to the spec; a recursive closure over the spec would
    form a reference cycle that keeps the spec alive until gc runs.
    """

    def __init__(self, spec, limits):
        self.kv = spec.kernels
        self.frozen = spec.frozen.tolist()
        self.before = [0, *itertools.accumulate(self.frozen)]  # frozen bits before each index
        self.limits = limits

    def node(self, depth, offset, span):
        frozen, end = self.frozen, offset + span
        kv_sub = self.kv[depth:]
        cls = _classify(self.before[end] - self.before[offset], frozen[offset], frozen[end - 1],
                        span, kv_sub, self.limits)
        if cls is not NodeClass.GENERIC:
            pattern = _shared_pattern(kv_sub) if cls in REP_CLASSES else None
            return ScheduleNode(cls, depth, offset, span, kv_sub, pattern)
        q = span // self.kv[depth]
        children = tuple(self.node(depth + 1, j, q) for j in range(offset, end, q))
        return ScheduleNode(cls, depth, offset, span, kv_sub, None, children)


@lru_cache(maxsize=1024)  # sub-kernel vectors are few; the bound caps a process that uses many
def _shared_pattern(kv_sub):
    """rep_pattern(kv_sub) as a read-only bool array: the one every REP node of kv_sub holds."""
    pattern = rep_pattern(kv_sub).astype(bool)
    pattern.flags.writeable = False
    return pattern


def decode_rate1(alpha, kv_sub):
    """Rate-1 on (span, batch) LLRs, (span,) for one frame: the hard decisions beta and
    the sourceword from them by the inverse stage transform, both in alpha's shape."""
    alpha = np.asarray(alpha, dtype=_llr_dtype(alpha))
    beta = alpha <= 0.0
    return beta.view(np.uint8), stage_transform(beta.T, kv_sub, inverse=True).T


def decode_spc(alpha, kv_sub):
    """Single parity check on (span, batch) LLRs, (span,) for one frame: hard decisions with
    each frame's least reliable bit flipped if its parity is odd, maximum likelihood."""
    alpha = np.asarray(alpha, dtype=_llr_dtype(alpha))
    beta = alpha <= 0.0
    if beta.ndim == 1:
        if np.count_nonzero(beta) & 1:
            beta[np.abs(alpha).argmin()] ^= True
    elif beta.ndim == 2:
        parity = np.bitwise_xor.reduce(beta, axis=0)
        beta[np.abs(alpha).argmin(axis=0), np.arange(beta.shape[1])] ^= parity
    else:
        raise ValueError(f"LLRs of shape {alpha.shape} are neither (span,) nor (span, batch)")
    return beta.view(np.uint8), stage_transform(beta.T, kv_sub, inverse=True).T


def decode_rep(alpha, pattern):
    """Repetition decode on (span, batch) LLRs, (span,) for one frame: the bit decides the
    LLRs at the pattern's ones summed left to right in their float type. u_hat is the bit
    last, beta the bit times the pattern, both in alpha's shape."""
    alpha = np.asarray(alpha, dtype=_llr_dtype(alpha))
    ones = _as_bits("pattern", pattern).astype(bool, copy=False)  # the schedule's are bool: no scan
    if ones.shape != alpha.shape[:1]:
        raise ValueError(f"pattern of shape {ones.shape} does not fit LLRs of shape {alpha.shape}")
    terms = alpha[ones]
    # numpy adds a block's rows in order but a lone frame's values pairwise; accumulate never pairs.
    total = np.add.accumulate(terms)[-1] if terms.size == len(terms) else np.add.reduce(terms, axis=0)
    bit = total <= 0
    u_hat = np.zeros(alpha.shape, dtype=np.uint8)
    u_hat[-1] = bit
    return np.multiply.outer(ones, bit).view(np.uint8), u_hat


class FastSSCDecoder(_TreeDecoder):
    """Schedule-driven decoder: the SC walk with the schedule's multi-bit leaves
    decoded in one step.

    The decoder keeps no per-decode state, so one instance may be shared by
    threads, and so may its immutable schedule.
    """

    def __init__(self, spec, limits=None):
        super().__init__(spec)
        self.schedule = build_schedule(spec, limits)
        # Single-bit leaves take the walk's own bit decision, which they equal.
        self._leaves = {(n.depth, n.offset): n for n in self.schedule.leaves() if n.span > 1}

    def _decode_leaf(self, node, alpha):
        """The blocks (beta, u) of a multi-bit leaf from its (span, batch) LLRs alpha, (span,) or a
        list for one frame: lists for a list, else arrays of alpha's shape (read only) or Rate-0's 0."""
        cls = node.node_class
        if cls is NodeClass.RATE0:
            zeros = [0] * len(alpha) if isinstance(alpha, list) else 0
            return zeros, zeros
        if cls is NodeClass.RATE1:
            beta, u = decode_rate1(alpha, node.kv_sub)
        elif cls is NodeClass.SPC:
            beta, u = decode_spc(alpha, node.kv_sub)
        else:
            beta, u = decode_rep(alpha, node.pattern)
        return (beta.tolist(), u.tolist()) if isinstance(alpha, list) else (beta, u)
