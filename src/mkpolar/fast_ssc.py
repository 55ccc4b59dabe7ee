"""Fast-SSC decoding: frozen-pattern classification, pruned schedules, fast nodes.

Subtrees whose frozen pattern mirrors a simple subcode are decoded in one
specialized step instead of being traversed:

  Rate-0  all bits frozen                 -> zeros
  Rate-1  no bits frozen                  -> elementwise hard decision
  SPC     only the first bit frozen       -> single parity check (Wagner)
  REP     only the last bit unfrozen      -> repetition over pattern P_v

Ternary kernels leave the repeated bit in only part of the codeword, so REP
nodes carry a mask P_v (Kronecker product of the kernels' last rows) and
decode by one pattern sum, alpha @ P_v. REP2 nodes are all-binary, REP3A
all-ternary, REP3B/REP3C have their ternary stages first/last; the classes
differ only in which nodes are recognized (and counted in Table 2).

FastSSCDecoder runs the same tree walk as SCDecoder (sc._TreeDecoder); the
schedule's multi-bit leaves replace the subtrees they prune; Rate-1 and SPC
leaves recover their sourceword bits by the inverse stage transform. They
decide a tied (zero) LLR on the codeword bit, where SC decides the sourceword
bit, so without SPC the decoder is bit-exact to SC for tie-free LLRs only; on
ties both return valid codewords.
"""

from dataclasses import dataclass, field
from enum import Enum
from math import prod

import numpy as np

from .kernels import KERNELS, stage_transform, validate_kernel_vector
# The LLR steps run in sc.py's walk; perfbench/spans.py still resolves them here.
from .sc import _TreeDecoder, f_op, g_op, lambda0, lambda1, lambda2  # noqa: F401


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
    spc_max_span bounds SPC nodes (0 disables them, None leaves them
    uncapped). general_rep lifts the REP constraints entirely (the paper's
    generalization). Every REP node decodes by its pattern sum, so these
    limits change which nodes are recognized, not how they decode.
    """

    rep3a_max_span: int = 27
    spc_max_span: int | None = None
    general_rep: bool = False

    def __post_init__(self):
        if self.rep3a_max_span not in (3, 9, 27):
            raise ValueError(f"rep3a_max_span must be 3, 9 or 27, got {self.rep3a_max_span}")


def rep_pattern(kv_sub):
    """Repetition pattern P_v: Kronecker product of the kernels' last rows in kv order.

    Equals the last generator row, i.e. the codeword of (0, ..., 0, 1).
    """
    pat = np.ones(1, dtype=np.uint8)
    for k in validate_kernel_vector(kv_sub):
        pat = np.multiply.outer(pat, KERNELS[k][-1]).ravel()
    return pat


def classify_node(frozen_span, kv_sub, limits=None):
    """Fast-node class of a subtree from its frozen mask and sub-kernel vector.

    Priority where patterns coincide: Rate0 > Rate1 > REP > SPC.
    """
    limits = limits or NodeLimits()
    mask = np.asarray(frozen_span, dtype=np.uint8)
    kv_sub = validate_kernel_vector(kv_sub)
    span = len(mask)
    if span < 2:
        raise ValueError("classify_node requires span >= 2")
    if span != prod(kv_sub):
        raise ValueError(f"mask length {span} does not match kernel product")

    n_frozen = np.count_nonzero(mask)
    if n_frozen == span:
        return NodeClass.RATE0
    if n_frozen == 0:
        return NodeClass.RATE1
    if n_frozen == span - 1 and mask[-1] == 0:
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
    if n_frozen == 1 and mask[0] == 1:
        if limits.spc_max_span is None or span <= limits.spc_max_span:
            return NodeClass.SPC
        return NodeClass.GENERIC
    return NodeClass.GENERIC


@dataclass(frozen=True, eq=False)
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
    n_bits: int
    frozen: np.ndarray = field(repr=False)

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
    leaves are emitted as Rate0/Rate1.
    """
    limits = limits or NodeLimits()
    kv = spec.kernels

    def make(depth, offset, span):
        if span == 1:
            cls = NodeClass.RATE0 if spec.frozen[offset] else NodeClass.RATE1
            return ScheduleNode(cls, depth, offset, span, kv_sub=())
        kv_sub = kv[depth:]
        cls = classify_node(spec.frozen[offset : offset + span], kv_sub, limits)
        if cls is not NodeClass.GENERIC:
            pattern = rep_pattern(kv_sub) if cls in REP_CLASSES else None
            return ScheduleNode(cls, depth, offset, span, kv_sub, pattern)
        k = kv[depth]
        q = span // k
        children = tuple(make(depth + 1, offset + j * q, q) for j in range(k))
        return ScheduleNode(cls, depth, offset, span, kv_sub, None, children)

    root = make(0, 0, spec.n_bits)
    return PrunedSchedule(root=root, kernels=kv, n_bits=spec.n_bits, frozen=spec.frozen.copy())


def decode_rate1(alpha, kv_sub):
    """Rate-1: beta = hard decisions, sourceword recovered by the inverse stage transform."""
    alpha = np.asarray(alpha, dtype=float)
    beta = (alpha <= 0).astype(np.uint8)
    return beta, stage_transform(beta, kv_sub, inverse=True)


def decode_spc(alpha, kv_sub):
    """Single parity check: hard decisions, then flip the least reliable bit
    if the overall parity is odd. Maximum likelihood for this subcode."""
    alpha = np.asarray(alpha, dtype=float)
    span = alpha.shape[-1]
    flat = alpha.reshape(-1, span)
    beta = (flat <= 0).astype(np.uint8)
    parity = np.bitwise_xor.reduce(beta, axis=-1)
    least = np.argmin(np.abs(flat), axis=-1)
    beta[np.arange(len(beta)), least] ^= parity
    beta = beta.reshape(alpha.shape)
    return beta, stage_transform(beta, kv_sub, inverse=True)


def decode_rep(alpha, pattern):
    """Repetition decode: hard decision on the pattern-masked LLR sum alpha @ P_v.

    The repeated bit is the node's last sourceword bit; beta is that bit
    times the pattern.
    """
    alpha = np.asarray(alpha, dtype=float)
    pattern = np.asarray(pattern, dtype=np.uint8)
    bit = (np.asarray(alpha @ pattern.astype(float)) <= 0).astype(np.uint8)
    beta = bit[..., np.newaxis] * pattern
    u_hat = np.zeros(alpha.shape, dtype=np.uint8)
    u_hat[..., -1] = bit
    return beta, u_hat


class FastSSCDecoder(_TreeDecoder):
    """Schedule-driven decoder: the SC walk with the schedule's multi-bit leaves
    decoded in one step.

    Schedules are immutable and may be shared; the decoder owns its scratch
    buffers, so use one instance per worker.
    """

    def __init__(self, spec, limits=None, schedule=None):
        super().__init__(spec)
        self.limits = limits or NodeLimits()
        self.schedule = schedule if schedule is not None else build_schedule(spec, self.limits)
        if self.schedule.kernels != spec.kernels or not np.array_equal(
            self.schedule.frozen, spec.frozen
        ):
            raise ValueError("schedule was built for a different code")
        # Single-bit leaves take the walk's own bit decision, which they equal.
        self._leaves = {(n.depth, n.offset): n for n in self.schedule.leaves() if n.span > 1}

    def _decode_leaf(self, node):
        depth, offset, span = node.depth, node.offset, node.span
        beta = self._beta[depth]
        cls = node.node_class
        if cls is NodeClass.RATE0:
            beta[:] = 0
            self._u[:, offset : offset + span] = 0
            return
        alpha = self._llr[depth]
        if cls is NodeClass.RATE1:
            b, u = decode_rate1(alpha, node.kv_sub)
        elif cls is NodeClass.SPC:
            b, u = decode_spc(alpha, node.kv_sub)
        else:
            b, u = decode_rep(alpha, node.pattern)
        beta[:] = b
        self._u[:, offset : offset + span] = u
