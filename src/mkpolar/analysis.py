"""Decoding-latency accounting: node counts, reduction tables, rate sweeps.

Latency is measured in decoding operations on a wide processor: entering any
tree node (computing its LLRs from the parent) is one operation, and a fast
leaf spends one more executing its specialized decode. Plain SC therefore
costs the number of non-root tree nodes; the pruned schedule costs its
non-root node count plus one per multi-bit fast leaf.
"""

from dataclasses import asdict, dataclass

from .construction import DEFAULT_DESIGN_EBN0_DB, construct_code
from .fast_ssc import NodeClass, build_schedule
from .kernels import MAX_CODE_LENGTH, _as_integer, nearest_valid_lengths, validate_kernel_vector

TABLE2_LENGTHS = (96, 432, 768, 2304)
TABLE2_RATES = (0.25, 0.5, 0.75)
SWEEP_RATES = tuple(i / 8 for i in range(1, 8))


@dataclass(frozen=True)
class NodeCounts:
    """Operation counts for one code under SC and Fast-SSC scheduling."""

    sc_nodes: int
    fast_nodes: int
    r0: int
    r1: int
    spc: int
    rep2: int
    rep3a: int
    rep3b: int
    rep3c: int

    @property
    def rep3(self):
        return self.rep3a + self.rep3b + self.rep3c

    @property
    def reduction_pct(self):
        return 100.0 * (1.0 - self.fast_nodes / self.sc_nodes)


def sc_node_count(kv):
    """Number of SC decoding operations: all tree nodes below the root."""
    kv = validate_kernel_vector(kv)
    total, width = 0, 1
    for k in kv:
        width *= k
        total += width
    return total


def schedule_stats(sched, kv=None):
    """NodeCounts for a pruned schedule, against the SC cost of its kernels."""
    kv = sched.kernels if kv is None else validate_kernel_vector(kv)
    tally = {cls: 0 for cls in NodeClass}
    nodes = 0
    decode_ops = 0
    for node in sched:
        nodes += 1
        if node.node_class is NodeClass.GENERIC:
            continue
        tally[node.node_class] += 1
        if node.span >= 2:
            decode_ops += 1
    return NodeCounts(
        sc_nodes=sc_node_count(kv),
        fast_nodes=(nodes - 1) + decode_ops,
        r0=tally[NodeClass.RATE0],
        r1=tally[NodeClass.RATE1],
        spc=tally[NodeClass.SPC],
        rep2=tally[NodeClass.REP2],
        rep3a=tally[NodeClass.REP3A],
        rep3b=tally[NodeClass.REP3B],
        rep3c=tally[NodeClass.REP3C],
    )


def ordering_label(kv):
    kv = validate_kernel_vector(kv)
    n3 = kv.count(3)
    n2 = len(kv) - n3
    if n2 == 0 or n3 == 0:
        return "last"
    if kv == (3,) * n3 + (2,) * n2:
        return "first"
    if kv == (2,) * n2 + (3,) * n3:
        return "last"
    return "mixed"


def latency_row(spec, limits=None, ordering=None):
    counts = schedule_stats(build_schedule(spec, limits))
    return {
        "N": spec.n_bits,
        "R": spec.k_bits / spec.n_bits,
        "ordering": ordering or ordering_label(spec.kernels),
        **asdict(counts),
        "reduction_pct": round(counts.reduction_pct, 1),
    }


def latency_table(specs, limits=None):
    """One row of node counts per code spec."""
    return [latency_row(spec, limits) for spec in specs]


def table2_specs(ebn0_db=DEFAULT_DESIGN_EBN0_DB):
    """The 24 (length, rate, ordering) combinations of the reference table."""
    specs = []
    for n in TABLE2_LENGTHS:
        for rate in TABLE2_RATES:
            for ordering in ("last", "first"):
                specs.append(construct_code(n, round(n * rate), ordering, ebn0_db=ebn0_db))
    return specs


def sweep_fixed_k(k_bits=164, rates=SWEEP_RATES, ebn0_db=DEFAULT_DESIGN_EBN0_DB, limits=None):
    """Complexity vs codeword length at fixed message size.

    For each target rate the nearest supported length above K is used; the
    emitted R is the realized k/N.
    """
    # above this K no code fits, and for a huge K the search below would never end
    k_bits = _as_integer("K", k_bits, 1, MAX_CODE_LENGTH - 1)
    rows = []
    for rate in rates:
        target = max(int(round(k_bits / rate)), k_bits + 1)
        below, above = nearest_valid_lengths(target)  # below is target itself when supported
        n = below if (below > k_bits and target - below <= above - target) else above
        for ordering in ("last", "first"):
            spec = construct_code(n, k_bits, ordering, ebn0_db=ebn0_db)
            rows.append(latency_row(spec, limits, ordering=ordering))
    return rows


def sweep_fixed_n(n_bits=768, rates=SWEEP_RATES, ebn0_db=DEFAULT_DESIGN_EBN0_DB, limits=None):
    """Complexity vs rate at fixed codeword length."""
    n_bits = _as_integer("N", n_bits, 2, MAX_CODE_LENGTH)  # before n_bits * rate could take a str
    rows = []
    for rate in rates:
        k = round(n_bits * rate)
        for ordering in ("last", "first"):
            spec = construct_code(n_bits, k, ordering, ebn0_db=ebn0_db)
            rows.append(latency_row(spec, limits, ordering=ordering))
    return rows
