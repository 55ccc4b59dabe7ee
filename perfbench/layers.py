"""Per-layer metrics computed from a traced run, and the exact-count self-check.

Layer names follow the modules in ``src/mkpolar``. Metrics of layers that run
inside a decode are split by phase: ``fastssc.sc.f_us_per_frame`` is the self
time of the ``sc`` module's f kernel per frame while the Fast-SSC decoder
runs. Design-time layers are summed over the timed operations, or over the
traced set-up for a layer that only runs there. A layer that a workload never
runs reads 0.
"""

import mkpolar

from workloads import PHASES

DECODE_MODULE = {"fastssc": "fast_ssc", "sc": "sc"}
LLR_KERNELS = ("f", "g", "lambda")
FAST_LEAVES = (("kernels", "leaf_inverse"), ("fast_ssc", "rate1"), ("fast_ssc", "spc"),
               ("fast_ssc", "rep"))
LEAF_CLASSES = ("rate0", "rate1", "spc", "rep2", "rep3a", "rep3b", "rep3c")
# (metric, span, unit scale): self time per call of design-time spans.
DESIGN_TIMES = (
    ("construction.construct_ms", "construction.construct", 1e3),
    ("construction.order_hr_ms", "construction.order_hr", 1e3),
    ("construction.ga_ms", "construction.ga", 1e3),
    ("construction.design_ms", "construction.design", 1e3),
    ("channel.redesign_ms", "channel.redesign", 1e3),
    ("fast_ssc.build_schedule_ms", "fast_ssc.build_schedule", 1e3),
    ("fast_ssc.classify_us", "fast_ssc.classify", 1e6),
    ("fast_ssc.decoder_init_ms", "fast_ssc.decoder_init", 1e3),
    ("sc.decoder_init_ms", "sc.decoder_init", 1e3),
    ("analysis.schedule_stats_ms", "analysis.schedule_stats", 1e3),
)


def _unit(name):
    for suffix, unit in (("_us_per_frame", "us/frame"), ("_ms", "ms"), ("_us", "us"),
                         ("_frac", "fraction"), ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def _names():
    names = []
    for phase in PHASES:
        for layer in ("channel.run_fer", "channel.draw", "encoding.expand", "kernels.encode"):
            names.append(f"{phase}.{layer}_us_per_frame")
        for k in LLR_KERNELS:
            names += [f"{phase}.sc.{k}_us_per_frame", f"{phase}.sc.{k}_calls"]
        names.append(f"{phase}.{DECODE_MODULE[phase]}.decode_self_us_per_frame")
    for module, leaf in FAST_LEAVES:
        names += [f"fastssc.{module}.{leaf}_us_per_frame", f"fastssc.{module}.{leaf}_calls"]
    names += [metric for metric, _, _ in DESIGN_TIMES]
    names += ["construction.ga_calls", "construction.hr_useful_ratio", "fast_ssc.classify_calls"]
    names += ["analysis.sc_nodes", "fast_ssc.fast_nodes"]
    names += [f"fast_ssc.leaves.{c}" for c in LEAF_CLASSES]
    names += ["trace.overhead_frac", "trace.missing_spans", "trace.count_mismatches"]
    return names


PER_LAYER = [(name, _unit(name)) for name in _names()]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, frames, codes, overhead_frac, mismatches):
    """Every per-layer metric, as name -> value.

    frames maps each phase to the frames it decoded while traced; codes are
    the workload codes whose node counts are reported; mismatches is the
    result of count_mismatches.
    """
    m = {}
    for phase in PHASES:
        per_frame = lambda span: _ratio(tracer.self_s(phase, span) * 1e6, frames[phase])
        mod = DECODE_MODULE[phase]
        batches = tracer.calls(phase, f"{mod}.decode_batch")
        for layer in ("channel.run_fer", "channel.draw", "encoding.expand", "kernels.encode"):
            m[f"{phase}.{layer}_us_per_frame"] = per_frame(layer)
        for k in LLR_KERNELS:
            m[f"{phase}.sc.{k}_us_per_frame"] = per_frame(f"sc.{k}")
            m[f"{phase}.sc.{k}_calls"] = _ratio(tracer.calls(phase, f"sc.{k}"), batches)
        m[f"{phase}.{mod}.decode_self_us_per_frame"] = (
            per_frame(f"{mod}.decode") + per_frame(f"{mod}.decode_batch")
        )
    batches = tracer.calls("fastssc", "fast_ssc.decode_batch")
    for module, leaf in FAST_LEAVES:
        span = f"{module}.{leaf}"
        m[f"fastssc.{span}_us_per_frame"] = _ratio(
            tracer.self_s("fastssc", span) * 1e6, frames["fastssc"]
        )
        m[f"fastssc.{span}_calls"] = _ratio(tracer.calls("fastssc", span), batches)

    # Design-time spans are taken from the timed operations where they ran
    # there, else from the traced set-up, so the per-code counts are exact.
    def where(span):
        return PHASES if any(tracer.calls(p, span) for p in PHASES) else ("setup",)

    def total(span, field, phases=None):
        return tracer.total(span, field, phases or where(span))

    for metric, span, scale in DESIGN_TIMES:
        m[metric] = _ratio(total(span, 1) * scale, total(span, 0))
    ga = where("construction.ga")
    designed = total("construction.construct", 0, ga) + total("channel.redesign", 0, ga)
    m["construction.ga_calls"] = _ratio(total("construction.ga", 0, ga), designed)
    hr = where("construction.order_hr")
    hr_scored = sum(tracer.edge_calls(p, "construction.order_hr", "construction.ga") for p in hr)
    m["construction.hr_useful_ratio"] = _ratio(total("construction.order_hr", 0, hr), hr_scored)
    classify = where("fast_ssc.classify")
    m["fast_ssc.classify_calls"] = _ratio(
        total("fast_ssc.classify", 0, classify), total("fast_ssc.build_schedule", 0, classify)
    )

    rows = mkpolar.latency_table(codes)
    m["analysis.sc_nodes"] = sum(r["sc_nodes"] for r in rows)
    m["fast_ssc.fast_nodes"] = sum(r["fast_nodes"] for r in rows)
    for cls, key in zip(LEAF_CLASSES, ("r0", "r1", "spc", "rep2", "rep3a", "rep3b", "rep3c")):
        m[f"fast_ssc.leaves.{cls}"] = sum(r[key] for r in rows)
    m["trace.overhead_frac"] = overhead_frac
    m["trace.missing_spans"] = len(tracer.missing)
    m["trace.count_mismatches"] = len(mismatches)
    return m


def expected_counts(spec):
    """Per-decode call counts a schedule implies, from mkpolar's own analysis.

    Every non-root node of a decode tree is entered by one f, g or lambda step
    from its parent; Fast-SSC additionally runs one leaf decoder per multi-bit
    fast leaf, and Rate-1 and SPC leaves each run one inverse transform.
    """
    row = mkpolar.latency_table([spec])[0]
    nodes = list(mkpolar.build_schedule(spec))
    multi = {}
    for node in nodes:
        if node.span >= 2 and not node.children:
            multi[node.node_class.value] = multi.get(node.node_class.value, 0) + 1
    rep = sum(row[key] for key in ("rep2", "rep3a", "rep3b", "rep3c"))
    return {
        "sc_steps": row["sc_nodes"],
        "fastssc_steps": len(nodes) - 1,
        "rate1": multi.get("rate1", 0),
        "spc": row["spc"],
        "rep": rep,
        "leaf_inverse": multi.get("rate1", 0) + row["spc"],
        "fast_nodes": row["fast_nodes"],
        "fast_nodes_from_steps": len(nodes) - 1 + sum(multi.values()),
    }


def count_mismatches(tracer, codes):
    """Trace counts that disagree with what the workload's schedule implies.

    Only single-code decoding workloads are checked; each listed entry is
    (what, measured, expected).
    """
    if len(codes) != 1:
        return []
    try:
        exp = expected_counts(codes[0])
    except (AttributeError, TypeError) as exc:  # the schedule's node type changed
        return [("schedule", repr(exc), "iterable nodes with span, children, node_class")]
    bad = []

    def check(what, measured, expected):
        if measured != expected:
            bad.append((what, measured, expected))

    check("fast_nodes", exp["fast_nodes_from_steps"], exp["fast_nodes"])
    for phase in PHASES:
        mod = DECODE_MODULE[phase]
        batches = tracer.calls(phase, f"{mod}.decode_batch")
        if not batches:
            continue
        steps = sum(tracer.edge_calls(phase, f"{mod}.decode_batch", f"sc.{k}") for k in LLR_KERNELS)
        check(f"{phase}.steps", steps, batches * exp["sc_steps" if phase == "sc" else "fastssc_steps"])
        if phase == "fastssc":
            for span, key in (("fast_ssc.rate1", "rate1"), ("fast_ssc.spc", "spc"),
                              ("fast_ssc.rep", "rep"), ("kernels.leaf_inverse", "leaf_inverse")):
                check(span, tracer.calls(phase, span), batches * exp[key])
    return bad
