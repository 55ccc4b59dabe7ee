"""Outside-in tracing of mkpolar: wrap the names the package resolves at call time.

Nothing under ``src/`` knows about this module. While a ``Tracer`` is active,
each target below is replaced by a wrapper that records, per phase and span
name, the call count and the self time (the span's duration minus the time of
wrapped spans it called). Leaving the ``with`` block puts every original back.
A target that no longer exists is listed in ``Tracer.missing`` instead of
silently reading as zero time.
"""

import importlib
import time
from collections import defaultdict


def _order_span(args, kwargs):
    strategy = kwargs.get("strategy", args[2] if len(args) > 2 else None)
    if strategy == "highest_reliability":
        return "construction.order_hr"
    return "construction.order_fixed"


# (target, span). A target is "module:attribute" or "module:Class.method"; the
# span is a name or a function of the call's (args, kwargs) returning one.
# A function imported into several modules is wrapped in each, because each
# module resolves its own global at call time. Public names the benchmark
# calls through the `mkpolar` package are wrapped there too.
SPANS = (
    ("mkpolar:run_fer", "channel.run_fer"),
    ("mkpolar.channel:_simulate_chunk", "channel.draw"),
    ("mkpolar.channel:design_code", "channel.redesign"),
    ("mkpolar.channel:expand_message", "encoding.expand"),
    ("mkpolar.channel:stage_transform", "kernels.encode"),
    ("mkpolar.sc:f_op", "sc.f"),
    ("mkpolar.sc:g_op", "sc.g"),
    ("mkpolar.sc:lambda0", "sc.lambda"),
    ("mkpolar.sc:lambda1", "sc.lambda"),
    ("mkpolar.sc:lambda2", "sc.lambda"),
    ("mkpolar.fast_ssc:f_op", "sc.f"),
    ("mkpolar.fast_ssc:g_op", "sc.g"),
    ("mkpolar.fast_ssc:lambda0", "sc.lambda"),
    ("mkpolar.fast_ssc:lambda1", "sc.lambda"),
    ("mkpolar.fast_ssc:lambda2", "sc.lambda"),
    ("mkpolar.sc:SCDecoder.__init__", "sc.decoder_init"),
    ("mkpolar.sc:SCDecoder.decode", "sc.decode"),
    ("mkpolar.sc:SCDecoder.decode_batch", "sc.decode_batch"),
    ("mkpolar.fast_ssc:FastSSCDecoder.__init__", "fast_ssc.decoder_init"),
    ("mkpolar.fast_ssc:FastSSCDecoder.decode", "fast_ssc.decode"),
    ("mkpolar.fast_ssc:FastSSCDecoder.decode_batch", "fast_ssc.decode_batch"),
    ("mkpolar.fast_ssc:decode_rate1", "fast_ssc.rate1"),
    ("mkpolar.fast_ssc:decode_spc", "fast_ssc.spc"),
    ("mkpolar.fast_ssc:decode_rep", "fast_ssc.rep"),
    ("mkpolar.fast_ssc:stage_transform", "kernels.leaf_inverse"),
    ("mkpolar:build_schedule", "fast_ssc.build_schedule"),
    ("mkpolar.fast_ssc:build_schedule", "fast_ssc.build_schedule"),
    ("mkpolar.fast_ssc:classify_node", "fast_ssc.classify"),
    ("mkpolar:construct_code", "construction.construct"),
    ("mkpolar.construction:order_kernels", _order_span),
    ("mkpolar.construction:design_code", "construction.design"),
    ("mkpolar.construction:ga_reliabilities", "construction.ga"),
    ("mkpolar:schedule_stats", "analysis.schedule_stats"),
)


def _resolve(target):
    """Return (owner, attribute) for a target, or None if it no longer exists."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Context manager that installs span wrappers and tallies them by phase.

    ``stats[(phase, span)]`` is ``[calls, self_seconds]``; ``edges[(phase,
    parent, span)]`` counts calls of ``span`` made directly from ``parent``
    (``None`` at the top). Set ``phase`` between operations to attribute
    spans to the operation being timed. A tracer may be entered again;
    tallies accumulate across entries.
    """

    def __init__(self, spans=SPANS):
        self.spans = spans
        self.phase = None
        self.stats = defaultdict(lambda: [0, 0.0])
        self.edges = defaultdict(int)
        self.missing = []
        self._stack = []
        self._installed = []

    def _wrap(self, fn, span):
        stack, stats, edges, clock = self._stack, self.stats, self.edges, time.perf_counter

        def wrapper(*args, **kwargs):
            name = span(args, kwargs) if callable(span) else span
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                entry = stats[(self.phase, name)]
                entry[0] += 1
                entry[1] += elapsed - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += elapsed
                edges[(self.phase, parent[0] if parent else None, name)] += 1

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        return wrapper

    def __enter__(self):
        self.missing = []
        for target, span in self.spans:
            found = _resolve(target)
            if found is None:
                self.missing.append(target)
                continue
            owner, attr = found
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            self._installed.append((owner, attr, own, original))
            setattr(owner, attr, self._wrap(getattr(owner, attr), span))
        return self

    def __exit__(self, *exc):
        while self._installed:
            owner, attr, own, original = self._installed.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        return False

    def calls(self, phase, span):
        return self.stats[(phase, span)][0] if (phase, span) in self.stats else 0

    def self_s(self, phase, span):
        return self.stats[(phase, span)][1] if (phase, span) in self.stats else 0.0

    def total(self, span, field, phases):
        """Sum of calls (field 0) or self seconds (field 1) of a span over phases."""
        return sum(self.stats[(p, span)][field] for p in phases if (p, span) in self.stats)

    def edge_calls(self, phase, parent, span):
        return self.edges.get((phase, parent, span), 0)
