"""The timing loop: runs a workload's rounds, times each operation, tallies checks."""

import resource
import time
import traceback

import numpy as np

from workloads import PHASES


def percentile(values, q):
    return float(np.percentile(values, q))


class Run:
    """Times every operation of a workload's rounds and counts failed checks.

    With a tracer, the tracer's phase is set to each operation's phase before
    the operation runs, so spans are attributed to it.
    """

    def __init__(self, workload, state, tracer=None):
        self.workload, self.state, self.tracer = workload, state, tracer
        self.latency = {p: [] for p in PHASES}
        self.kinds = {p: [] for p in PHASES}
        self.items = {p: 0 for p in PHASES}
        self.failed = {p: 0 for p in PHASES}
        self.errors = []  # tracebacks of the first operations that raised
        self.rounds = 0

    @property
    def attempted(self):
        return sum(len(v) for v in self.latency.values())

    def run_round(self, index):
        clock = time.perf_counter
        for op in self.workload.round(self.state, index):
            if self.tracer is not None:
                self.tracer.phase = op.phase
            t0 = clock()
            try:
                result = op.call()
            except Exception:  # a failed operation is counted, not fatal
                result = None
                if len(self.errors) < 3:
                    self.errors.append(traceback.format_exc())
            elapsed = clock() - t0
            self.latency[op.phase].append(elapsed)
            self.kinds[op.phase].append(op.kind)
            self.items[op.phase] += op.items
            if result is None or not op.check(result):
                self.failed[op.phase] += 1
        self.rounds += 1

    def run_for(self, seconds, between=None, times=0):
        """Run whole rounds, at least one, until `seconds` have passed.

        `between`, if given, is called `times` times between rounds, spread
        evenly over the run.
        """
        start = time.perf_counter()
        done = 0
        while self.rounds == 0 or time.perf_counter() - start < seconds:
            if done < times and time.perf_counter() - start >= (done + 0.5) * seconds / times:
                between()
                done += 1
            self.run_round(self.rounds)

    def busy_s(self):
        return sum(sum(v) for v in self.latency.values())

    def absorb(self, other):
        """Count another run's operations and failures as this run's."""
        for p in PHASES:
            self.latency[p] += other.latency[p]
            self.kinds[p] += other.kinds[p]
            self.failed[p] += other.failed[p]
            self.items[p] += other.items[p]
        self.errors += other.errors

    def finish(self):
        """Apply the workload's whole-run checks; a failed one fails every op of its phase."""
        passed, detail = self.workload.verdict()
        for p in PHASES:
            if not passed[p]:
                self.failed[p] = len(self.latency[p])
        return detail

    def end_to_end(self, setup_times):
        # Times are gated as 90th percentiles, set-up time too. On a shared
        # machine an operation runs at a fast or a slow speed for seconds at a
        # time, and the share of each changes from minute to minute: a median
        # or a mean follows that share, while p90 sits on the slow level every
        # run reaches. The median and mean are in the run report. Where operations of
        # different kinds do different work (the 36 codes of `design`), p90 is
        # taken per kind and summed: the time of one operation of each kind.
        m = {}
        for p in PHASES:
            by_kind = {}
            for kind, elapsed in zip(self.kinds[p], self.latency[p]):
                by_kind.setdefault(kind, []).append(elapsed)
            m[f"{p}.p90_ms"] = sum(percentile(v, 90) for v in by_kind.values()) * 1e3
        m["setup_s"] = percentile(setup_times, 90)
        m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return m

    def samples(self):
        return {
            p: {
                "ops": len(self.latency[p]),
                "items": self.items[p],
                "busy_s": sum(self.latency[p]),
                "per_s": self.items[p] / sum(self.latency[p]),
                "p50_ms": percentile(self.latency[p], 50) * 1e3,
                "p99_ms": percentile(self.latency[p], 99) * 1e3,
            }
            for p in PHASES
        }
