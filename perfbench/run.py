#!/usr/bin/env python3
"""mkpolar benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim-short --seed 1 --seconds 20 --trace 0

It imports mkpolar from ./src (never an installed copy), sets up the
workload's code several times, then runs the workload's operations for
--seconds and checks every output. The last line of standard output is one
JSON object with "correct", "attempted", "failed" and "metrics": end-to-end
metrics with --trace 0, per-layer metrics with --trace 1. The line before it
is the run report (provenance, sample counts, checks). See README.md.
"""

import os

# One BLAS/OpenMP thread: decode_rep's matrix-vector product must not start a
# thread pool on a machine the benchmark shares with its own load.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_REPEATS = 30
# Traced rounds take round indices of their own (an even offset, so phase
# order is unchanged): their simulated frames are fresh draws, and the FER
# check counts no frame twice.
TRACED_ROUND_BASE = 10**6

END_TO_END = (
    ("fastssc.p90_ms", "ms"),
    ("sc.p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def import_program():
    """Import mkpolar from ./src of the checkout; exit 2 if it is not there."""
    init = SRC / "mkpolar" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init.relative_to(ROOT)} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (imported first so import_s covers mkpolar alone)

    t0 = time.perf_counter()
    import mkpolar

    import_s = time.perf_counter() - t0
    if Path(mkpolar.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported mkpolar from {mkpolar.__file__}, not from {init}")
    return import_s


def git_commit():
    """HEAD of the checkout from .git without leaving it, or None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "mkpolar").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_s = import_program()
    import numpy

    import mkpolar
    from measure import Run
    from workloads import PHASES, WORKLOADS, code_digest

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    setup_times = []

    def timed_setup():
        t0 = time.perf_counter()
        state = workload.setup()
        setup_times.append(time.perf_counter() - t0)
        return state

    state = timed_setup()
    workload.prepare(state, args.seed)
    codes = workload.codes(state)

    run = Run(workload, state)
    trace_detail = {}
    if args.trace:
        from layers import PER_LAYER, count_mismatches, layer_metrics
        from spans import Tracer

        # Each round runs untraced, then again with every span wrapped, so the
        # tracing overhead is measured on the same work at the same moment.
        tracer = Tracer()
        with tracer:
            tracer.phase = "setup"
            workload.setup()
        traced = Run(workload, state, tracer)
        deadline = time.perf_counter() + args.seconds
        while run.rounds == 0 or time.perf_counter() < deadline:
            run.run_round(run.rounds)
            with tracer:
                traced.run_round(TRACED_ROUND_BASE + traced.rounds)
        overhead = (traced.busy_s() - run.busy_s()) / run.busy_s()
        frames = {p: traced.items[p] if workload.item == "frame" else 0 for p in PHASES}
        mismatches = count_mismatches(tracer, codes)
        metrics = layer_metrics(tracer, frames, codes, overhead, mismatches)
        units = dict(PER_LAYER)
        trace_detail = {
            "missing_spans": tracer.missing,
            "count_mismatches": mismatches,
            "untraced_busy_s": run.busy_s(),
            "traced_busy_s": traced.busy_s(),
            "rounds": traced.rounds,
        }
        run.absorb(traced)
    else:
        # Further set-ups are spread over the run, so their median does not
        # hang on how busy the machine was at one moment.
        run.run_for(args.seconds, timed_setup, SETUP_REPEATS - 1)
        metrics = run.end_to_end(setup_times)
        units = dict(END_TO_END)
    check_detail = run.finish()

    failed = sum(run.failed.values())
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "mkpolar": mkpolar.__version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "codes": [
            {"n": c.n_bits, "k": c.k_bits, "kernels": list(c.kernels), "sha256": code_digest(c)}
            for c in codes
        ],
        "import_s": import_s,
        "setup_s_samples": setup_times,
        "samples": run.samples(),
        "failed_frac": failed / run.attempted,
        "failed_by_phase": run.failed,
        "checks": check_detail,
        "errors": run.errors,
        "trace": trace_detail,
    }
    print(json.dumps({"report": report}, default=str))
    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
