#!/usr/bin/env python3
"""Regenerate perfbench/reference.json from the mkpolar in ./src.

    python3 perfbench/make_reference.py

Records, for the output checks, the FER of each decoder on each simulation
workload (from CALLS run_fer calls of 1024 frames, on seeds that no
benchmark run uses) and, for each of the design workload's 36 codes, the
code's sha256 (kernels plus frozen indices) and its node counts. Run it only
on a commit whose decoders and construction are trusted: the benchmark then
holds later commits to these values.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import mkpolar  # noqa: E402
from workloads import PHASES, WORKLOADS, DesignWorkload, code_digest, node_counts  # noqa: E402

# Reference seeds sit far above any --seed a benchmark run is given.
REFERENCE_SEED_BASE = 10**9
# 100 calls give 102 400 frames per decoder, which the FER interval's
# relative tolerance assumes.
CALLS = 100


def main():
    fer = {}
    for name in ("sim-short", "sim-long"):
        wl = WORKLOADS[name]
        state = wl.setup()
        wl.prepare(state, 0)
        fer[name] = {}
        for phase in PHASES:
            frames = errors = 0
            for i in range(CALLS):
                stats = wl.simulate(state.spec, phase, REFERENCE_SEED_BASE + i)
                frames += stats.points[0].frames
                errors += stats.points[0].frame_errors
            fer[name][phase] = {"frames": frames, "frame_errors": errors, "fer": errors / frames}
            print(name, phase, fer[name][phase], file=sys.stderr)
    design = {}
    for n, k, ordering in DesignWorkload.CODES:
        spec = mkpolar.construct_code(n, k, ordering)
        counts = node_counts(mkpolar.schedule_stats(mkpolar.build_schedule(spec)))
        design[f"{n},{k},{ordering}"] = {"sha256": code_digest(spec), **counts}
    out = Path(__file__).with_name("reference.json")
    out.write_text(json.dumps({"fer": fer, "design": design}, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
