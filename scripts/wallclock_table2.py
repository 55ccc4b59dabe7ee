#!/usr/bin/env python3
"""Wall-clock Table 2: measured decode times of the 24 reference codes beside their node counts.

For each analysis.table2_specs() code, SC and Fast-SSC decode the same seeded
noisy frames (random messages, BPSK over AWGN at 2 dB, seeded per code):
  - one float64 frame at a time by decode, the two decoders alternating frame by
    frame, reported as the p50 and p90 of FRAMES calls in microseconds;
  - BATCH float32 frames at once by decode_batch, frames-last as run_fer hands
    them, reported as microseconds per frame (the best of BATCH_REPEATS calls).
measured_pct is Fast-SSC's one-frame p50 reduction against SC's, beside the
node-count reduction_pct that `mkpolar analyze --table2` prints. Every row
names the host, the Python and numpy versions and the commit it was measured
on. Times depend on the host and its load; the node-count table is the gate.
--quick decodes a few frames only, to check the script runs; its times are noise.

    PYTHONPATH=src python3 scripts/wallclock_table2.py [--quick] [--format json] [--out FILE]
"""

import argparse
import os
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

from mkpolar import FastSSCDecoder, SCDecoder
from mkpolar.analysis import latency_row, table2_specs
from mkpolar.channel import awgn_llr, modulate, noise_variance
from mkpolar.cli import emit_report
from mkpolar.encoding import encode_message

DECODERS = {"sc": SCDecoder, "fastssc": FastSSCDecoder}
EBN0_DB = 2.0
FRAMES, BATCH, BATCH_REPEATS = 200, 1024, 3
FIELDS = ("N", "R", "ordering", "sc_p50_us", "sc_p90_us", "fastssc_p50_us", "fastssc_p90_us",
          "sc_batch_us_per_frame", "fastssc_batch_us_per_frame", "measured_pct", "reduction_pct",
          "host", "python", "numpy", "commit")


def noisy_frames(spec, count, ebn0_db, seed):
    """count float64 channel LLR frames of random messages, (count, N)."""
    rng = np.random.default_rng(seed)
    x = encode_message(rng.integers(0, 2, (count, spec.k_bits), dtype=np.uint8), spec)
    return awgn_llr(modulate(x), noise_variance(ebn0_db, spec.rate), rng.standard_normal(x.shape))


def one_frame_us(decoders, llrs):
    """Each decoder's decode time per frame in microseconds, the decoders alternating."""
    times = {name: [] for name in decoders}
    names = list(decoders)
    for i, llr in enumerate(llrs):
        for name in names[i % 2 :] + names[: i % 2]:
            start = time.perf_counter_ns()
            decoders[name].decode(llr)
            times[name].append((time.perf_counter_ns() - start) / 1e3)
    return times


def batch_us_per_frame(decoder, llrs, repeats):
    """The best of repeats decode_batch calls on llrs, in microseconds per frame."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter_ns()
        decoder.decode_batch(llrs)
        best = min(best, time.perf_counter_ns() - start)
    return best / 1e3 / len(llrs)


def environment():
    """The host, Python, numpy and commit columns of every row."""
    try:
        commit = subprocess.run(["git", "describe", "--always", "--dirty"], capture_output=True, text=True,
                                cwd=Path(__file__).resolve().parent, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    # No comma: emit_report does not quote CSV cells.
    host = f"{platform.system()} {platform.release()} {platform.machine()} {os.cpu_count()} CPUs"
    return {"host": host, "python": platform.python_version(), "numpy": np.__version__, "commit": commit}


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--quick", action="store_true", help="a few frames only, to check the script runs")
    parser.add_argument("--out", help="output file (default stdout)")
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    args = parser.parse_args()
    frames, batch, repeats = (2, 2, 1) if args.quick else (FRAMES, BATCH, BATCH_REPEATS)

    env = environment()
    rows = []
    for index, spec in enumerate(table2_specs()):
        decoders = {name: make(spec) for name, make in DECODERS.items()}
        llrs = noisy_frames(spec, max(frames, batch), EBN0_DB, seed=index)
        for decoder in decoders.values():
            decoder.decode(llrs[0])  # warm-up
        single = one_frame_us(decoders, llrs[:frames])
        frames32 = np.asfortranarray(llrs[:batch], dtype=np.float32)
        row = {key: value for key, value in latency_row(spec).items() if key in FIELDS}
        for name, times in single.items():
            row[f"{name}_p50_us"], row[f"{name}_p90_us"] = np.percentile(times, [50, 90]).tolist()
            row[f"{name}_batch_us_per_frame"] = batch_us_per_frame(decoders[name], frames32, repeats)
        row["measured_pct"] = round(100 * (1 - row["fastssc_p50_us"] / row["sc_p50_us"]), 1)
        rows.append({**row, **env})
    emit_report(rows, FIELDS, args.fmt, args.out)


if __name__ == "__main__":
    main()
