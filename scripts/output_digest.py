#!/usr/bin/env python3
"""Print sha256 digests of what the decoders and the simulator return.

Two trees that print the same digests decode and simulate bit for bit alike,
so a change meant to keep outputs unchanged can be checked against its parent:

    PYTHONPATH=src python3 scripts/output_digest.py

decode   u_hat and x_hat of the 36 benchmark design codes (N in 96, 432, 768,
         2304 x rate 1/4, 1/2, 3/4 x first, last, highest-reliability
         ordering) under SC, Fast-SSC and Fast-SSC with spc=False and
         general_rep=True, on 33 frames per code (16 integer-LLR frames in
         -2..2, so with ties, 16 Gaussian frames and one all-zero frame),
         decoded by decode_batch from a C-ordered and from an F-ordered
         (frames, N) array and frame by frame by decode.
decode float32
         the same codes, decoders and frames, with the frames rounded to
         float32, so the walk computes in float32 throughout. These frames
         decide in float32 as in float64, so the two digests agree.
run_fer  the rows of 96 run_fer runs: N 96 and 432 (K = N/2, last ordering,
         designed at 3 dB) x both decoders x seeds 0-2 x (workers,
         batch_size) in (1, 1024), (1, 37), (3, 100), (2, 64) x per-SNR
         redesign on and off, at Eb/N0 1.0 and 2.5 dB with StopRule(700, 60).
front-end
         what `mkpolar analyze --table2`, `--sweep-k 164` and `--sweep-n 768`
         print at their default flags, as CSV and as JSON, and the
         schedule export_lines() of the 36 design codes.

--quick keeps the first entry of each axis and a few frames; its digests
differ from the full ones, and tests/test_scripts.py pins them, so the
tier-1 suite catches a bit-level change to decoding or to the random stream.
"""

import argparse
import contextlib
import hashlib
import io
import json

import numpy as np

from mkpolar import FastSSCDecoder, NodeLimits, SCDecoder, StopRule, construct_code, run_fer
from mkpolar.cli import main as cli_main
from mkpolar.fast_ssc import build_schedule

CODES = tuple(
    (n, round(n * rate), ordering)
    for n in (96, 432, 768, 2304)
    for rate in (0.25, 0.5, 0.75)
    for ordering in ("first", "last", "highest_reliability")
)
DECODERS = (
    ("sc", SCDecoder),
    ("fastssc", FastSSCDecoder),
    ("fastssc-nospc-genrep", lambda spec: FastSSCDecoder(spec, NodeLimits(spc=False, general_rep=True))),
)
SIM_LENGTHS = (96, 432)
SIM_DECODERS = ("sc", "fastssc")
SIM_SEEDS = (0, 1, 2)
SIM_BATCHING = ((1, 1024), (1, 37), (3, 100), (2, 64))
SIM_REDESIGN = (True, False)
REPORTS = (["--table2"], ["--sweep-k", "164"], ["--sweep-n", "768"])
FORMATS = ("csv", "json")


def frames(n, count, seed):
    """count frames of n LLRs: integers in -2..2, Gaussian, then one all-zero frame."""
    rng = np.random.default_rng(seed)
    half = (count - 1) // 2
    ties = rng.integers(-2, 3, (half, n)).astype(np.float64)
    gaussian = 2.0 + 3.0 * rng.standard_normal((count - 1 - half, n))
    return np.vstack([ties, gaussian, np.zeros((1, n))])


def decode_digest(codes, decoders, count, dtype=np.float64):
    h = hashlib.sha256()
    for index, code in enumerate(codes):
        spec = construct_code(*code)
        llrs = frames(spec.n_bits, count, index).astype(dtype)
        for _, make in decoders:
            decoder = make(spec)
            outputs = [decoder.decode_batch(llrs), decoder.decode_batch(np.asfortranarray(llrs))]
            single = [decoder.decode(llr) for llr in llrs]
            outputs.append(tuple(np.stack(part) for part in zip(*single)))
            for u_hat, x_hat in outputs:
                h.update(np.ascontiguousarray(u_hat).tobytes())
                h.update(np.ascontiguousarray(x_hat).tobytes())
    return h.hexdigest()


def run_fer_digest(lengths, decoders, seeds, batching, redesign):
    h = hashlib.sha256()
    runs = 0
    for n in lengths:
        spec = construct_code(n, n // 2, "last", ebn0_db=3.0)
        for decoder in decoders:
            for seed in seeds:
                for workers, batch_size in batching:
                    for redesign_per_snr in redesign:
                        stats = run_fer(spec, decoder=decoder, snrs=(1.0, 2.5), stop=StopRule(700, 60),
                                        workers=workers, seed=seed, batch_size=batch_size,
                                        redesign_per_snr=redesign_per_snr)
                        key = [n, decoder, seed, workers, batch_size, redesign_per_snr]
                        h.update(json.dumps([key, stats.rows()]).encode())
                        runs += 1
    return runs, h.hexdigest()


def front_end_digest(reports, formats, codes):
    h = hashlib.sha256()
    for report in reports:
        for fmt in formats:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                if cli_main(["analyze", *report, "--format", fmt]) != 0:
                    raise SystemExit(f"mkpolar analyze {' '.join(report)} failed")
            h.update(out.getvalue().encode())
    for code in codes:
        h.update("\n".join(build_schedule(construct_code(*code)).export_lines()).encode())
    return h.hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="a small subset, to check the script runs")
    args = parser.parse_args()

    first = (lambda axis: axis[:1]) if args.quick else (lambda axis: axis)
    codes, count = first(CODES), 3 if args.quick else 33
    digest = decode_digest(codes, DECODERS, count)
    print(f"decode {len(codes)} codes x {len(DECODERS)} decoders x {count} frames sha256 {digest}")
    digest = decode_digest(codes, DECODERS, count, np.float32)
    print(f"decode float32 {len(codes)} codes x {len(DECODERS)} decoders x {count} frames sha256 {digest}")
    runs, digest = run_fer_digest(first(SIM_LENGTHS), first(SIM_DECODERS), first(SIM_SEEDS),
                                  first(SIM_BATCHING), first(SIM_REDESIGN))
    print(f"run_fer {runs} runs sha256 {digest}")
    reports, formats, codes = first(REPORTS), first(FORMATS), first(CODES)
    digest = front_end_digest(reports, formats, codes)
    print(f"front-end {len(reports)} reports x {len(formats)} formats, {len(codes)} schedules sha256 {digest}")


if __name__ == "__main__":
    main()
