#!/usr/bin/env python3
"""FER/BER sweep of one code under SC and Fast-SSC decoding.

The frozen set is redesigned by GA at every operating point. Writes one CSV
per decoder and prints a side-by-side summary.
"""

import argparse

from mkpolar.channel import StopRule, run_fer
from mkpolar.cli import FER_FIELDS, ORDERINGS, emit_report, parse_snr_range
from mkpolar.construction import construct_code


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=96)
    parser.add_argument("--k", type=int, default=48)
    parser.add_argument("--order", choices=sorted(ORDERINGS), default="last")
    parser.add_argument("--snr", default="1:0.5:4", help="Eb/N0 sweep start:step:stop in dB")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-errors", type=int, default=100)
    parser.add_argument("--max-frames", type=int, default=200_000)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--prefix", default="fer", help="output file prefix")
    args = parser.parse_args()

    spec = construct_code(args.n, args.k, ORDERINGS[args.order])
    snrs = parse_snr_range(args.snr)
    stop = StopRule(max_frames=args.max_frames, min_frame_errors=args.min_errors)

    results = {}
    for decoder in ("sc", "fastssc"):
        stats = run_fer(
            spec, decoder=decoder, snrs=snrs, stop=stop, seed=args.seed, workers=args.workers
        )
        path = f"{args.prefix}_N{args.n}_K{args.k}_{args.order}_{decoder}.csv"
        emit_report(stats.rows(), FER_FIELDS, "csv", path)
        results[decoder] = stats
        print(f"wrote {path}")

    print(f"\n{'Eb/N0':>6} {'SC FER':>12} {'Fast-SSC FER':>14}")
    for p_sc, p_f in zip(results["sc"].points, results["fastssc"].points):
        print(f"{p_sc.ebn0_db:>6.2f} {p_sc.fer:>12.3e} {p_f.fer:>14.3e}")


if __name__ == "__main__":
    main()
