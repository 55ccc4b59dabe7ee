#!/usr/bin/env python3
"""Compare kernel ordering strategies (ternary first / last / optimized) by FER.

Sweeps one code length over a few rates under SC decoding, redesigning the
frozen set per point, and writes one CSV per (rate, ordering) series.
"""

import argparse

from mkpolar.channel import StopRule, run_fer
from mkpolar.cli import FER_FIELDS, ORDERINGS, emit_report, parse_snr_range
from mkpolar.construction import construct_code


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=432)
    parser.add_argument("--rates", default="0.25,0.5,0.75")
    parser.add_argument("--orders", default="last,first", help="comma list of first, last, hr")
    parser.add_argument("--snr", default="1:0.5:3.5")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-errors", type=int, default=100)
    parser.add_argument("--max-frames", type=int, default=100_000)
    parser.add_argument("--prefix", default="order")
    args = parser.parse_args()

    snrs = parse_snr_range(args.snr)
    stop = StopRule(max_frames=args.max_frames, min_frame_errors=args.min_errors)
    names = args.orders.split(",")
    if not set(names) <= set(ORDERINGS):
        parser.error(f"--orders takes a comma list of {', '.join(sorted(ORDERINGS))}")
    orders = [ORDERINGS[o] for o in names]

    for rate in (float(r) for r in args.rates.split(",")):
        k = round(args.n * rate)
        print(f"\nN={args.n} K={k} (R={rate}):")
        print(f"{'Eb/N0':>6} " + " ".join(f"{o:>12}" for o in orders))
        series = {}
        for order in orders:
            spec = construct_code(args.n, k, order)
            stats = run_fer(spec, decoder="sc", snrs=snrs, stop=stop, seed=args.seed)
            series[order] = stats.points
            path = f"{args.prefix}_N{args.n}_K{k}_{order}.csv"
            emit_report(stats.rows(), FER_FIELDS, "csv", path)
        for i, ebn0 in enumerate(snrs):
            cells = " ".join(f"{series[o][i].fer:>12.3e}" for o in orders)
            print(f"{ebn0:>6.2f} {cells}")


if __name__ == "__main__":
    main()
