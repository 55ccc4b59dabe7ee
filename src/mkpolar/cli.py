"""Command-line front end: construct, encode, decode, simulate, analyze, export.

Code specs are persisted as small key/value text files so other tools can
consume them:

    N 96
    K 48
    kernels 2,2,2,2,2,3
    frozen 0,1,2,3,...      # sorted frozen indices

Reports are CSV (default) or JSON arrays with the same fields. The default
output directory for `construct` comes from $MKPOLAR_OUTDIR (falling back to
the working directory); other commands write to --out or stdout.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import analysis
from .channel import DECODER_KINDS, StopRule, _make_decoder, run_fer
from .construction import DEFAULT_DESIGN_EBN0_DB, CodeSpec, OrderingStrategy, construct_code, design_code
from .encoding import encode_message
from .fast_ssc import NodeLimits, build_schedule

FER_FIELDS = ("ebn0_db", "frames", "frame_errors", "bit_errors", "fer", "ber")
ANALYSIS_FIELDS = (
    "N", "R", "ordering", *(f.name for f in fields(analysis.NodeCounts)), "reduction_pct"
)

MAX_SNR_POINTS = 10_000

ORDERINGS = {
    "first": OrderingStrategy.FIRST,
    "last": OrderingStrategy.LAST,
    "hr": OrderingStrategy.HIGHEST_RELIABILITY,
}


class CommandError(Exception):
    """Fatal usage or environment problem; message goes to stderr."""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose flag errors, like every other usage error, are one line and exit 2.
    Subparsers are made of the same class, so `mkpolar <cmd>: <message>` names the command.
    Each parser rejects its own leftover arguments, which argparse would pass up to `mkpolar`."""

    def error(self, message):
        self.exit(2, f"{self.prog}: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def save_code_spec(spec, path):
    lines = [
        f"N {spec.n_bits}",
        f"K {spec.k_bits}",
        "kernels " + ",".join(str(k) for k in spec.kernels),
        "frozen " + ",".join(str(i) for i in spec.frozen_indices),
        "",
    ]
    Path(path).write_text("\n".join(lines))


def load_code_spec(path):
    """Parse a spec file; CodeSpec.from_frozen_indices checks the code it describes."""
    fields = {}
    try:
        for line in Path(path).read_text().splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, value = line.partition(" ")
            if key in fields:
                raise ValueError(f"{key} is given twice")
            fields[key] = value.strip()
        frozen = [int(x) for x in fields["frozen"].split(",")] if fields.get("frozen") else []
        kernels = [int(k) for k in fields["kernels"].split(",")]
        return CodeSpec.from_frozen_indices(int(fields["N"]), int(fields["K"]), kernels, frozen)
    except KeyError as exc:
        raise CommandError(f"code spec file {path} has no {exc.args[0]} line") from exc
    except ValueError as exc:
        raise CommandError(f"code spec file {path}: {exc}") from exc


def emit_report(rows, fields, fmt="csv", path=None):
    """Write rows as CSV or JSON with a stable column order."""
    if fmt == "csv":
        lines = [",".join(fields)]
        for row in rows:
            lines.append(",".join(_csv_cell(row[f]) for f in fields))
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = json.dumps([{f: row[f] for f in fields} for row in rows], indent=2) + "\n"
    else:
        raise CommandError(f"unknown output format {fmt!r}")
    _write(text, path)


def _write(text, path):
    """text to the file path, or to stdout when path is None or empty."""
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _csv_cell(value):
    if isinstance(value, float):
        return format(value, ".10g")
    return str(value)


def _default_outdir():
    return Path(os.environ.get("MKPOLAR_OUTDIR", "."))


def _build_code(args):
    """The code --spec, --kernels/--k or --n/--k describe; CodeSpec checks its K."""
    spec_path = getattr(args, "spec", None)  # construct and simulate have no --spec
    if spec_path:
        return load_code_spec(spec_path)
    if args.kernels is not None:
        if args.k is None:
            raise CommandError("--kernels also needs --k")
        return design_code([int(k) for k in args.kernels.split(",")], args.k, args.ebn0)
    if args.n is None or args.k is None:
        raise CommandError("either --spec, --kernels or both --n and --k are required")
    return construct_code(args.n, args.k, ORDERINGS[args.order], args.ebn0)


def _node_limits(args):
    return NodeLimits(
        rep3a_max_span=args.rep3a_max,
        spc=not args.no_spc,
        general_rep=args.general_rep,
    )


def _parse_bits(text, expect_len):
    text = text.strip()
    if len(text) != expect_len or set(text) - {"0", "1"}:
        raise CommandError(f"expected {expect_len} bits of 0/1, got {text!r}")
    return np.frombuffer(text.encode(), dtype=np.uint8) - ord("0")


def _bits_to_str(bits):
    return "".join(str(int(b)) for b in bits)


def _read_llrs(path):
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    try:
        return np.array([float(tok) for tok in text.replace(",", " ").split()])
    except ValueError as exc:
        raise CommandError(f"could not parse LLR values: {exc}") from exc


def parse_snr_range(text):
    """Parse '1:0.5:4' (start:step:stop, inclusive) or a comma list '2,3,4'.

    At most MAX_SNR_POINTS points; a range is counted before any is built.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise CommandError(f"bad SNR range {text!r}; expected start:step:stop")
        start, step, stop = (float(p) for p in parts)
        if step <= 0:
            raise CommandError("SNR step must be positive")
        span = (stop - start) / step + 1e-9
        if not 0 <= span < math.inf:
            raise CommandError(f"SNR range {text!r} is empty (stop below start) or unbounded")
        count = math.floor(span) + 1
        points = (round(start + i * step, 6) for i in range(count))
    else:
        count = text.count(",") + 1
        points = (float(p) for p in text.split(","))
    if count > MAX_SNR_POINTS:
        raise CommandError(
            f"SNR range {text!r} has {count} points; at most {MAX_SNR_POINTS} are allowed"
        )
    return tuple(points)


def cmd_construct(args):
    # The report lists the means the design froze by; a code without them
    # (K of 0 or N) is rejected before any file is written.
    spec = _build_code(args)
    if spec.ga_means is None:
        raise CommandError(f"rate must be in (0, 1) for a GA report, got K={spec.k_bits}, N={spec.n_bits}")
    outdir = Path(args.out) if args.out else _default_outdir()
    outdir.mkdir(parents=True, exist_ok=True)
    label = analysis.ordering_label(spec.kernels)
    stem = f"pc_N{spec.n_bits}_K{spec.k_bits}_{label}"
    save_code_spec(spec, outdir / f"{stem}.spec")
    rows = [
        {"index": i, "ga_mean": float(spec.ga_means[i]), "frozen": int(spec.frozen[i])}
        for i in range(spec.n_bits)
    ]
    emit_report(rows, ("index", "ga_mean", "frozen"), args.fmt, outdir / f"{stem}_reliability.{args.fmt}")
    print(outdir / f"{stem}.spec")
    return 0


def cmd_encode(args):
    spec = _build_code(args)
    if args.message is None:
        raise CommandError("--message is required (use '-' to read from stdin)")
    text = sys.stdin.readline() if args.message == "-" else args.message
    msg = _parse_bits(text, spec.k_bits)
    print(_bits_to_str(encode_message(msg, spec)))
    return 0


def cmd_decode(args):
    spec = _build_code(args)
    if args.llr_path is None:
        raise CommandError("--llrs FILE is required (use '-' for stdin)")
    llr = _read_llrs(args.llr_path)
    u_hat, x_hat = _make_decoder(args.decoder, spec, _node_limits(args)).decode(llr)
    print("u_hat " + _bits_to_str(u_hat))
    print("x_hat " + _bits_to_str(x_hat))
    print("info " + _bits_to_str(u_hat[spec.info_indices]))
    return 0


def cmd_simulate(args):
    spec = _build_code(args)
    snrs = parse_snr_range(args.snr) if args.snr else ()
    if not snrs:
        raise CommandError("--snr is required, e.g. --snr 1:0.5:4")
    stats = run_fer(
        spec,
        decoder=args.decoder,
        snrs=snrs,
        stop=StopRule(max_frames=args.max_frames, min_frame_errors=args.min_errors),
        workers=args.workers,
        seed=args.seed,
        limits=_node_limits(args),
        redesign_per_snr=not args.fixed_construction,
    )
    emit_report(stats.rows(), FER_FIELDS, args.fmt, args.out)
    return 0


def cmd_analyze(args):
    limits = _node_limits(args)
    if args.table2:
        rows = analysis.latency_table(analysis.table2_specs(args.ebn0), limits)
    elif args.sweep_k is not None:
        rows = analysis.sweep_fixed_k(args.sweep_k, ebn0_db=args.ebn0, limits=limits)
    elif args.sweep_n is not None:
        rows = analysis.sweep_fixed_n(args.sweep_n, ebn0_db=args.ebn0, limits=limits)
    else:
        raise CommandError("analyze needs one of --table2, --sweep-k K, --sweep-n N")
    emit_report(rows, ANALYSIS_FIELDS, args.fmt, args.out)
    return 0


def cmd_schedule_export(args):
    spec = _build_code(args)
    lines = build_schedule(spec, _node_limits(args)).export_lines()
    _write("\n".join(lines) + "\n", args.out)
    return 0


def run_command(args):
    """Dispatch parsed arguments to their command; returns the process exit status."""
    try:
        return args.run(args)
    except (CommandError, ValueError, OSError) as exc:
        print(f"mkpolar {args.command}: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, OSError) else 2


def _add_code_args(p, with_spec=False):
    p.add_argument("--n", type=int, help="codeword length (must be 2^a * 3^b)")
    p.add_argument("--k", type=int, help="message length")
    p.add_argument("--kernels", help="explicit kernel vector, e.g. 2,2,3 (overrides --n/--order)")
    p.add_argument("--order", choices=sorted(ORDERINGS), default="last")
    p.add_argument("--ebn0", type=float, default=DEFAULT_DESIGN_EBN0_DB, help="construction Eb/N0 in dB")
    if with_spec:
        p.add_argument("--spec", help="load the code from a spec file instead of --n/--k")


def _add_limit_args(p):
    p.add_argument("--rep3a-max", type=int, default=NodeLimits.rep3a_max_span, metavar="SPAN",
                   help="largest all-ternary REP node (default %(default)s)")
    p.add_argument("--no-spc", action="store_true", help="disable SPC nodes")
    p.add_argument("--general-rep", action="store_true", help="recognize REP nodes for any kernel mix")


def _add_report_args(p, out_help="output file (default stdout)"):
    p.add_argument("--out", help=out_help)
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")


def build_parser():
    parser = _Parser(prog="mkpolar", description="Multi-kernel polar code toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="design a code and write spec + reliability files")
    p.set_defaults(run=cmd_construct)
    _add_code_args(p)
    _add_report_args(p, "output directory (default $MKPOLAR_OUTDIR or .)")

    p = sub.add_parser("encode", help="encode a message with a code")
    p.set_defaults(run=cmd_encode)
    _add_code_args(p, with_spec=True)
    p.add_argument("--message", help="K bits as a 0/1 string, or '-' for stdin")

    p = sub.add_parser("decode", help="decode channel LLRs")
    p.set_defaults(run=cmd_decode)
    _add_code_args(p, with_spec=True)
    p.add_argument("--llrs", dest="llr_path", help="file of whitespace/comma separated LLRs, '-' for stdin")
    p.add_argument("--decoder", choices=DECODER_KINDS, default="sc")
    _add_limit_args(p)

    p = sub.add_parser("simulate", help="Monte-Carlo FER/BER sweep")
    p.set_defaults(run=cmd_simulate)
    _add_code_args(p)
    p.add_argument("--decoder", choices=DECODER_KINDS, default="sc")
    p.add_argument("--snr", help="Eb/N0 sweep: start:step:stop or comma list")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--min-errors", type=int, default=StopRule.min_frame_errors)
    p.add_argument("--max-frames", type=int, default=StopRule.max_frames)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument(
        "--fixed-construction",
        action="store_true",
        help="keep the design-SNR frozen set instead of redesigning per point",
    )
    _add_limit_args(p)
    _add_report_args(p)

    p = sub.add_parser("analyze", help="node-count / latency-reduction reports")
    p.set_defaults(run=cmd_analyze)
    p.add_argument("--table2", action="store_true", help="the 24 reference (N, R, ordering) rows")
    p.add_argument("--sweep-k", type=int, help="fixed-K sweep over rates 1/8..7/8")
    p.add_argument("--sweep-n", type=int, help="fixed-N sweep over rates 1/8..7/8")
    p.add_argument("--ebn0", type=float, default=DEFAULT_DESIGN_EBN0_DB)
    _add_limit_args(p)
    _add_report_args(p)

    p = sub.add_parser("schedule-export", help="dump the pruned schedule as depth,offset,span,class")
    p.set_defaults(run=cmd_schedule_export)
    _add_code_args(p, with_spec=True)
    _add_limit_args(p)
    p.add_argument("--out", help="output file (default stdout)")

    return parser


def main(argv=None):
    return run_command(build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
