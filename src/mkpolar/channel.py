"""BPSK over AWGN: modulation, channel LLRs, Monte-Carlo FER/BER estimation.

noise_variance gives sigma^2 = 1 / (2 R Eb/N0); awgn_llr gives the LLRs 2y / sigma^2.
Frames are drawn in fixed blocks of BLOCK_FRAMES: frame f of SNR point p takes
its message and noise from the RNG keyed on (seed, p, f // BLOCK_FRAMES), which
draws the block's messages, then its noise, and run_fer applies chunk tallies
in frame order. Results are therefore identical no matter how frames are
batched or spread across workers. A chunk's messages, codewords and LLRs are
Fortran-ordered (frames, N), frames-last as the decode walk holds them. Once
every message is encoded, each block's noise is drawn and turned into LLRs
while in cache, so one block's float64 noise and LLRs exist at a time.
The draws and the channel LLRs are float64; the LLRs are saturated to
float32's range and rounded once, and the decoders decode them in float32.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from .construction import CodeSpec, design_code, ebn0_db_to_linear
# NOT encoding.expand_message: the unchecked encoding._expand, bound to the name that
# perfbench/spans.py traces as encoding.expand (the rename waits on ROADMAP item 1b; see the
# FOUND note on channel.py in CHANGES.md). Callers import the checked one from encoding.
from .encoding import _expand as expand_message
from .fast_ssc import FastSSCDecoder
from .kernels import MAX_CODE_LENGTH, _as_bits, _as_instance, _as_integer, stage_transform
from .sc import SCDecoder

DECODER_KINDS = ("sc", "fastssc")

# Frames per RNG key. One generator per frame cost more than decoding at small
# N; a block of 64 amortises its construction. Changing this changes the stream.
BLOCK_FRAMES = 64

# Each worker is a thread holding its chunk's arrays (about 30 MiB for 1024 frames at N=2304).
MAX_WORKERS = 64

# LLRs per chunk: the default batch of 1024 frames at MAX_CODE_LENGTH. A chunk
# holds batch_size x N float32 LLRs (256 MiB at this cap), four uint8 arrays of
# that shape and a decode slab of up to 1.5 times the LLRs.
MAX_BATCH_LLRS = 1024 * MAX_CODE_LENGTH

# Channel LLRs are saturated to this before they are rounded to float32.
_FLOAT32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class StopRule:
    """Stop a point once min_frame_errors are collected or max_frames simulated."""

    max_frames: int = 1_000_000
    min_frame_errors: int = 100

    def __post_init__(self):
        _as_integer("max_frames", self.max_frames, 1)
        _as_integer("min_frame_errors", self.min_frame_errors, 1)

    def reached(self, point):
        return point.frames >= self.max_frames or point.frame_errors >= self.min_frame_errors


@dataclass
class SnrPoint:
    ebn0_db: float
    frames: int = 0
    frame_errors: int = 0
    bit_errors: int = 0

    @property
    def fer(self):
        return self.frame_errors / self.frames if self.frames else 0.0

    def ber(self, k_bits):
        return self.bit_errors / (self.frames * k_bits) if self.frames else 0.0


@dataclass
class SimStats:
    """Per-SNR Monte-Carlo tallies for one code/decoder pair."""

    n_bits: int
    k_bits: int
    decoder: str
    seed: int
    points: list = field(default_factory=list)

    def rows(self):
        return [{**asdict(p), "fer": p.fer, "ber": p.ber(self.k_bits)} for p in self.points]


def modulate(bits):
    """BPSK map: bit 0 -> +1.0, bit 1 -> -1.0; an entry other than 0 or 1 raises ValueError."""
    return _bpsk(_as_bits("bits", bits))


def _bpsk(bits):
    """modulate without its check, for the simulator's own codeword bits."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=float)


def noise_variance(ebn0_db, rate):
    """AWGN noise variance sigma^2 = 1 / (2 R Eb/N0) of BPSK at ebn0_db."""
    ebn0 = ebn0_db_to_linear(ebn0_db, rate)  # before rate enters any product
    return 1.0 / (2.0 * rate * ebn0)


def awgn_llr(symbols, sigma2, noise):
    """Channel LLRs 2y / sigma^2 of y = symbols + sigma * noise, noise ~ N(0, 1).

    run_fer computes them in float64 and decodes them rounded to float32.
    """
    return 2.0 * (symbols + np.sqrt(sigma2) * noise) / sigma2


def _make_decoder(kind, spec, limits):
    """The decoder of one code, kind one of DECODER_KINDS; limits apply to Fast-SSC only."""
    return SCDecoder(spec) if kind == "sc" else FastSSCDecoder(spec, limits=limits)


def _simulate_chunk(decoder, start, count, spec, sigma2, seed, point_index):
    n, k = spec.n_bits, spec.k_bits
    msgs = np.empty((count, k), dtype=np.uint8, order="F")
    blocks = []  # each block's generator draws its noise once the messages are encoded
    end = start + count
    for block in range(start // BLOCK_FRAMES, -(-end // BLOCK_FRAMES)):
        rng = np.random.default_rng([seed, point_index, block])
        first = block * BLOCK_FRAMES
        lo, hi = max(start, first), min(end, first + BLOCK_FRAMES)
        # rows of the chunk, and of the block, that this block fills
        rows, taken = slice(lo - start, hi - start), slice(lo - first, hi - first)
        msgs[rows] = rng.integers(0, 2, size=(BLOCK_FRAMES, k), dtype=np.uint8)[taken]
        blocks.append((rng, rows, taken))
    u = expand_message(msgs, spec)  # unchecked: msgs are this chunk's own 0/1 draws
    x = stage_transform(u, spec.kernels)
    # Fortran order: frames on the last axis of memory, as the decode walk holds them.
    llrs = np.empty((count, n), dtype=np.float32, order="F")
    for rng, rows, taken in blocks:
        # A block's LLRs are computed frames-last while its noise is in cache;
        # they are saturated, then rounded once, so a huge LLR cannot overflow.
        noise = np.ascontiguousarray(rng.standard_normal((BLOCK_FRAMES, n))[taken].T)
        np.clip(awgn_llr(_bpsk(x.T[:, rows]), sigma2, noise), -_FLOAT32_MAX, _FLOAT32_MAX,
                out=llrs.T[:, rows])
    u_hat, _ = decoder.decode_batch(llrs)
    bad = u_hat.T != u.T
    return int(bad.any(axis=0).sum()), int(bad[spec.info_indices].sum())


def run_fer(
    spec,
    decoder="sc",
    snrs=(1.0, 2.0, 3.0),
    stop=StopRule(),
    workers=1,
    seed=0,
    limits=None,
    redesign_per_snr=True,
    batch_size=1024,
):
    """Monte-Carlo FER/BER sweep of one code.

    By default the frozen set is redesigned by GA at each operating point,
    except at a point whose Eb/N0 equals spec.design_ebn0_db, where design_code
    would rebuild `spec` itself; pass redesign_per_snr=False to keep the frozen
    set of `spec` throughout.
    Random messages are used rather than the all-zero codeword, drawn with
    their noise from an RNG keyed on (seed, SNR point index, 64-frame block
    index). The LLRs are computed in float64 and decoded in float32.
    Results are reproducible for a given (seed, spec, snrs, stop),
    independent of workers and batch_size. Raises ValueError for a degenerate
    code, a decoder not in DECODER_KINDS, a stop not a StopRule, snrs not a
    sequence, an Eb/N0 not real or out of range, a seed not an integer >= 0,
    workers not in 1..MAX_WORKERS or batch_size not in 1..MAX_BATCH_LLRS // N.
    """
    if not 0 < _as_instance("spec", spec, CodeSpec).k_bits < spec.n_bits:
        raise ValueError("simulation needs 0 < K < N")
    if decoder not in DECODER_KINDS:
        raise ValueError(f"unknown decoder kind {decoder!r}; expected one of {DECODER_KINDS}")
    if not isinstance(stop, StopRule):
        raise ValueError(f"stop must be a StopRule, got {stop!r}")
    seed = _as_integer("seed", seed, 0)
    workers = _as_integer("workers", workers, 1, MAX_WORKERS)
    batch_size = _as_integer("batch_size", batch_size, 1, MAX_BATCH_LLRS // spec.n_bits)
    if not np.iterable(snrs):
        raise ValueError(f"snrs must be a sequence of Eb/N0 values in dB, got {snrs!r}")
    channels = [(ebn0_db, noise_variance(ebn0_db, spec.rate)) for ebn0_db in snrs]
    stats = SimStats(n_bits=spec.n_bits, k_bits=spec.k_bits, decoder=decoder, seed=seed)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        run = map if workers == 1 else pool.map
        for point_index, (ebn0_db, sigma2) in enumerate(channels):
            point_spec = (
                design_code(spec.kernels, spec.k_bits, ebn0_db=ebn0_db)
                if redesign_per_snr and ebn0_db != spec.design_ebn0_db
                else spec
            )
            simulate = partial(
                _simulate_chunk,
                _make_decoder(decoder, point_spec, limits),
                spec=point_spec,
                sigma2=sigma2,
                seed=seed,
                point_index=point_index,
            )
            point = SnrPoint(ebn0_db=ebn0_db)
            while not stop.reached(point):
                end = min(point.frames + workers * batch_size, stop.max_frames)
                starts = range(point.frames, end, batch_size)
                counts = [min(batch_size, end - start) for start in starts]
                results = list(run(simulate, starts, counts))
                # Apply chunk tallies in frame order and stop as soon as the
                # rule is met, so totals do not depend on the worker count.
                for count, (frame_errors, bit_errors) in zip(counts, results):
                    point.frames += count
                    point.frame_errors += frame_errors
                    point.bit_errors += bit_errors
                    if stop.reached(point):
                        break
            stats.points.append(point)
    return stats
