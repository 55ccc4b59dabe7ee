"""BPSK over AWGN: modulation, LLR computation, Monte-Carlo FER/BER estimation.

Frames are drawn in fixed blocks of BLOCK_FRAMES: frame f of SNR point p takes
its message and noise from the RNG keyed on (seed, p, f // BLOCK_FRAMES), which
draws the block's messages, then its noise. Results are therefore identical no
matter how frames are batched or spread across workers.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .construction import design_code, ebn0_db_to_linear
from .encoding import expand_message
from .fast_ssc import FastSSCDecoder, NodeLimits
from .kernels import stage_transform
from .sc import SCDecoder

DECODER_KINDS = ("sc", "fastssc")

# Frames per RNG key. One generator per frame cost more than decoding at small
# N; a block of 64 amortises its construction. Changing this changes the stream.
BLOCK_FRAMES = 64


@dataclass(frozen=True)
class ChannelConfig:
    """AWGN channel operating point for BPSK (one bit per symbol)."""

    ebn0_db: float
    rate: float

    def __post_init__(self):
        if not 0.0 < self.rate < 1.0:
            raise ValueError(f"rate must be in (0, 1), got {self.rate}")

    @property
    def ebn0_linear(self):
        return ebn0_db_to_linear(self.ebn0_db)

    @property
    def sigma2(self):
        return 1.0 / (2.0 * self.rate * self.ebn0_linear)


@dataclass(frozen=True)
class StopRule:
    """Stop a point once min_frame_errors are collected or max_frames simulated."""

    max_frames: int = 1_000_000
    min_frame_errors: int = 100


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
        return [
            {
                "ebn0_db": p.ebn0_db,
                "frames": p.frames,
                "frame_errors": p.frame_errors,
                "bit_errors": p.bit_errors,
                "fer": p.fer,
                "ber": p.ber(self.k_bits),
            }
            for p in self.points
        ]


def modulate(bits):
    """BPSK map: bit 0 -> +1.0, bit 1 -> -1.0."""
    return 1.0 - 2.0 * np.asarray(bits, dtype=float)


def awgn_llr(symbols, cfg, rng):
    """Add N(0, sigma^2) noise and return channel LLRs 2y / sigma^2."""
    symbols = np.asarray(symbols, dtype=float)
    sigma2 = cfg.sigma2
    y = symbols + rng.normal(0.0, np.sqrt(sigma2), size=symbols.shape)
    return 2.0 * y / sigma2


def _make_decoder(kind, spec, limits):
    if kind == "sc":
        return SCDecoder(spec)
    if kind == "fastssc":
        return FastSSCDecoder(spec, limits=limits or NodeLimits())
    raise ValueError(f"unknown decoder kind {kind!r}; expected one of {DECODER_KINDS}")


def _simulate_chunk(spec, decoder, sigma2, seed, point_index, start, count):
    n, k = spec.n_bits, spec.k_bits
    msgs = np.empty((count, k), dtype=np.uint8)
    noise = np.empty((count, n))
    end = start + count
    for block in range(start // BLOCK_FRAMES, -(-end // BLOCK_FRAMES)):
        rng = np.random.default_rng([seed, point_index, block])
        first = block * BLOCK_FRAMES
        lo, hi = max(start, first), min(end, first + BLOCK_FRAMES)
        # rows of the chunk, and of the block, that this block fills
        rows, taken = slice(lo - start, hi - start), slice(lo - first, hi - first)
        msgs[rows] = rng.integers(0, 2, size=(BLOCK_FRAMES, k), dtype=np.uint8)[taken]
        noise[rows] = rng.standard_normal((BLOCK_FRAMES, n))[taken]
    u = expand_message(msgs, spec)
    x = stage_transform(u, spec.kernels)
    llr = 2.0 * (modulate(x) + np.sqrt(sigma2) * noise) / sigma2
    u_hat, _ = decoder.decode_batch(llr)
    bad = u_hat != u
    frame_errors = int(bad.any(axis=1).sum())
    bit_errors = int(bad[:, spec.info_indices].sum())
    return frame_errors, bit_errors


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

    By default the frozen set is redesigned by GA at each operating point;
    pass redesign_per_snr=False to keep the frozen set of `spec` throughout.
    Random messages are used rather than the all-zero codeword, drawn with
    their noise from an RNG keyed on (seed, SNR point index, 64-frame block
    index). Results are reproducible for a given (seed, spec, snrs, stop),
    independent of workers and batch_size.
    """
    if not 0 < spec.k_bits < spec.n_bits:
        raise ValueError("simulation needs 0 < K < N")
    stats = SimStats(n_bits=spec.n_bits, k_bits=spec.k_bits, decoder=decoder, seed=seed)
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for point_index, ebn0_db in enumerate(snrs):
            point_spec = (
                design_code(spec.kernels, spec.k_bits, ebn0_db=ebn0_db)
                if redesign_per_snr
                else spec
            )
            sigma2 = ChannelConfig(ebn0_db=ebn0_db, rate=spec.k_bits / spec.n_bits).sigma2
            decoders = [_make_decoder(decoder, point_spec, limits) for _ in range(max(workers, 1))]
            point = SnrPoint(ebn0_db=ebn0_db)
            while point.frames < stop.max_frames and point.frame_errors < stop.min_frame_errors:
                chunks = []
                start = point.frames
                for w in range(max(workers, 1)):
                    count = min(batch_size, stop.max_frames - start)
                    if count <= 0:
                        break
                    chunks.append((start, count, decoders[w]))
                    start += count
                if pool is not None and len(chunks) > 1:
                    results = list(
                        pool.map(
                            lambda c: _simulate_chunk(
                                point_spec, c[2], sigma2, seed, point_index, c[0], c[1]
                            ),
                            chunks,
                        )
                    )
                else:
                    results = [
                        _simulate_chunk(point_spec, d, sigma2, seed, point_index, s, c)
                        for s, c, d in chunks
                    ]
                # Apply chunk tallies in frame order and stop as soon as the
                # rule is met, so totals do not depend on the worker count.
                for (_, count, _), (fe, be) in zip(chunks, results):
                    point.frames += count
                    point.frame_errors += fe
                    point.bit_errors += be
                    if point.frames >= stop.max_frames or point.frame_errors >= stop.min_frame_errors:
                        break
            stats.points.append(point)
    finally:
        if pool is not None:
            pool.shutdown()
    return stats
