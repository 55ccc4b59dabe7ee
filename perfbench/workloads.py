"""The benchmark's workloads: set-up, inputs, timed operations and output checks.

Every workload is a closed loop with one caller. A round is a short list of
operations, each a call into mkpolar's public API; the two phases, "fastssc"
and "sc", alternate which goes first from round to round so slow drift on a
shared machine falls on both. Program functions are looked up on the
``mkpolar`` package when an operation runs, so the tracer's wrappers see them.
"""

import hashlib
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

import mkpolar

PHASES = ("fastssc", "sc")
REFERENCE = json.loads((Path(__file__).with_name("reference.json")).read_text())

# Kernels as the paper defines them, for input generation that does not
# depend on the encoder under test.
_KERNELS = {2: np.array([[1, 0], [1, 1]]), 3: np.array([[1, 1, 1], [1, 0, 1], [0, 1, 1]])}


def generator(kernels):
    g = np.ones((1, 1), dtype=np.int64)
    for k in kernels:
        g = np.kron(g, _KERNELS[k])
    return g


def code_digest(spec):
    """sha256 over the kernel vector and the frozen indices of a code."""
    text = ",".join(map(str, spec.kernels)) + "|" + ",".join(map(str, np.flatnonzero(spec.frozen)))
    return hashlib.sha256(text.encode()).hexdigest()


def phase_order(round_index):
    return PHASES if round_index % 2 == 0 else PHASES[::-1]


def round_seed(seed, round_index):
    return int(np.random.SeedSequence([seed, round_index]).generate_state(1)[0])


@dataclass
class Op:
    phase: str
    items: int
    call: Callable
    check: Callable
    kind: object = None  # operations of one kind do the same work; see Run.end_to_end


@dataclass
class State:
    spec: object
    decoders: dict


def setup_code(n, k, ordering, **design):
    """What a user does before the first operation: design, build decoders, warm up."""
    spec = mkpolar.construct_code(n, k, ordering, **design)
    decoders = {"fastssc": mkpolar.FastSSCDecoder(spec), "sc": mkpolar.SCDecoder(spec)}
    for decoder in decoders.values():
        decoder.decode(np.ones(n))
    return State(spec, decoders)


class Workload:
    name = ""
    item = "frame"  # what Op.items counts
    setup_args = ()
    design = {}  # keyword arguments of construct_code beyond its defaults

    def setup(self):
        return setup_code(*self.setup_args, **self.design)

    def prepare(self, state, seed):
        """Generate this run's inputs; not timed."""
        self.seed = seed

    def round(self, state, round_index):
        raise NotImplementedError

    def codes(self, state):
        """The workload's codes, reported by digest and node counts."""
        return [state.spec]

    def verdict(self):
        """Checks over the whole run: phase -> passed, plus details for the report."""
        return {phase: True for phase in PHASES}, {}


class SimWorkload(Workload):
    """Monte-Carlo FER simulation through run_fer at one operating point."""

    EBN0_DB = 2.0
    FRAMES = 1024  # one default batch per run_fer call
    # A correct decoder's FER lies within REL_TOL of the reference, widened by
    # Z binomial standard deviations of this run's frame count.
    REL_TOL = 0.10
    Z = 5.0

    def __init__(self, name, n, k, ordering):
        self.name = name
        self.setup_args = (n, k, ordering)
        self.design = {"ebn0_db": self.EBN0_DB}

    def prepare(self, state, seed):
        super().prepare(state, seed)
        self.frames = {p: 0 for p in PHASES}
        self.errors = {p: 0 for p in PHASES}
        self.stop = mkpolar.StopRule(max_frames=self.FRAMES, min_frame_errors=self.FRAMES + 1)

    def round(self, state, round_index):
        seed = round_seed(self.seed, round_index)
        return [
            Op(phase, self.FRAMES, partial(self.simulate, state.spec, phase, seed),
               partial(self._check, phase))
            for phase in phase_order(round_index)
        ]

    def simulate(self, spec, phase, seed):
        return mkpolar.run_fer(
            spec, decoder=phase, snrs=(self.EBN0_DB,), stop=self.stop, workers=1, seed=seed
        )

    def _check(self, phase, stats):
        if len(stats.points) != 1 or stats.points[0].frames != self.FRAMES:
            return False
        self.frames[phase] += stats.points[0].frames
        self.errors[phase] += stats.points[0].frame_errors
        return True

    def fer_interval(self, phase, frames):
        ref = REFERENCE["fer"][self.name][phase]["fer"]
        sd = math.sqrt(ref * (1 - ref) / frames)
        return ref * (1 - self.REL_TOL) - self.Z * sd, ref * (1 + self.REL_TOL) + self.Z * sd

    def verdict(self):
        passed, detail = {}, {}
        for phase in PHASES:
            frames, errors = self.frames[phase], self.errors[phase]
            lo, hi = self.fer_interval(phase, max(frames, 1))
            fer = errors / frames if frames else float("nan")
            passed[phase] = frames > 0 and lo <= fer <= hi
            detail[phase] = {"frames": frames, "frame_errors": errors, "fer": fer,
                             "interval": [lo, hi]}
        return passed, {"fer": detail}


class DecodeWorkload(Workload):
    """Single-frame decode() calls on benchmark-generated channel LLRs."""

    name = "decode-latency"
    setup_args = (432, 216, "last")
    # High enough that a correct decoder recovers every generated frame.
    EBN0_DB = 6.0
    POOL = 512
    BLOCK = 8  # decodes per phase per round

    def prepare(self, state, seed):
        super().prepare(state, seed)
        spec = state.spec
        rng = np.random.default_rng(seed)
        u = np.zeros((self.POOL, spec.n_bits), dtype=np.uint8)
        u[:, spec.info_indices] = rng.integers(0, 2, (self.POOL, spec.k_bits), dtype=np.uint8)
        x = (u.astype(np.int64) @ generator(spec.kernels) % 2).astype(np.uint8)
        sigma2 = 1.0 / (2.0 * spec.rate * 10.0 ** (self.EBN0_DB / 10.0))
        noise = rng.standard_normal(x.shape) * math.sqrt(sigma2)
        self.u, self.x = u, x
        self.llr = 2.0 * (1.0 - 2.0 * x + noise) / sigma2

    def round(self, state, round_index):
        ops = []
        for phase in phase_order(round_index):
            decode = state.decoders[phase].decode
            for j in range(self.BLOCK):
                i = (round_index * self.BLOCK + j) % self.POOL
                ops.append(Op(phase, 1, partial(decode, self.llr[i]), partial(self._check, i)))
        return ops

    def _check(self, i, result):
        u_hat, x_hat = result
        return np.array_equal(u_hat, self.u[i]) and np.array_equal(x_hat, self.x[i])


class DesignWorkload(Workload):
    """Design and tabulate a fixed set of codes; no decoding."""

    name = "design"
    item = "code"
    setup_args = (2304, 1152, "last")
    CODES = tuple(
        (n, round(n * rate), ordering)
        for n in (96, 432, 768, 2304)
        for rate in (0.25, 0.5, 0.75)
        for ordering in ("first", "last", "highest_reliability")
    )

    def round(self, state, round_index):
        order = np.random.default_rng(round_seed(self.seed, round_index)).permutation(len(self.CODES))
        ops = []
        for position, c in enumerate(order):
            code = self.CODES[c]
            for phase in phase_order(round_index + position):
                call = self._fastssc if phase == "fastssc" else self._sc
                ops.append(Op(phase, 1, partial(call, *code), partial(self._check, phase, code), code))
        return ops

    @staticmethod
    def _fastssc(n, k, ordering):
        spec = mkpolar.construct_code(n, k, ordering)
        return spec, mkpolar.schedule_stats(mkpolar.build_schedule(spec))

    @staticmethod
    def _sc(n, k, ordering):
        spec = mkpolar.construct_code(n, k, ordering)
        return spec, mkpolar.sc_node_count(spec.kernels)

    def _check(self, phase, code, result):
        """The designed code and its node counts equal the reference's."""
        spec, counts = result
        expected = REFERENCE["design"]["%d,%d,%s" % code]
        if code_digest(spec) != expected["sha256"]:
            return False
        if phase == "sc":
            return counts == expected["sc_nodes"]
        return node_counts(counts) == {key: expected[key] for key in NODE_FIELDS}

    def codes(self, state):
        return [mkpolar.construct_code(*code) for code in self.CODES]


def node_counts(counts):
    """Node counts of a schedule_stats result, keyed as in latency_table rows."""
    return {key: getattr(counts, key) for key in NODE_FIELDS}


NODE_FIELDS = ("sc_nodes", "fast_nodes", "r0", "r1", "spc", "rep2", "rep3a", "rep3b", "rep3c")

WORKLOADS = {
    w.name: w
    for w in (
        SimWorkload("sim-short", 96, 48, "last"),
        SimWorkload("sim-long", 2304, 1152, "first"),
        DecodeWorkload(),
        DesignWorkload(),
    )
}
