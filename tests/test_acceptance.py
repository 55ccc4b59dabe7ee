"""End-to-end acceptance suite.

Each test checks one release criterion at its stated tolerance and prints a
PASS/FAIL line (visible with `pytest -s` or in failure reports). The heavier
Monte-Carlo checks take a few minutes combined.
"""

import itertools

import numpy as np
import pytest

from mkpolar.analysis import sc_node_count, schedule_stats
from mkpolar.construction import construct_code, design_code
from mkpolar.encoding import expand_message
from mkpolar.fast_ssc import (
    FastSSCDecoder,
    NodeClass,
    NodeLimits,
    build_schedule,
    decode_spc,
    rep_pattern,
)
from mkpolar.channel import StopRule, run_fer
from mkpolar.kernels import factor_length, stage_transform
from mkpolar.sc import SCDecoder

from conftest import generator_matrix, gf2_matmul, inverse_generator, kernel_vectors, rate1_spec

# Reference values: SC ops, Fast-SSC ops and per-class node counts for every
# (N, R) at ternary-last / ternary-first orderings, GA design at 3 dB.
# Tuple layout: (fast, r0, r1, spc, rep2, rep3_total, reduction_pct)
TABLE2 = {
    (96, 0.25): ((37, 7, 1, 4, 0, 1, 76.6), (27, 2, 0, 4, 4, 0, 85.7)),
    (96, 0.5): ((43, 8, 1, 6, 0, 0, 72.8), (45, 5, 5, 3, 3, 0, 76.2)),
    (96, 0.75): ((37, 3, 5, 4, 0, 0, 76.6), (42, 3, 6, 4, 3, 1, 77.8)),
    (432, 0.25): ((101, 15, 4, 16, 0, 4, 84.5), (118, 11, 6, 13, 11, 2, 86.1)),
    (432, 0.5): ((110, 14, 4, 21, 0, 7, 83.2), (136, 9, 7, 19, 15, 0, 83.4)),
    (432, 0.75): ((106, 13, 9, 17, 0, 2, 83.8), (109, 9, 9, 14, 8, 0, 87.2)),
    (768, 0.25): ((196, 34, 5, 24, 0, 3, 84.6), (186, 17, 8, 19, 19, 0, 87.9)),
    (768, 0.5): ((223, 31, 9, 31, 0, 4, 82.5), (222, 15, 14, 24, 22, 0, 85.5)),
    (768, 0.75): ((172, 19, 10, 25, 0, 4, 86.5), (192, 12, 19, 19, 15, 0, 87.5)),
    (2304, 0.25): ((409, 62, 8, 71, 0, 5, 88.6), (453, 31, 16, 54, 52, 0, 90.1)),
    (2304, 0.5): ((487, 63, 17, 86, 0, 8, 86.4), (516, 23, 17, 78, 56, 0, 88.8)),
    (2304, 0.75): ((395, 45, 27, 60, 0, 9, 88.9), (441, 24, 39, 50, 36, 0, 90.4)),
}
SC_REFERENCE = {96: (158, 189), 768: (1278, 1533), 432: (654, 849), 2304: (3582, 4602)}

REP_PATTERN_TABLE = [
    ((3,), (0, 1, 1)),
    ((2, 3), (0, 1, 1, 0, 1, 1)),
    ((3, 2), (0, 0, 1, 1, 1, 1)),
    ((2, 2, 2), (1, 1, 1, 1, 1, 1, 1, 1)),
    ((3, 3), (0, 0, 0, 0, 1, 1, 0, 1, 1)),
    ((2, 2, 3), (0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1)),
    ((3, 2, 2), (0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1)),
    ((2, 3, 3), (0, 0, 0, 0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 1)),
]


def _report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


def _orderings(n):
    n2, n3 = factor_length(n)
    return {"last": (2,) * n2 + (3,) * n3, "first": (3,) * n3 + (2,) * n2}


def _table2_stats():
    out = {}
    for (n, rate), refs in TABLE2.items():
        for ref, (label, kv) in zip(refs, _orderings(n).items()):
            spec = design_code(kv, round(n * rate), ebn0_db=3.0)
            counts = schedule_stats(build_schedule(spec))
            out[(n, rate, label)] = (counts, ref)
    return out


def _noisy_frames(spec, count, seed, ebn0_db=2.0):
    rng = np.random.default_rng(seed)
    sigma2 = 1.0 / (2.0 * spec.k_bits / spec.n_bits * 10 ** (ebn0_db / 10))
    msg = rng.integers(0, 2, (count, spec.k_bits), dtype=np.uint8)
    u = expand_message(msg, spec)
    x = stage_transform(u, spec.kernels)
    llr = 2.0 * ((1.0 - 2.0 * x) + np.sqrt(sigma2) * rng.standard_normal(x.shape)) / sigma2
    return u, x, llr


def test_criterion_01_sc_node_counts_exact():
    ok = True
    for n, (ref_last, ref_first) in SC_REFERENCE.items():
        kvs = _orderings(n)
        ok = ok and sc_node_count(kvs["last"]) == ref_last
        ok = ok and sc_node_count(kvs["first"]) == ref_first
    _report(1, "sc-node-counts", ok)


def test_criterion_02_fast_node_counts_within_tolerance():
    failures = []
    for (n, rate, label), (counts, ref) in _table2_stats().items():
        fast_ref, r0, r1, spc, rep2, rep3, _ = ref
        if abs(counts.fast_nodes - fast_ref) > 0.15 * fast_ref:
            failures.append(f"{n}/{rate}/{label}: fast {counts.fast_nodes} vs {fast_ref}")
        for got, want, what in [
            (counts.r0, r0, "r0"),
            (counts.r1, r1, "r1"),
            (counts.spc, spc, "spc"),
            (counts.rep2, rep2, "rep2"),
            (counts.rep3a + counts.rep3b + counts.rep3c, rep3, "rep3"),
        ]:
            if abs(got - want) > 5:
                failures.append(f"{n}/{rate}/{label}: {what} {got} vs {want}")
        if counts.reduction_pct < 72.0:
            failures.append(f"{n}/{rate}/{label}: reduction {counts.reduction_pct:.1f} < 72")
    _report(2, "fast-node-counts", not failures, "; ".join(failures))


def test_criterion_03_reduction_arithmetic_on_exact_cells():
    exact = 0
    bad = []
    for (n, rate, label), (counts, ref) in _table2_stats().items():
        if counts.fast_nodes != ref[0]:
            continue
        exact += 1
        sc_ref = SC_REFERENCE[n][0 if label == "last" else 1]
        from_counts = 100.0 * (1.0 - ref[0] / sc_ref)
        if abs(counts.reduction_pct - from_counts) > 0.1:
            bad.append(f"{n}/{rate}/{label}: {counts.reduction_pct:.2f} vs {from_counts:.2f}")
        # The printed percentage is only checked where it agrees with the
        # table's own counts; the 432/0.5/first cell prints 83.4 although
        # 136/849 gives 84.0.
        if abs(ref[6] - from_counts) <= 0.1 and abs(counts.reduction_pct - ref[6]) > 0.1:
            bad.append(f"{n}/{rate}/{label}: {counts.reduction_pct:.2f} vs printed {ref[6]}")
    # most cells (and in particular most Last rows) are expected to match exactly
    ok = exact >= 12 and not bad
    _report(3, "reduction-arithmetic", ok, f"{exact} exact cells" + ("; " + "; ".join(bad) if bad else ""))


def test_criterion_04_fast_ssc_equals_sc_without_spc():
    cases = [
        ((2, 3), 3),
        ((3, 2), 4),
        ((2, 2, 3), 6),
        ((3, 3, 2), 9),
        ((2, 2, 2, 2, 2, 3), 48),
        ((3, 3, 3, 2, 2, 2, 2), 216),
    ]
    mismatches = 0
    for kv, k in cases:
        spec = design_code(kv, k, ebn0_db=3.0)
        _, _, llr = _noisy_frames(spec, 10_000, seed=hash(kv) % 2**32, ebn0_db=2.0)
        u_sc, x_sc = SCDecoder(spec).decode_batch(llr)
        u_f, x_f = FastSSCDecoder(spec, limits=NodeLimits(spc=False)).decode_batch(llr)
        mismatches += int((u_f != u_sc).sum()) + int((x_f != x_sc).sum())
    _report(4, "fast-ssc-equals-sc", mismatches == 0, f"{mismatches} mismatched bits")


def test_criterion_05_spc_is_ml():
    span_kvs = {2: (2,), 3: (3,), 4: (2, 2), 6: (2, 3), 8: (2, 2, 2), 12: (3, 2, 2), 16: (2, 2, 2, 2)}
    rng = np.random.default_rng(99)
    mismatches = 0
    for span, kv in span_kvs.items():
        words = np.array(
            [w for w in itertools.product((0, 1), repeat=span) if sum(w) % 2 == 0],
            dtype=np.uint8,
        )
        signs = (1.0 - 2.0 * words).astype(np.float64)
        alpha = rng.normal(0, 1.5, (1000, span))
        beta, _ = decode_spc(alpha.T, kv)
        ml = words[np.argmax(signs @ alpha.T, axis=0)]
        mismatches += int((beta.T != ml).any(axis=1).sum())
    _report(5, "spc-ml-optimality", mismatches == 0, f"{mismatches} mismatched vectors")


def test_criterion_06_rate1_matches_sc_subtree():
    rng = np.random.default_rng(7)
    bad = 0
    for kv in [(3,), (3, 3), (3, 3, 3), (2, 3), (3, 2), (2, 3, 3), (3, 3, 2), (2, 2, 3)]:
        spec = rate1_spec(kv)
        alpha = rng.normal(0, 2, (1000, spec.n_bits))
        alpha[alpha == 0] = 0.25
        dec = FastSSCDecoder(spec)
        assert dec.schedule.root.node_class is NodeClass.RATE1
        u_f, x_f = dec.decode_batch(alpha)
        u_sc, x_sc = SCDecoder(spec).decode_batch(alpha)
        bad += int((u_f != u_sc).sum()) + int((x_f != x_sc).sum())
    _report(6, "rate1-ternary-proof", bad == 0, f"{bad} mismatched bits")


def test_criterion_07_rep_patterns():
    ok = all(rep_pattern(kv).tolist() == list(pat) for kv, pat in REP_PATTERN_TABLE)
    for kv in kernel_vectors(36):
        ok = ok and np.array_equal(rep_pattern(kv), generator_matrix(kv)[-1])
    _report(7, "rep-patterns", ok)


def test_criterion_08_gf2_algebra():
    ok = True
    for kv in kernel_vectors(96):
        g, g_inv = generator_matrix(kv), inverse_generator(kv)
        ok = ok and np.array_equal(gf2_matmul(g, g_inv), np.eye(len(g), dtype=np.uint8))
    for s in itertools.product((0, 1), repeat=3):
        x = stage_transform(np.array(s), (3,))
        ok = ok and tuple(stage_transform(x, (3,), inverse=True)) == s
    _report(8, "gf2-algebra", ok)


def _fer_sweep(n, k, decoder, snrs, seed=1234, limits=None, max_frames=100_000, min_errors=100_000_000):
    spec = construct_code(n, k, "last")
    stats = run_fer(
        spec,
        decoder=decoder,
        snrs=snrs,
        stop=StopRule(max_frames=max_frames, min_frame_errors=min_errors),
        seed=seed,
        limits=limits,
        batch_size=4096,
    )
    return stats.points


def _three_sigma(p1, p2):
    v1 = p1.fer * (1 - p1.fer) / p1.frames
    v2 = p2.fer * (1 - p2.fer) / p2.frames
    return 3.0 * np.sqrt(v1 + v2)


def test_criterion_09_fer_behavior():
    problems = []
    for n in (96, 432):
        k = n // 2
        sc = _fer_sweep(n, k, "sc", (2.0, 3.0, 4.0))
        fast = _fer_sweep(n, k, "fastssc", (2.0, 3.0, 4.0))
        for lo, hi in zip(sc, sc[1:]):
            slack = _three_sigma(lo, hi)
            if not hi.fer <= lo.fer + slack:
                problems.append(f"N={n} SC FER not monotone: {lo.fer:.3g} -> {hi.fer:.3g}")
        for p_sc, p_f in zip(sc, fast):
            if abs(p_sc.fer - p_f.fer) > max(_three_sigma(p_sc, p_f), 3 / p_sc.frames):
                problems.append(
                    f"N={n} @ {p_sc.ebn0_db} dB: SC {p_sc.fer:.3g} vs Fast-SSC {p_f.fer:.3g}"
                )
    _report(9, "fer-behavior", not problems, "; ".join(problems))


def test_criterion_09b_kernel_order_effect_advisory():
    # Qualitative ordering claim, checked loosely: at low rate the ternary-last
    # construction should not be meaningfully worse than ternary-first, and
    # vice versa at high rate. Advisory-grade statistics (3 sigma slack).
    def fer_for(order, k):
        spec = construct_code(432, k, order)
        stats = run_fer(
            spec,
            decoder="sc",
            snrs=(2.0,),
            stop=StopRule(max_frames=30_000, min_frame_errors=150),
            seed=77,
            batch_size=4096,
        )
        return stats.points[0]

    low_last, low_first = fer_for("last", 108), fer_for("first", 108)
    high_last, high_first = fer_for("last", 324), fer_for("first", 324)
    ok_low = low_last.fer <= low_first.fer + _three_sigma(low_last, low_first)
    ok_high = high_first.fer <= high_last.fer + _three_sigma(high_last, high_first)
    _report(
        9,
        "kernel-order-advisory",
        ok_low and ok_high,
        f"R=1/4 last {low_last.fer:.3g} vs first {low_first.fer:.3g}; "
        f"R=3/4 first {high_first.fer:.3g} vs last {high_last.fer:.3g}",
    )


def test_criterion_10_noiseless_roundtrip():
    rng = np.random.default_rng(2024)
    lengths = [n for n in range(2, 433) if all(p in (2, 3) for p in _prime_factors(n))]
    bad = 0
    seen = set()
    for n in lengths:
        n2, n3 = factor_length(n)
        for kv in {(2,) * n2 + (3,) * n3, (3,) * n3 + (2,) * n2}:
            if kv in seen:
                continue
            seen.add(kv)
            spec = design_code(kv, max(n // 2, 1), ebn0_db=3.0)
            msg = rng.integers(0, 2, (1000, spec.k_bits), dtype=np.uint8)
            u = expand_message(msg, spec)
            x = stage_transform(u, spec.kernels)
            llr = 8.0 * (1.0 - 2.0 * x)
            u_sc, _ = SCDecoder(spec).decode_batch(llr)
            u_f, _ = FastSSCDecoder(spec).decode_batch(llr)
            bad += int((u_sc != u).any(axis=1).sum()) + int((u_f != u).any(axis=1).sum())
    _report(10, "noiseless-roundtrip", bad == 0, f"{bad} failed frames across {len(seen)} specs")


def _prime_factors(n):
    out = []
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out.append(p)
            n //= p
    if n > 1:
        out.append(n)
    return out
