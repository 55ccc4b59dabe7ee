import gc
import hashlib
import itertools
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkpolar import fast_ssc
from mkpolar.analysis import TABLE2_LENGTHS, TABLE2_RATES
from mkpolar.construction import OrderingStrategy, construct_code, design_code
from mkpolar.encoding import expand_message
from mkpolar.fast_ssc import (
    FastSSCDecoder,
    NodeClass,
    NodeLimits,
    REP_CLASSES,
    build_schedule,
    classify_node,
    decode_rate1,
    decode_rep,
    decode_spc,
    rep_pattern,
)
from mkpolar.kernels import stage_transform
from mkpolar.sc import SCDecoder

from conftest import (
    arbitrary_specs,
    generator_matrix,
    kernel_vectors,
    noiseless_llrs,
    rate1_spec,
    rate1_uhat_matrix,
    rep_spec,
    spec_with_frozen,
)

# The design codes' orderings, in the order the pinned digests hash them.
ORDERINGS = (OrderingStrategy.FIRST, OrderingStrategy.LAST, OrderingStrategy.HIGHEST_RELIABILITY)

# The limits the schedule tests run every code under.
SCHEDULE_LIMITS = (
    NodeLimits(),
    NodeLimits(spc=False),
    NodeLimits(rep3a_max_span=3),
    NodeLimits(general_rep=True),
)

# P_v examples with varying kernel orders, and their node labels.
PATTERN_TABLE = [
    ((3,), (0, 1, 1), NodeClass.REP3A),
    ((2, 3), (0, 1, 1, 0, 1, 1), NodeClass.REP3C),
    ((3, 2), (0, 0, 1, 1, 1, 1), NodeClass.REP3B),
    ((2, 2, 2), (1, 1, 1, 1, 1, 1, 1, 1), NodeClass.REP2),
    ((3, 3), (0, 0, 0, 0, 1, 1, 0, 1, 1), NodeClass.REP3A),
    ((2, 2, 3), (0, 1, 1, 0, 1, 1, 0, 1, 1, 0, 1, 1), NodeClass.REP3C),
    ((3, 2, 2), (0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1), NodeClass.REP3B),
    ((2, 3, 3), (0, 0, 0, 0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 1), NodeClass.REP3C),
]


def _rep_mask(n):
    mask = np.ones(n, dtype=np.uint8)
    mask[-1] = 0
    return mask


class TestRepPattern:
    @pytest.mark.parametrize("kv,expected,_cls", PATTERN_TABLE, ids=lambda v: str(v))
    def test_reference_patterns(self, kv, expected, _cls):
        assert rep_pattern(kv).tolist() == list(expected)

    @pytest.mark.parametrize("kv", kernel_vectors(36), ids=str)
    def test_equals_unit_last_codeword(self, kv):
        g = generator_matrix(kv)
        assert np.array_equal(rep_pattern(kv), g[-1])

    @pytest.mark.parametrize("kv", kernel_vectors(36), ids=str)
    def test_last_bit_set_and_weight(self, kv):
        pat = rep_pattern(kv)
        assert pat[-1] == 1
        assert int(pat.sum()) == 2 ** len(kv)


class TestClassifyNode:
    def test_rate0(self):
        assert classify_node(np.ones(6, dtype=np.uint8), (2, 3)) is NodeClass.RATE0

    def test_rate1(self):
        assert classify_node(np.zeros(6, dtype=np.uint8), (3, 2)) is NodeClass.RATE1

    def test_rep3b(self):
        assert classify_node(_rep_mask(6), (3, 2)) is NodeClass.REP3B

    def test_rep3c(self):
        assert classify_node(_rep_mask(12), (2, 2, 3)) is NodeClass.REP3C

    def test_spc_any_kernels(self):
        for kv in [(2, 2), (3,), (2, 3), (3, 2, 2)]:
            n = int(np.prod(kv))
            mask = np.zeros(n, dtype=np.uint8)
            mask[0] = 1
            assert classify_node(mask, kv) is NodeClass.SPC

    def test_two_ternary_stages_stay_generic_by_default(self):
        assert classify_node(_rep_mask(18), (2, 3, 3)) is NodeClass.GENERIC

    def test_general_rep_lifts_restriction(self):
        limits = NodeLimits(general_rep=True)
        assert classify_node(_rep_mask(18), (2, 3, 3), limits) is NodeClass.REP3C
        assert classify_node(_rep_mask(18), (3, 3, 2), limits) is NodeClass.REP3B

    def test_rep_beats_spc_at_span_two(self):
        assert classify_node(np.array([1, 0], dtype=np.uint8), (2,)) is NodeClass.REP2

    def test_rep3a_span_limit(self):
        assert classify_node(_rep_mask(27), (3, 3, 3)) is NodeClass.REP3A
        assert classify_node(_rep_mask(81), (3, 3, 3, 3)) is NodeClass.GENERIC
        limits = NodeLimits(rep3a_max_span=9)
        assert classify_node(_rep_mask(27), (3, 3, 3), limits) is NodeClass.GENERIC

    def test_spc_disabled(self):
        mask = np.array([1, 0, 0, 0], dtype=np.uint8)
        assert classify_node(mask, (2, 2), NodeLimits(spc=False)) is NodeClass.GENERIC

    def test_interior_ternary_stays_generic(self):
        assert classify_node(_rep_mask(12), (2, 3, 2)) is NodeClass.GENERIC

    def test_mid_rate_generic(self):
        assert classify_node(np.array([1, 1, 0, 0, 1, 0], dtype=np.uint8), (2, 3)) is NodeClass.GENERIC

    @pytest.mark.parametrize(
        "mask,complaint",
        [([0.5, 0.5, 0.5, 0], "frozen mask entry [0] is 0.5, not 0 or 1"),
         ([2, 0, 0, 0], "frozen mask entry [0] is 2, not 0 or 1"),
         ([-1, 0, 0, 0], "frozen mask entry [0] is -1, not 0 or 1"),
         ([0, 1, 1, np.nan], "frozen mask entry [3] is nan, not 0 or 1")],
        ids=("half", "two", "negative", "nan"),
    )
    def test_mask_entries_must_be_0_or_1(self, mask, complaint):
        # A cast to uint8 would make 0.5 a 0 (RATE1) and -1 overflow.
        with pytest.raises(ValueError, match=re.escape(complaint)) as info:
            classify_node(mask, (2, 2))
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("mask", ([1, 0, 0], [1, 0, 0, 0, 0], [1], []), ids=len)
    def test_mask_length_must_match_kernels(self, mask):
        with pytest.raises(ValueError, match=re.escape(f"mask length {len(mask)} does not match kernel product 4")):
            classify_node(mask, (2, 2))


class TestNodeLimits:
    @pytest.mark.parametrize(
        "kwargs,complaint",
        [
            ({"spc": "False"}, "spc must be a bool, got 'False'"),
            ({"spc": 0}, "spc must be a bool, got 0"),
            ({"general_rep": None}, "general_rep must be a bool, got None"),
            ({"rep3a_max_span": 27.0}, "rep3a_max_span 27.0 is not an integer"),
            ({"rep3a_max_span": True}, "rep3a_max_span True is not an integer"),
            ({"rep3a_max_span": 81}, "rep3a_max_span 81 is outside 3..27"),
            ({"rep3a_max_span": 5}, "rep3a_max_span must be 3, 9 or 27, got 5"),
        ],
        ids=("spc_str", "spc_int", "general_rep_none", "span_float", "span_bool", "span_81", "span_5"),
    )
    def test_rejects_field_of_wrong_type(self, kwargs, complaint):
        # A truthy "False" would turn SPC on, and a float span would be stored as given.
        with pytest.raises(ValueError, match=re.escape(complaint)) as info:
            NodeLimits(**kwargs)
        assert "\n" not in str(info.value)

    def test_numpy_values_are_stored_as_python_types(self):
        limits = NodeLimits(rep3a_max_span=np.int64(9), spc=np.False_, general_rep=np.True_)
        assert limits == NodeLimits(rep3a_max_span=9, spc=False, general_rep=True)
        assert [type(v) for v in (limits.rep3a_max_span, limits.spc, limits.general_rep)] == [int, bool, bool]


class TestBuildSchedule:
    def test_reference_96_class_mix(self):
        spec = design_code((2, 2, 2, 2, 2, 3), 48)
        sched = build_schedule(spec)
        counts = {cls: 0 for cls in NodeClass}
        for node in sched.leaves():
            counts[node.node_class] += 1
        assert counts[NodeClass.RATE0] == 8
        assert counts[NodeClass.RATE1] == 1
        assert counts[NodeClass.SPC] == 6
        assert counts[NodeClass.REP2] == 0
        assert counts[NodeClass.REP3A] + counts[NodeClass.REP3B] + counts[NodeClass.REP3C] == 0

    def test_fully_frozen_single_rate0_root(self):
        spec = spec_with_frozen((2, 3), np.ones(6, dtype=np.uint8))
        sched = build_schedule(spec)
        assert sched.root.node_class is NodeClass.RATE0
        assert sched.root.children == ()

    def test_rate_one_single_root(self):
        spec = rate1_spec((2, 2, 3))
        sched = build_schedule(spec)
        assert sched.root.node_class is NodeClass.RATE1
        assert sched.root.span == 12

    @pytest.mark.parametrize("seed", range(4))
    def test_leaf_spans_partition_code(self, seed):
        rng = np.random.default_rng(seed)
        kv = (2, 3, 2, 3)
        frozen = rng.integers(0, 2, 36, dtype=np.uint8)
        spec = spec_with_frozen(kv, frozen)
        leaves = sorted(build_schedule(spec).leaves(), key=lambda n: n.offset)
        cursor = 0
        for leaf in leaves:
            assert leaf.offset == cursor
            cursor += leaf.span
        assert cursor == 36

    def test_export_lines_of_design_codes_pinned(self):
        # sha256 over export_lines ("\n"-joined, "\n"-ended) of the 36 design codes
        # (N x R x ordering) under each of SCHEDULE_LIMITS, as the per-node
        # classify_node builder produced them.
        digest = hashlib.sha256()
        for n, rate, ordering in itertools.product(TABLE2_LENGTHS, TABLE2_RATES, ORDERINGS):
            spec = construct_code(n, round(n * rate), ordering)
            for limits in SCHEDULE_LIMITS:
                digest.update(("\n".join(build_schedule(spec, limits).export_lines()) + "\n").encode())
        assert digest.hexdigest() == "062c87fe4af6d99dc5856fb2d710df4b3943ea6c192986be8209acbaac637f15"

    def test_spec_freed_without_the_cycle_collector(self):
        # The schedule keeps no reference to the spec, and building it leaves no
        # reference cycle that would keep the spec alive until gc runs.
        spec = design_code((2, 2, 3, 3), 18)
        alive = weakref.ref(spec)
        gc.disable()
        try:
            sched = build_schedule(spec)
            del spec
            assert alive() is None
        finally:
            gc.enable()
        assert sched.root.span == 36

    def test_rep_nodes_of_one_depth_share_a_read_only_pattern(self):
        spec = spec_with_frozen((2, 2, 3), np.tile([1, 1, 0], 4))
        reps = [n for n in build_schedule(spec) if n.node_class in REP_CLASSES]
        assert len(reps) == 4 and all(n.pattern is reps[0].pattern for n in reps)
        assert np.array_equal(reps[0].pattern, rep_pattern((3,)))
        assert not reps[0].pattern.flags.writeable
        assert reps[0].pattern.dtype == bool  # so decode_rep's 0/1 check passes it unscanned

    def test_export_lines_format(self):
        spec = design_code((2, 3), 3)
        lines = build_schedule(spec).export_lines()
        assert lines[0].split(",")[0] == "0"
        for line in lines:
            depth, offset, span, cls = line.split(",")
            assert cls in {c.value for c in NodeClass}
            assert int(span) >= 1


class TestDecodeRate1:
    def test_ternary_example(self):
        beta, u = decode_rate1(np.array([2.0, -1.0, 3.0]), (3,))
        assert beta.tolist() == [0, 1, 0]
        assert u.tolist() == [1, 1, 0]

    def test_all_positive(self):
        beta, u = decode_rate1(np.ones(6), (2, 3))
        assert not beta.any() and not u.any()

    @pytest.mark.parametrize("kv", [(3,), (3, 3), (2, 3), (3, 2), (3, 3, 3), (2, 3, 3)], ids=str)
    def test_uhat_paths_agree(self, kv, rng):
        n = int(np.prod(kv))
        alpha = rng.normal(0, 2, (200, n))
        beta, u = decode_rate1(alpha.T, kv)
        assert np.array_equal(u.T, rate1_uhat_matrix(beta.T, kv))

    @pytest.mark.parametrize("kv", [(3,), (3, 3), (2, 3), (3, 2, 2), (3, 3, 3)], ids=str)
    def test_matches_sc_on_unfrozen_subtree(self, kv, rng):
        spec = rate1_spec(kv)
        alpha = rng.normal(0, 2, (500, spec.n_bits))
        alpha[alpha == 0] = 0.1
        beta, u = decode_rate1(alpha.T, kv)
        u_sc, x_sc = SCDecoder(spec).decode_batch(alpha)
        assert np.array_equal(u.T, u_sc)
        assert np.array_equal(beta.T, x_sc)


class TestDecodeSPC:
    def test_even_parity_untouched(self):
        beta, _ = decode_spc(np.array([0.5, -2.0, 3.0, -4.0]), (2, 2))
        assert beta.tolist() == [0, 1, 0, 1]

    def test_odd_parity_flips_least_reliable(self):
        beta, _ = decode_spc(np.array([0.5, 2.0, 3.0, -4.0]), (2, 2))
        assert beta.tolist() == [1, 0, 0, 1]

    def test_all_positive(self):
        beta, u = decode_spc(np.ones(6), (2, 3))
        assert not beta.any() and not u.any()

    @pytest.mark.parametrize("alpha", [1.0, np.ones((2, 2, 2))], ids=("0d", "3d"))
    def test_llrs_neither_a_frame_nor_a_block_rejected(self, alpha):
        # A 0-d alpha once raised IndexError; a (2, 2, 2) one flipped bits across frames.
        shape = np.shape(alpha)
        with pytest.raises(ValueError, match=re.escape(f"LLRs of shape {shape} are neither")):
            decode_spc(alpha, (2,))

    @pytest.mark.parametrize("kv", [(2, 2), (3, 2), (2, 3), (2, 2, 2), (3, 3)], ids=str)
    def test_parity_always_even(self, kv, rng):
        n = int(np.prod(kv))
        beta, _ = decode_spc(rng.normal(0, 1, (300, n)).T, kv)
        assert not (np.bitwise_xor.reduce(beta.T, axis=1)).any()

    @pytest.mark.parametrize("kv", [(2, 2), (3,), (2, 3), (2, 2, 2), (3, 2, 2)], ids=str)
    def test_matches_exhaustive_ml(self, kv, rng):
        n = int(np.prod(kv))
        words = np.array(
            [w for w in itertools.product((0, 1), repeat=n) if sum(w) % 2 == 0],
            dtype=np.uint8,
        )
        signs = 1.0 - 2.0 * words
        alpha = rng.normal(0, 1.5, (200, n))
        beta, _ = decode_spc(alpha.T, kv)
        ml = words[np.argmax(signs @ alpha.T, axis=0)]
        assert np.array_equal(beta.T, ml)


@pytest.mark.parametrize("kv", [(2,), (3,), (2, 3), (3, 3), (2, 3, 3)], ids=str)
def test_leaf_decoders_agree_across_layouts(kv, rng):
    # A 1-D frame, a (span, 1) column, a C-ordered (span, batch) block and a
    # column slice of a wider block decode alike; integer LLRs bring ties.
    span = int(np.prod(kv))
    wide = rng.integers(-2, 3, (span, 50)).astype(float)
    wide[:, 25:] = rng.normal(0, 2, (span, 25))
    block = wide[:, 5:45].copy()
    for decode, arg in ((decode_rate1, kv), (decode_spc, kv), (decode_rep, rep_pattern(kv))):
        beta, u = decode(block, arg)
        b, s = decode(wide[:, 5:45], arg)
        assert np.array_equal(b, beta) and np.array_equal(s, u)
        for i in range(block.shape[1]):
            for frame in (block[:, i], block[:, i : i + 1], wide[:, 5 + i : 6 + i]):
                b, s = decode(frame, arg)
                assert b.shape == s.shape == frame.shape
                assert np.array_equal(b.reshape(-1), beta[:, i]) and np.array_equal(s.reshape(-1), u[:, i])


class TestDecodeRep:
    def test_rep3a_excludes_masked_index(self):
        beta, u = decode_rep(np.array([5.0, -1.0, -2.0]), rep_pattern((3,)))
        assert beta.tolist() == [0, 1, 1]
        assert u.tolist() == [0, 0, 1]

    def test_rep2_positive_sum(self):
        beta, u = decode_rep(np.array([1.0, 2.0]), rep_pattern((2,)))
        assert beta.tolist() == [0, 0]
        assert u.tolist() == [0, 0]

    def test_rep3b_skips_first_third(self):
        alpha = np.array([9.0, 9.0, 1.0, -1.0, -1.0, -1.0])
        beta, u = decode_rep(alpha, rep_pattern((3, 2)))
        assert beta.tolist() == [0, 0, 1, 1, 1, 1]
        assert u.tolist() == [0, 0, 0, 0, 0, 1]

    @pytest.mark.parametrize(
        "alpha,pattern,complaint",
        [
            (np.ones(4), [-1, 0, 0, 1], "pattern entry [0] is -1, not 0 or 1"),
            (np.ones(4), [2, 0, 0, 1], "pattern entry [0] is 2, not 0 or 1"),
            (np.ones(4), [0, 0, 1], "pattern of shape (3,) does not fit LLRs of shape (4,)"),
            (1.0, [0, 1], "pattern of shape (2,) does not fit LLRs of shape ()"),
        ],
        ids=("minus_one", "two", "short", "0d_llrs"),
    )
    def test_pattern_must_be_bits_that_fit_the_llrs(self, alpha, pattern, complaint):
        # The -1 and the 2 once decoded as the pattern [1, 0, 0, 1]; the 0-d LLRs raised IndexError.
        with pytest.raises(ValueError, match=f"^{re.escape(complaint)}$"):
            decode_rep(alpha, pattern)

    def test_rep3c_skips_every_third(self):
        alpha = np.array([9.0, -1.0, -1.0, 9.0, -1.0, -1.0])
        beta, u = decode_rep(alpha, rep_pattern((2, 3)))
        assert beta.tolist() == [0, 1, 1, 0, 1, 1]
        assert u.tolist() == [0, 0, 0, 0, 0, 1]

    @pytest.mark.parametrize(
        "kv,cls",
        [((2, 2, 2), NodeClass.REP2), ((3, 3), NodeClass.REP3A), ((3, 2, 2), NodeClass.REP3B), ((2, 2, 3), NodeClass.REP3C)],
        ids=str,
    )
    def test_matches_sc_on_rep_subtree(self, kv, cls, rng):
        spec = rep_spec(kv)
        assert build_schedule(spec).root.node_class is cls
        alpha = rng.normal(0, 2, (500, spec.n_bits))
        beta, u = decode_rep(alpha.T, rep_pattern(kv))
        u_sc, x_sc = SCDecoder(spec).decode_batch(alpha)
        assert np.array_equal(u.T, u_sc)
        assert np.array_equal(beta.T, x_sc)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=["f32", "f64"])
    @pytest.mark.parametrize("kv", [(2,) * 8, (3, 3, 3), (3, 2, 2)], ids=str)
    def test_sum_runs_left_to_right_alone_and_in_any_batch(self, kv, dtype, rng):
        # Each frame's terms at the pattern's ones are values from 1e-8 to 1e30 and their
        # negations in shuffled order: the exact sum is 0, so the sign of the float sum is
        # its rounding, which any other order (pairwise, BLAS) changes for some frames.
        pattern = rep_pattern(kv)
        ones = np.flatnonzero(pattern)
        frames = 1024
        values = 10.0 ** rng.uniform(-8, 30, (len(ones) // 2, frames))
        terms = np.concatenate([values, -values])
        alpha = np.full((len(pattern), frames), np.nan)
        alpha[ones] = rng.permuted(terms, axis=0)
        alpha[pattern == 0] = 1e30
        alpha = alpha.astype(dtype)
        bits = []
        for frame in alpha.T:
            total = frame[ones[0]]
            for j in ones[1:]:
                total = total + frame[j]  # numpy scalars: each sum rounds to dtype
            bits.append(total <= 0)
        assert 0 < sum(bits) < frames  # the test data decides both ways
        want_beta = np.multiply.outer(pattern, np.array(bits, dtype=np.uint8))
        for batch in (2, 3, 37, 1024):
            for start in range(0, frames, batch):
                beta, u = decode_rep(alpha[:, start : start + batch], pattern)
                assert np.array_equal(beta, want_beta[:, start : start + batch])
                assert np.array_equal(u[-1], bits[start : start + batch]) and not u[:-1].any()
        for i in range(frames):
            for frame in (alpha[:, i], alpha[:, i : i + 1]):
                beta, u = decode_rep(frame, pattern)
                assert beta.dtype == u.dtype == np.uint8 and beta.shape == u.shape == frame.shape
                assert np.array_equal(beta.reshape(-1), want_beta[:, i]) and u.reshape(-1)[-1] == bits[i]


def _random_noisy_frames(spec, count, rng, snr_scale=1.0):
    msg = rng.integers(0, 2, (count, spec.k_bits), dtype=np.uint8)
    u = expand_message(msg, spec)
    x = stage_transform(u, spec.kernels)
    return u, 2.0 * (1.0 - 2.0 * x) * snr_scale + rng.normal(0, 1.6, (count, spec.n_bits))


class TestFastDecoder:
    @pytest.mark.parametrize("kv,k", [((2, 3), 3), ((3, 3, 2), 9), ((2, 2, 2, 2, 2, 3), 48)], ids=str)
    def test_matches_sc_without_spc(self, kv, k, rng):
        spec = design_code(kv, k)
        _, llr = _random_noisy_frames(spec, 2000, rng)
        u_sc, x_sc = SCDecoder(spec).decode_batch(llr)
        fast = FastSSCDecoder(spec, limits=NodeLimits(spc=False))
        u_f, x_f = fast.decode_batch(llr)
        assert np.array_equal(u_f, u_sc)
        assert np.array_equal(x_f, x_sc)

    @pytest.mark.parametrize("n", (96, 432))
    def test_tied_llrs_give_valid_codewords(self, n, rng):
        # A Rate-1 or SPC leaf breaks LLR ties (exactly 0) unlike SC, so the
        # decoders agree bit for bit only on tie-free LLRs; on ties each still
        # returns a codeword: x_hat = u_hat G with every frozen bit zero.
        spec = construct_code(n, n // 2, "last")
        _, noisy = _random_noisy_frames(spec, 200, rng)
        rounded = np.rint(noisy)
        assert (rounded == 0).any()
        decoders = (SCDecoder(spec), FastSSCDecoder(spec),
                    FastSSCDecoder(spec, limits=NodeLimits(spc=False)))
        for llr in (np.zeros((1, n)), rounded):
            for decoder in decoders:
                u_hat, x_hat = decoder.decode_batch(llr)
                assert not u_hat[:, spec.frozen_indices].any()
                assert np.array_equal(x_hat, stage_transform(u_hat, spec.kernels))

    def test_noiseless_exact(self, rng):
        spec = design_code((3, 2, 2, 3), 18)
        msg = rng.integers(0, 2, (100, 18), dtype=np.uint8)
        u = expand_message(msg, spec)
        x = stage_transform(u, spec.kernels)
        u_hat, x_hat = FastSSCDecoder(spec).decode_batch(noiseless_llrs(x))
        assert np.array_equal(u_hat, u)
        assert np.array_equal(x_hat, x)

    def test_general_rep_matches_default_where_both_apply(self, rng):
        spec = design_code((2, 2, 2, 3), 12)
        _, llr = _random_noisy_frames(spec, 500, rng)
        general = FastSSCDecoder(spec, limits=NodeLimits(general_rep=True, spc=False))
        default = FastSSCDecoder(spec, limits=NodeLimits(spc=False))
        ug, _ = general.decode_batch(llr)
        ud, _ = default.decode_batch(llr)
        assert np.array_equal(ug, ud)

    def test_decode_fast_function(self, rng):
        spec = design_code((2, 3), 3)
        _, llr = _random_noisy_frames(spec, 1, rng)
        u_hat, x_hat = FastSSCDecoder(spec).decode(llr[0])
        assert u_hat.shape == (6,)
        assert np.array_equal(x_hat, stage_transform(u_hat, spec.kernels))

    def test_nan_llr_rejected(self):
        spec = design_code((2, 3), 3)
        llr = np.ones((2, 6))
        llr[1, 4] = np.nan
        with pytest.raises(ValueError, match="LLR 4 of frame 1 is NaN"):
            FastSSCDecoder(spec).decode_batch(llr)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kv,k", [((2, 3), 3), ((3, 3, 2), 9), ((2, 2, 2, 2, 2, 3), 48)], ids=str)
    def test_infinite_and_huge_llrs_saturate(self, kv, k, rng):
        spec = design_code(kv, k)
        u = expand_message(rng.integers(0, 2, (40, k), dtype=np.uint8), spec)
        x = stage_transform(u, spec.kernels)
        magnitude = rng.choice([np.inf, 1e308, 4.0], size=x.shape)
        u_hat, x_hat = FastSSCDecoder(spec).decode_batch(noiseless_llrs(x, magnitude))
        assert np.array_equal(u_hat, u)
        assert np.array_equal(x_hat, x)
        signs = rng.choice([-1.0, 1.0], size=x.shape)
        u_inf, x_inf = FastSSCDecoder(spec).decode_batch(signs * np.inf)
        u_big, x_big = FastSSCDecoder(spec).decode_batch(signs * 1e308)
        assert np.array_equal(u_inf, u_big) and np.array_equal(x_inf, x_big)
        assert np.array_equal(x_inf, stage_transform(u_inf, spec.kernels))

    @pytest.mark.parametrize("kv,k", [((2, 3), 3), ((2, 2, 2, 2, 2, 3), 48)], ids=str)
    def test_empty_batch(self, kv, k):
        spec = design_code(kv, k)
        u_hat, x_hat = FastSSCDecoder(spec).decode_batch(np.zeros((0, spec.n_bits)))
        for out in (u_hat, x_hat):
            assert out.shape == (0, spec.n_bits) and out.dtype == np.uint8

    def test_single_bit_leaves_survive(self, rng):
        # frozen pattern engineered so recursion reaches span-1 nodes
        frozen = np.array([0, 1, 0, 1, 1, 0], dtype=np.uint8)
        spec = spec_with_frozen((3, 2), frozen)
        sched = build_schedule(spec)
        spans = sorted(n.span for n in sched.leaves())
        assert spans[0] == 1
        _, llr = _random_noisy_frames(spec, 300, rng)
        u_sc, _ = SCDecoder(spec).decode_batch(llr)
        u_f, _ = FastSSCDecoder(spec, limits=NodeLimits(spc=False)).decode_batch(llr)
        assert np.array_equal(u_f, u_sc)


@pytest.mark.parametrize(
    "code", [(432, 216, "last", 3.0), (2304, 1152, "first", 2.0)], ids=("n432_last", "n2304_first")
)
def test_leaf_inverses_are_one_per_rate1_or_spc_leaf(code, monkeypatch, rng):
    # The single-frame decode code and the long simulation code of the benchmark.
    # Building a decoder makes no inverse stage transform; a decode makes one per
    # multi-bit Rate-1 leaf and one per SPC leaf, at one frame and on a batch.
    spec = construct_code(*code)
    calls = []
    transform = fast_ssc.stage_transform

    def counted(*args, **kwargs):
        calls.append(args[1])
        return transform(*args, **kwargs)

    monkeypatch.setattr(fast_ssc, "stage_transform", counted)
    decoder = FastSSCDecoder(spec)
    assert calls == []
    leaves = [n.kv_sub for n in decoder.schedule.leaves()
              if n.span > 1 and n.node_class in (NodeClass.RATE1, NodeClass.SPC)]
    assert leaves
    _, llr = _random_noisy_frames(spec, 3, rng)
    decoder.decode(llr[0])
    assert sorted(calls) == sorted(leaves)
    calls.clear()
    decoder.decode_batch(llr)
    assert sorted(calls) == sorted(leaves)


@given(arbitrary_specs(), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_schedule_partitions_any_frozen_set(spec, _seed):
    leaves = sorted(build_schedule(spec).leaves(), key=lambda n: n.offset)
    cursor = 0
    for leaf in leaves:
        assert leaf.offset == cursor
        cursor += leaf.span
    assert cursor == spec.n_bits


@given(arbitrary_specs(), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_fast_matches_sc_for_any_frozen_set(spec, seed):
    # without SPC every fast node is decision-equivalent to plain SC
    rng = np.random.default_rng(seed)
    llr = rng.normal(0, 2, (8, spec.n_bits))
    llr[llr == 0] = 0.5
    u_sc, x_sc = SCDecoder(spec).decode_batch(llr)
    u_f, x_f = FastSSCDecoder(spec, limits=NodeLimits(spc=False)).decode_batch(llr)
    assert np.array_equal(u_f, u_sc)
    assert np.array_equal(x_f, x_sc)


@given(arbitrary_specs(), st.sampled_from(SCHEDULE_LIMITS))
@settings(max_examples=200, deadline=None)
def test_schedule_classes_equal_classify_node(spec, limits):
    kv = spec.kernels
    for node in build_schedule(spec, limits):
        o, s, d = node.offset, node.span, node.depth
        assert s == int(np.prod(kv[d:])) and node.kv_sub == kv[d:]
        if s == 1:  # classify_node takes spans of 2 or more
            expected = NodeClass.RATE0 if spec.frozen[o] else NodeClass.RATE1
        else:
            expected = classify_node(spec.frozen[o : o + s], kv[d:], limits)
        assert node.node_class is expected
        if node.node_class is NodeClass.GENERIC:
            assert [(c.depth, c.offset) for c in node.children] == [
                (d + 1, o + j * s // kv[d]) for j in range(kv[d])
            ]
        else:
            assert node.children == ()
        if node.node_class in REP_CLASSES:
            assert np.array_equal(node.pattern, rep_pattern(kv[d:]))
        else:
            assert node.pattern is None
