import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mkpolar import construction
from mkpolar.construction import (
    CodeSpec,
    OrderingStrategy,
    _evolve_arrangements,
    construct_code,
    design_code,
    ga_reliabilities,
    _phi,
    _phi_inv,
    order_kernels,
    select_frozen,
)
from mkpolar.kernels import factor_length

from conftest import is_valid_length, kernel_vectors, scalar_ga_reliabilities, scalar_phi, scalar_phi_inv


class TestPhi:
    """The array phi GA runs, on the scalar oracle's values (tests/conftest.py)."""

    def test_at_zero(self):
        assert _phi(np.array([0.0]))[0] == pytest.approx(1.0) == scalar_phi(0.0)

    def test_low_branch(self):
        # exp(0.0564 * 0.25 - 0.485 * 0.5), evaluated independently
        assert _phi(np.array([0.5]))[0] == pytest.approx(0.7958058738129692, rel=1e-12)
        assert scalar_phi(0.5) == pytest.approx(0.7958058738129692, rel=1e-12)

    def test_high_branch(self):
        # exp(-0.4527 * 2**0.86 + 0.0218)
        assert _phi(np.array([2.0]))[0] == pytest.approx(0.44938834990844295, rel=1e-12)
        assert scalar_phi(2.0) == pytest.approx(0.44938834990844295, rel=1e-12)

    def test_strictly_decreasing(self):
        ys = _phi(np.arange(0.0, 30.0, 0.01))
        assert (np.diff(ys) < 0).all()

    def test_range(self):
        ys = _phi(np.array([0.0, 0.3, 0.8678, 5.0, 300.0]))
        assert ((0.0 < ys) & (ys <= 1.0)).all()


class TestPhiInv:
    """The array phi_inv GA runs, on the scalar oracle's values (tests/conftest.py)."""

    def test_at_one(self):
        assert _phi_inv(np.array([1.0]))[0] == pytest.approx(0.0, abs=1e-12)
        assert scalar_phi_inv(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_low_branch(self):
        # ((log 0.5)/alpha - beta/alpha)**(1/gamma), evaluated independently
        assert _phi_inv(np.array([0.5]))[0] == pytest.approx(1.701263047638045, rel=1e-12)
        assert scalar_phi_inv(0.5) == pytest.approx(1.701263047638045, rel=1e-12)

    def test_roundtrip_exact_on_high_branch(self):
        assert _phi_inv(_phi(np.array([2.0])))[0] == pytest.approx(2.0, rel=1e-9)

    def test_roundtrip_within_5pct(self):
        xs = np.arange(0.2, 20.0, 0.1)
        np.testing.assert_allclose(_phi_inv(_phi(xs)), xs, rtol=0.05)


class TestGaReliabilities:
    def test_initial_mean(self):
        # 4 * R * 10**(dB/10) at R = 1/2, 3 dB
        z0 = 4 * 0.5 * 10**0.3
        assert z0 == pytest.approx(3.990524629937759, rel=1e-12)
        z = ga_reliabilities((2,), 0.5, 3.0)
        assert z[1] == pytest.approx(2 * z0, rel=1e-12)

    def test_binary_children(self):
        z = ga_reliabilities((2,), 0.5, 3.0)
        z0 = 4 * 0.5 * 10**0.3
        p = scalar_phi(z0)
        assert z[0] == pytest.approx(scalar_phi_inv(p * (2 - p)), rel=1e-12)
        assert z[0] < z[1]

    def test_ternary_last_child_doubles(self):
        z0 = 4 * 0.25 * 10**0.2
        z = ga_reliabilities((3,), 0.25, 2.0)
        assert len(z) == 3
        assert z[2] == pytest.approx(2 * z0, rel=1e-12)

    @pytest.mark.parametrize("kv", [(2, 3), (3, 2, 2), (2, 2, 3, 3), (3, 3, 3)], ids=str)
    def test_last_leaf_doubles_per_stage(self, kv):
        z = ga_reliabilities(kv, 0.5, 3.0)
        z0 = 4 * 0.5 * 10**0.3
        assert z[-1] == pytest.approx(z0 * 2 ** len(kv), rel=1e-12)

    @pytest.mark.parametrize("kv", [(2, 2, 3), (3, 3), (2, 3, 2)], ids=str)
    def test_monotone_in_snr(self, kv):
        lo = ga_reliabilities(kv, 0.5, 2.0)
        hi = ga_reliabilities(kv, 0.5, 2.5)
        assert (hi > lo).all()

    def test_all_nonnegative_and_length(self):
        for kv in kernel_vectors(54):
            z = ga_reliabilities(kv, 0.5, 3.0)
            assert len(z) == np.prod(kv)
            assert (z >= 0).all()

    def test_large_code_stays_finite(self):
        z = ga_reliabilities((2,) * 8 + (3, 3), 0.75, 3.0)
        assert np.isfinite(z).all()

    def test_rejects_bad_rate(self):
        for rate in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                ga_reliabilities((2,), rate, 3.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ebn0_db", (-np.inf, -4000.0, 3080.0, 4000.0, np.inf, np.nan))
    def test_rejects_ebn0_out_of_range(self, ebn0_db):
        # -inf and -4000 dB give Eb/N0 = 0; from 3080 dB up 4*R*Eb/N0 is infinite
        with pytest.raises(ValueError, match="out of range"):
            ga_reliabilities((2, 3), 0.5, ebn0_db)
        with pytest.raises(ValueError, match="out of range"):
            construct_code(96, 48, OrderingStrategy.HIGHEST_RELIABILITY, ebn0_db=ebn0_db)

    @pytest.mark.parametrize("ebn0_db", ("3", None, 1j, [3.0], True), ids=repr)
    def test_rejects_ebn0_that_is_not_a_real_number(self, ebn0_db):
        complaint = re.escape(f"Eb/N0 {ebn0_db!r} is not a real number")
        with pytest.raises(ValueError, match=complaint):
            ga_reliabilities((2, 3), 0.5, ebn0_db)
        with pytest.raises(ValueError, match=complaint):
            design_code((2, 3), 3, ebn0_db)

    @pytest.mark.parametrize("k_bits", (0, 6))
    def test_code_without_ga_takes_ebn0_by_the_same_rule(self, k_bits):
        # A K of 0 or N runs no GA; it once stored a str Eb/N0 as its design point.
        with pytest.raises(ValueError, match=re.escape("Eb/N0 '3' is not a real number")):
            design_code((2, 3), k_bits, "3")
        assert design_code((2, 3), k_bits, 2.5).design_ebn0_db == 2.5


class TestArrayGaMatchesScalarOracle:
    """The array GA against the scalar GA it replaced (tests/conftest.py)."""

    def test_phi_and_phi_inv(self):
        xs = np.concatenate([np.arange(0.0, 30.0, 0.01), [0.8678, 1e3, 1e6]])
        np.testing.assert_allclose(_phi(xs), [scalar_phi(x) for x in xs], rtol=1e-12, atol=1e-12)
        ys = np.concatenate([np.linspace(1e-300, 1.0, 3001)[1:], [0.6846, 1e-300]])
        np.testing.assert_allclose(_phi_inv(ys), [scalar_phi_inv(y) for y in ys], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("n", (96, 432, 768, 2304))
    def test_frozen_sets_and_orderings_over_grid(self, n):
        n_two, n_three = factor_length(n)
        slots = n_two + n_three
        arrangements = [
            tuple(3 if i in pos else 2 for i in range(slots))
            for pos in itertools.combinations(range(slots), n_three)
        ]
        for rate, ebn0_db in itertools.product((0.25, 0.5, 0.75), (1.0, 2.0, 3.0)):
            k_bits = round(rate * n)
            # highest_reliability by one scalar GA per arrangement, in
            # combinations order, keeping the first of equal scores
            best_kv, best_score = None, -np.inf
            for kv in arrangements:
                z = ga_reliabilities(kv, rate, ebn0_db)
                oracle = scalar_ga_reliabilities(kv, rate, ebn0_db)
                np.testing.assert_allclose(z, oracle, rtol=1e-7, atol=1e-9)
                assert np.array_equal(select_frozen(z, k_bits), select_frozen(oracle, k_bits))
                score = np.sort(oracle)[n - k_bits :].sum()
                if score > best_score:
                    best_kv, best_score = kv, score
            got = order_kernels(n_two, n_three, OrderingStrategy.HIGHEST_RELIABILITY, rate, ebn0_db)
            assert got == best_kv

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ebn0_db", (-10.0, 30.0))
    def test_no_warning_at_extreme_means(self, ebn0_db):
        kv = (2,) * 8 + (3, 3)
        z = ga_reliabilities(kv, 0.5, ebn0_db)
        assert np.isfinite(z).all() and (z >= 0).all()
        np.testing.assert_allclose(z, scalar_ga_reliabilities(kv, 0.5, ebn0_db), rtol=1e-7, atol=1e-9)
        order_kernels(8, 2, OrderingStrategy.HIGHEST_RELIABILITY, 0.5, ebn0_db)


class TestSelectFrozen:
    def test_smallest_frozen(self):
        mask = select_frozen([0.1, 5.0, 3.0], 2)
        assert mask.tolist() == [1, 0, 0]

    def test_k_one_less_than_n(self):
        z = [4.0, 1.0, 9.0, 2.5]
        mask = select_frozen(z, 3)
        assert mask.tolist() == [0, 1, 0, 0]

    def test_ties_freeze_lower_index(self):
        mask = select_frozen([2.0, 2.0, 2.0, 2.0], 2)
        assert mask.tolist() == [1, 1, 0, 0]

    def test_deterministic(self):
        z = ga_reliabilities((2, 2, 3), 0.5, 3.0)
        a = select_frozen(z, 6)
        b = select_frozen(z, 6)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("z", ([[4.0, 1.0], [9.0, 2.5]], 3.0), ids=("2d", "scalar"))
    def test_rejects_reliabilities_that_are_not_1d(self, z):
        shape = np.shape(z)
        with pytest.raises(ValueError, match=re.escape(f"reliabilities must be 1-D, got shape {shape}")):
            select_frozen(z, 1)

    def test_rejects_nan(self):
        # argsort would rank a NaN as the most reliable index and unfreeze it.
        with pytest.raises(ValueError, match="must not be NaN"):
            select_frozen([1.0, float("nan"), 0.5], 1)

    @pytest.mark.parametrize("k_bits", [1.5, 2.0, True, "2"], ids=repr)
    def test_k_bits_must_be_an_integer(self, k_bits):
        # True would freeze 3 of 4 indices as a K of 1.
        with pytest.raises(ValueError, match=re.escape(f"k_bits {k_bits!r} is not an integer")) as info:
            select_frozen([4.0, 1.0, 9.0, 2.5], k_bits)
        assert "\n" not in str(info.value)
        assert select_frozen([4.0, 1.0, 9.0, 2.5], np.int64(3)).tolist() == [0, 1, 0, 0]


class TestOrderKernels:
    def test_last(self):
        assert order_kernels(5, 1, OrderingStrategy.LAST) == (2, 2, 2, 2, 2, 3)

    def test_first(self):
        assert order_kernels(5, 1, OrderingStrategy.FIRST) == (3, 2, 2, 2, 2, 2)

    def test_highest_reliability_two_candidates(self):
        got = order_kernels(1, 1, OrderingStrategy.HIGHEST_RELIABILITY, rate=0.5, ebn0_db=3.0)
        scores = {}
        for kv in [(2, 3), (3, 2)]:
            z = np.sort(ga_reliabilities(kv, 0.5, 3.0))
            scores[kv] = z[3:].sum()
        assert got == max(scores, key=scores.get)

    @pytest.mark.parametrize("n_two,n_three", [(1, 1), (2, 2), (4, 3)])
    def test_highest_reliability_ties_keep_first_combination(self, n_two, n_three):
        # K = round(0.001 * N) = 0 scores every arrangement 0.0; the first in
        # itertools.combinations order over the ternary positions wins.
        got = order_kernels(n_two, n_three, OrderingStrategy.HIGHEST_RELIABILITY, rate=0.001)
        assert got == (3,) * n_three + (2,) * n_two

    @pytest.mark.parametrize("n", (6, 18, 54, 96, 162, 432, 486, 768, 1296, 2304, 3888, 6912))
    def test_highest_reliability_evolves_every_arrangement_exactly(self, n):
        # The batched evolution yields every arrangement in combinations order with
        # the means of its own GA bit for bit, and the first best score wins.
        n_two, n_three = factor_length(n)
        slots = n_two + n_three
        arrangements = [
            tuple(3 if i in pos else 2 for i in range(slots))
            for pos in itertools.combinations(range(slots), n_three)
        ]
        for rate, ebn0_db in itertools.product((0.25, 0.5, 0.75), (-1.0, 2.0, 5.0)):
            evolved = list(_evolve_arrangements(n_two, n_three, rate, ebn0_db))
            assert [kv for kv, _ in evolved] == arrangements
            scores = []
            for kv, z in evolved:
                assert np.array_equal(z, ga_reliabilities(kv, rate, ebn0_db)), kv
                scores.append(np.sort(z)[n - round(rate * n) :].sum())
            best = arrangements[scores.index(max(scores))]
            assert order_kernels(n_two, n_three, OrderingStrategy.HIGHEST_RELIABILITY, rate, ebn0_db) == best

    def test_highest_reliability_pure_kernels(self):
        assert order_kernels(3, 0, OrderingStrategy.HIGHEST_RELIABILITY) == (2, 2, 2)
        assert order_kernels(0, 2, OrderingStrategy.HIGHEST_RELIABILITY) == (3, 3)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            order_kernels(0, 0, OrderingStrategy.LAST)

    @pytest.mark.parametrize("rate", ["0.5", True], ids=repr)
    def test_rate_is_taken_by_the_real_number_rule(self, rate):
        # a str rate once reached round("0.5" * N) and raised TypeError
        with pytest.raises(ValueError, match=f"^{re.escape(f'rate {rate!r} is not a real number')}$"):
            order_kernels(1, 1, OrderingStrategy.HIGHEST_RELIABILITY, rate=rate)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError, match=r"^unknown ordering strategy 'middle'$"):
            order_kernels(1, 1, "middle")

    @pytest.mark.parametrize(
        "args,complaint",
        [
            ((2.5, 1, OrderingStrategy.FIRST), "n_two 2.5 is not an integer"),
            ((2.0, 1, OrderingStrategy.FIRST), "n_two 2.0 is not an integer"),
            ((True, 1, OrderingStrategy.LAST), "n_two True is not an integer"),
            ((1, 1.0, OrderingStrategy.HIGHEST_RELIABILITY), "n_three 1.0 is not an integer"),
            ((1, False, OrderingStrategy.LAST), "n_three False is not an integer"),
        ],
        ids=("fractional_two", "float_two", "bool_two", "float_three", "bool_three"),
    )
    def test_counts_must_be_integers(self, args, complaint):
        with pytest.raises(ValueError, match=re.escape(complaint)) as info:
            order_kernels(*args)
        assert "\n" not in str(info.value)
        assert order_kernels(np.int64(1), np.uint8(1), OrderingStrategy.LAST) == (2, 3)


class TestCodeSpec:
    def test_design_code_basic(self):
        spec = design_code((2, 2, 2, 2, 2, 3), 48)
        assert spec.n_bits == 96
        assert spec.k_bits == 48
        assert int(spec.frozen.sum()) == 48
        assert len(spec.info_indices) == 48

    def test_construction_snr_changes_frozen_set(self):
        a = design_code((2, 2, 2, 2, 2, 3), 48, ebn0_db=0.0)
        b = design_code((2, 2, 2, 2, 2, 3), 48, ebn0_db=6.0)
        # different designs are expected at operating points this far apart
        assert not np.array_equal(a.frozen, b.frozen)

    def test_degenerate_rates(self):
        assert design_code((2, 3), 0).frozen.sum() == 6
        assert design_code((2, 3), 6).frozen.sum() == 0

    @pytest.mark.parametrize("kv", [(2, 3), (2, 2, 2, 2, 2, 3), (3, 3, 2, 2)])
    def test_ga_means_are_the_means_design_froze_by(self, kv):
        n = int(np.prod(kv))
        for k_bits in (1, n // 2, n - 1):
            spec = design_code(kv, k_bits, 1.5)
            z = ga_reliabilities(kv, k_bits / n, 1.5)
            assert spec.ga_means.dtype == z.dtype and spec.ga_means.tobytes() == z.tobytes()
            assert np.array_equal(spec.frozen, select_frozen(z, k_bits))
        # A code of K 0 or N runs no GA; a hand-built code has no design to record.
        assert design_code(kv, 0).ga_means is None and design_code(kv, n).ga_means is None
        assert CodeSpec.from_frozen_indices(n, n - 1, kv, [0]).ga_means is None
        with pytest.raises(TypeError):
            CodeSpec(n, n - 1, kv, spec.frozen, ga_means=z)

    def test_validation(self):
        with pytest.raises(ValueError):
            CodeSpec(n_bits=5, k_bits=2, kernels=(2, 3), frozen=np.zeros(5, dtype=np.uint8))

    def test_frozen_mask_of_wrong_length_rejected(self):
        with pytest.raises(ValueError, match=r"^frozen mask must have length 6$"):
            CodeSpec(6, 3, (2, 3), np.array([1, 1, 1, 0, 0], dtype=np.uint8))
        with pytest.raises(ValueError):
            CodeSpec(n_bits=6, k_bits=2, kernels=(2, 3), frozen=np.zeros(6, dtype=np.uint8))
        with pytest.raises(ValueError):
            CodeSpec(n_bits=6, k_bits=7, kernels=(2, 3), frozen=np.zeros(6, dtype=np.uint8))

    @pytest.mark.parametrize(
        "args,complaint",
        [
            ((6, 3, (2, 3), [0, 1, 9]), "frozen index 9 is outside 0..5"),
            ((6, 3, (2, 3), [-1, 0, 1]), "frozen index -1 is outside 0..5"),
            ((6, 3, (2, 3), [0, 1, 1]), "frozen index 1 is listed twice"),
            ((10**12, 2, (2, 2), [0, 1]), "N 1000000000000 != kernel product 4"),
            ((4, 5, (2, 2), [0, 1]), "K 5 is outside 0..4"),
            ((4, -1, (2, 2), [0, 1]), "K -1 is outside 0..4"),
            ((4, 3, (2, 2), [0, 1]), "frozen mask weight 2 != N - K = 1"),
            ((6, 3, (2, 5), [0, 1, 2]), "kernel size 5 is outside 2..3"),
            ((1, 1, (), []), "kernel vector must be nonempty"),
            ((6, 3, (2, 3), [0, 1, 2.5]), "frozen index 2.5 is not an integer"),
            ((6, 3, (2, 3), [True, 2, 3]), "frozen index True is not an integer"),
        ],
        ids=("index_above", "index_negative", "index_twice", "n", "k_above", "k_negative",
             "weight", "kernel", "no_kernels", "index_fractional", "index_bool"),
    )
    def test_from_frozen_indices_messages(self, args, complaint):
        with pytest.raises(ValueError, match=re.escape(complaint)) as info:
            CodeSpec.from_frozen_indices(*args)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("kv,k", [((2, 3), 3), ((2, 2, 2, 2, 2, 3), 48), ((3, 3, 2), 0), ((3, 2), 6)])
    def test_from_frozen_indices_equals_mask_constructor(self, rng, kv, k):
        spec = design_code(kv, k)
        built = CodeSpec.from_frozen_indices(spec.n_bits, k, kv, rng.permutation(spec.frozen_indices))
        assert (built.n_bits, built.k_bits, built.kernels) == (spec.n_bits, spec.k_bits, spec.kernels)
        assert built.frozen.dtype == np.uint8 and np.array_equal(built.frozen, spec.frozen)

    def test_construct_code_orderings(self):
        last = construct_code(96, 48, OrderingStrategy.LAST)
        first = construct_code(96, 48, OrderingStrategy.FIRST)
        assert last.kernels == (2, 2, 2, 2, 2, 3)
        assert first.kernels == (3, 2, 2, 2, 2, 2)

    @pytest.mark.parametrize("n", [n for n in range(2, 6913) if is_valid_length(n)])
    def test_highest_reliability_runs_ga_once(self, monkeypatch, n):
        # construct_code freezes by the means its ordering evolved, so it makes no
        # ga_reliabilities call, and it designs what design_code would on the
        # chosen kernels: over R in 1/8..7/8 x Eb/N0 in linspace(-2, 7, 7) dB.
        calls = []
        ga = construction.ga_reliabilities

        def counted(*args):
            calls.append(args)
            return ga(*args)

        monkeypatch.setattr(construction, "ga_reliabilities", counted)
        n_two, n_three = factor_length(n)
        for rate, ebn0_db in itertools.product([i / 8 for i in range(1, 8)], np.linspace(-2, 7, 7)):
            k_bits = round(rate * n)
            spec = construct_code(n, k_bits, OrderingStrategy.HIGHEST_RELIABILITY, ebn0_db)
            assert calls == []
            ordering_rate = k_bits / n if 0 < k_bits < n else 0.5
            kv = order_kernels(n_two, n_three, OrderingStrategy.HIGHEST_RELIABILITY, ordering_rate, ebn0_db)
            expected = design_code(kv, k_bits, ebn0_db)
            calls.clear()
            assert (spec.n_bits, spec.k_bits, spec.kernels, spec.design_ebn0_db) == (
                expected.n_bits, expected.k_bits, expected.kernels, expected.design_ebn0_db)
            assert spec.frozen.dtype == np.uint8 and np.array_equal(spec.frozen, expected.frozen)
            assert (spec.ga_means is expected.ga_means is None) or np.array_equal(spec.ga_means, expected.ga_means)

    @pytest.mark.parametrize(
        "mask,complaint",
        [([2, 0, 0, 0, 0, 1], "frozen mask entry [0] is 2, not 0 or 1"),
         (np.array([-1, 1, 1, 0, 0, 0]), "frozen mask entry [0] is -1, not 0 or 1"),
         ([1, 1, 1, 0.5, 0.5, 0], "frozen mask entry [3] is 0.5, not 0 or 1")],
        ids=("mask0", "mask1", "mask2"),
    )
    def test_mask_entries_must_be_binary(self, mask, complaint):
        # Checked before the cast to uint8, which would make -1 a 255 and 0.5 a 0.
        with pytest.raises(ValueError, match=re.escape(complaint)):
            CodeSpec(6, 3, (2, 3), mask)

    @pytest.mark.parametrize(
        "call,complaint",
        [
            (lambda: CodeSpec(6, 3.0, (2, 3), [1, 1, 1, 0, 0, 0]), "K 3.0 is not an integer"),
            (lambda: CodeSpec(6.0, 3, (2, 3), [1, 1, 1, 0, 0, 0]), "N 6.0 is not an integer"),
            (lambda: CodeSpec(6, True, (2, 3), [1, 1, 1, 1, 1, 0]), "K True is not an integer"),
            (lambda: CodeSpec.from_frozen_indices(6, np.True_, (2, 3), [0, 1, 2, 3, 4]),
             "K np.True_ is not an integer"),
            (lambda: construct_code(96, True), "K True is not an integer"),
            (lambda: construct_code(96.5, 48), "N 96.5 is not an integer"),
            (lambda: construct_code(96.0, 48), "N 96.0 is not an integer"),
            (lambda: construct_code(96, 48.5), "K 48.5 is not an integer"),
            (lambda: design_code((2, 3), 3.0), "K 3.0 is not an integer"),
            (lambda: design_code((2, 3), False), "K False is not an integer"),
        ],
        ids=("spec_float_k", "spec_float_n", "spec_bool_k", "indices_numpy_bool_k", "construct_bool_k",
             "construct_fractional_n", "construct_float_n", "construct_float_k", "design_float_k",
             "design_bool_k"),
    )
    def test_n_and_k_must_be_integers(self, call, complaint):
        with pytest.raises(ValueError, match=re.escape(complaint)) as info:
            call()
        assert "\n" not in str(info.value)

    def test_numpy_integer_n_and_k_are_stored_as_ints(self):
        spec = construct_code(np.int64(96), np.uint16(48))
        assert (spec.n_bits, spec.k_bits) == (96, 48)
        assert type(spec.n_bits) is int and type(spec.k_bits) is int
        assert type(design_code((2, 3), np.int32(3)).k_bits) is int

    def test_construct_code_rejects_bad_length(self):
        with pytest.raises(ValueError, match="96 and 108"):
            construct_code(100, 50)


@given(st.floats(0.05, 25.0))
@settings(max_examples=60, deadline=None)
def test_phi_roundtrip_property(x):
    assert _phi_inv(_phi(np.array([x])))[0] == pytest.approx(x, rel=0.05, abs=1e-3)
