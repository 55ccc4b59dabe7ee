import re

import numpy as np
import pytest
from hypothesis import given, settings

from mkpolar.analysis import (
    latency_table,
    ordering_label,
    sc_node_count,
    schedule_stats,
    sweep_fixed_k,
    sweep_fixed_n,
    table2_specs,
)
from mkpolar.construction import construct_code, design_code
from mkpolar.fast_ssc import build_schedule
from mkpolar.kernels import factor_length

from conftest import arbitrary_specs, spec_with_frozen

# Reference SC operation counts for ternary-last / ternary-first orderings.
SC_REFERENCE = {96: (158, 189), 432: (654, 849), 768: (1278, 1533), 2304: (3582, 4602)}


class TestScNodeCount:
    def test_small(self):
        assert sc_node_count((2, 3)) == 8

    @pytest.mark.parametrize("n,expected", sorted(SC_REFERENCE.items()), ids=str)
    def test_reference_counts(self, n, expected):
        n2, n3 = factor_length(n)
        last = (2,) * n2 + (3,) * n3
        first = (3,) * n3 + (2,) * n2
        assert sc_node_count(last) == expected[0]
        assert sc_node_count(first) == expected[1]


class TestScheduleStats:
    def test_reference_96_quarter_rate(self):
        spec = design_code((2, 2, 2, 2, 2, 3), 24)
        counts = schedule_stats(build_schedule(spec))
        assert counts.sc_nodes == 158
        assert counts.fast_nodes == 37
        assert counts.reduction_pct == pytest.approx(76.6, abs=0.05)

    def test_reduction_arithmetic(self):
        spec = design_code((2, 2, 2, 2, 2, 3), 24)
        counts = schedule_stats(build_schedule(spec))
        assert counts.reduction_pct == pytest.approx(100 * (1 - 37 / 158), abs=1e-9)

    def test_fully_frozen_degenerate(self):
        spec = spec_with_frozen((2, 3), np.ones(6, dtype=np.uint8))
        counts = schedule_stats(build_schedule(spec))
        assert counts.fast_nodes == 1
        assert counts.reduction_pct == pytest.approx(100 * (1 - 1 / 8))

    def test_fast_never_exceeds_sc(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            frozen = rng.integers(0, 2, 36, dtype=np.uint8)
            spec = spec_with_frozen((3, 2, 2, 3), frozen)
            counts = schedule_stats(build_schedule(spec))
            assert counts.fast_nodes <= counts.sc_nodes

    @given(arbitrary_specs())
    @settings(max_examples=60, deadline=None)
    def test_fast_never_exceeds_sc_property(self, spec):
        counts = schedule_stats(build_schedule(spec))
        assert 1 <= counts.fast_nodes <= counts.sc_nodes


class TestLatencyTable:
    def test_empty(self):
        assert latency_table([]) == []

    def test_table2_has_24_rows(self):
        rows = latency_table(table2_specs())
        assert len(rows) == 24
        assert {row["ordering"] for row in rows} == {"last", "first"}
        assert {row["N"] for row in rows} == {96, 432, 768, 2304}
        for row in rows:
            assert row["reduction_pct"] >= 72.0

    def test_row_fields(self):
        row = latency_table([construct_code(96, 48)])[0]
        assert list(row) == [
            "N", "R", "ordering", "sc_nodes", "fast_nodes",
            "r0", "r1", "spc", "rep2", "rep3a", "rep3b", "rep3c", "reduction_pct",
        ]

    def test_ordering_label(self):
        assert ordering_label((2, 2, 3)) == "last"
        assert ordering_label((3, 2, 2)) == "first"
        assert ordering_label((2, 3, 2)) == "mixed"
        assert ordering_label((2, 2)) == "last"


class TestSweeps:
    def test_fixed_n_rows(self):
        rows = sweep_fixed_n(768)
        assert len(rows) == 14
        assert {row["N"] for row in rows} == {768}
        ks = {round(row["R"] * 768) for row in rows}
        assert ks == {round(768 * i / 8) for i in range(1, 8)}

    @pytest.mark.parametrize("n_bits, complaint", [("96", "N '96' is not an integer"),
                                                   (96.0, "N 96.0 is not an integer"),
                                                   (True, "N True is not an integer"),
                                                   (1, "N 1 is outside 2..65536")])
    def test_fixed_n_takes_n_by_the_integer_rule(self, n_bits, complaint):
        # a str N once reached n_bits * rate and ended in a TypeError
        with pytest.raises(ValueError, match=f"^{re.escape(complaint)}$"):
            sweep_fixed_n(n_bits, rates=(0.5,))

    def test_fixed_k_rows(self):
        rows = sweep_fixed_k(164)
        assert len(rows) == 14
        for row in rows:
            n = row["N"]
            factor_length(n)  # every emitted length is supported
            assert n > 164
            assert row["R"] == pytest.approx(164 / n)
