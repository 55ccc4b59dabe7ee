"""Tests of the benchmark itself: each output check catches a wrong result,
tracing is removed after use and reports missing names, and BENCHMARK.json
lists exactly the metrics the benchmark prints.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import mkpolar  # noqa: E402
from layers import PER_LAYER, count_mismatches, layer_metrics  # noqa: E402
from measure import Run  # noqa: E402
from run import END_TO_END  # noqa: E402
from spans import SPANS, Tracer  # noqa: E402
from workloads import WORKLOADS, DesignWorkload  # noqa: E402


def _run(name, rounds, seed=3, tracer=None):
    wl = WORKLOADS[name]
    state = wl.setup()
    wl.prepare(state, seed)
    run = Run(wl, state, tracer)
    for index in range(rounds):
        run.run_round(index)
    return run, run.finish()


def _flip_last_bit(decode_batch):
    def broken(self, llrs):
        u, x = decode_batch(self, llrs)
        u[:, -1] ^= 1
        return u, x

    return broken


def test_sim_checks_pass_on_program_and_catch_broken_decoder(monkeypatch):
    run, _ = _run("sim-short", 4)
    assert run.attempted == 8 and sum(run.failed.values()) == 0
    monkeypatch.setattr(
        mkpolar.FastSSCDecoder, "decode_batch", _flip_last_bit(mkpolar.FastSSCDecoder.decode_batch)
    )
    run, detail = _run("sim-short", 4)
    assert run.failed == {"fastssc": 4, "sc": 0}
    assert detail["fer"]["fastssc"]["fer"] == 1.0


def test_sim_check_catches_wrong_frame_count(monkeypatch):
    real = mkpolar.run_fer

    def short(spec, **kwargs):
        kwargs["stop"] = mkpolar.StopRule(max_frames=512, min_frame_errors=10**9)
        return real(spec, **kwargs)

    monkeypatch.setattr(mkpolar, "run_fer", short)
    run, _ = _run("sim-short", 2)
    assert run.failed == {"fastssc": 2, "sc": 2}


def test_operation_that_raises_is_counted_as_failed(monkeypatch):
    def broken(spec, **kwargs):
        raise RuntimeError("decoder exploded")

    monkeypatch.setattr(mkpolar, "run_fer", broken)
    run, _ = _run("sim-short", 2)
    assert run.failed == {"fastssc": 2, "sc": 2}
    assert "decoder exploded" in run.errors[0]


def test_sim_fer_interval_rejects_small_fer_shift():
    wl = WORKLOADS["sim-short"]
    ref = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    p = ref["fer"]["sim-short"]["sc"]["fer"]
    lo, hi = wl.fer_interval("sc", 200 * 1024)
    assert lo < p < hi
    assert hi < 1.2 * p and lo > 0.8 * p


def test_decode_check_catches_wrong_bit(monkeypatch):
    run, _ = _run("decode-latency", 2)
    assert run.attempted == 32 and sum(run.failed.values()) == 0
    monkeypatch.setattr(mkpolar.SCDecoder, "decode_batch", _flip_last_bit(mkpolar.SCDecoder.decode_batch))
    run, _ = _run("decode-latency", 2)
    assert run.failed == {"fastssc": 0, "sc": 16}


def _design_ops():
    wl = DesignWorkload()
    state = wl.setup()
    wl.prepare(state, 0)
    return wl.round(state, 0)


def test_design_check_catches_wrong_node_counts(monkeypatch):
    real = mkpolar.schedule_stats

    def off_by_one(sched, kv=None):
        counts = real(sched, kv)
        return type(counts)(**{**counts.__dict__, "fast_nodes": counts.fast_nodes + 1})

    ops = _design_ops()
    assert all(op.check(op.call()) for op in ops)
    monkeypatch.setattr(mkpolar, "schedule_stats", off_by_one)
    failed = [op.phase for op in ops if not op.check(op.call())]
    assert failed == ["fastssc"] * 36  # every code, highest_reliability too


def test_design_check_catches_wrong_frozen_set(monkeypatch):
    real = mkpolar.construct_code

    def swapped(*args, **kwargs):
        # Freeze the most reliable position and unfreeze a frozen one: the
        # kernels, and so the SC node count, are unchanged.
        spec = real(*args, **kwargs)
        frozen = spec.frozen.copy()
        frozen[[np.flatnonzero(frozen)[0], spec.info_indices[-1]]] ^= 1
        return type(spec)(spec.n_bits, spec.k_bits, spec.kernels, frozen)

    monkeypatch.setattr(mkpolar, "construct_code", swapped)
    ops = _design_ops()
    assert not any(op.check(op.call()) for op in ops)
    assert len(ops) == 72


def test_p90_is_taken_per_kind_and_summed():
    run = Run(WORKLOADS["design"], None)
    for phase in ("fastssc", "sc"):
        run.latency[phase] = [i / 1e3 for i in range(1, 11)] + [i / 1e3 for i in range(101, 111)]
        run.kinds[phase] = ["a"] * 10 + ["b"] * 10
    m = run.end_to_end([1.0])
    # p90 of 1..10 is 9.1, of 101..110 is 109.1; pooled it would be 109.1.
    assert m["fastssc.p90_ms"] == pytest.approx(9.1 + 109.1)


def test_tracer_restores_every_name_and_reports_missing():
    originals = {}
    for target, _ in SPANS:
        module, _, path = target.partition(":")
        owner = sys.modules[module]
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name)
        originals[target] = (owner, attr, getattr(owner, attr))
    spans = SPANS + (("mkpolar.fast_ssc:no_such_name", "x"), ("mkpolar.nowhere:f", "y"))
    with Tracer(spans) as tracer:
        assert mkpolar.sc.f_op is not originals["mkpolar.sc:f_op"][2]
    assert tracer.missing == ["mkpolar.fast_ssc:no_such_name", "mkpolar.nowhere:f"]
    for owner, attr, fn in originals.values():
        assert getattr(owner, attr) is fn


def test_traced_counts_match_schedule_and_catch_extra_step(monkeypatch):
    codes = [WORKLOADS["decode-latency"].setup().spec]
    with Tracer() as tracer:
        _run("decode-latency", 2, tracer=tracer)
    assert count_mismatches(tracer, codes) == []
    metrics = layer_metrics(tracer, {"fastssc": 16, "sc": 16}, codes, 0.0, [])
    assert list(metrics) == [name for name, _ in PER_LAYER]
    assert metrics["sc.sc.f_calls"] > 0 and metrics["fastssc.fast_ssc.spc_calls"] == 21

    with Tracer() as tracer:
        wrapped = mkpolar.fast_ssc.decode_spc

        def twice(alpha, kv_sub):
            wrapped(alpha, kv_sub)
            return wrapped(alpha, kv_sub)

        monkeypatch.setattr(mkpolar.fast_ssc, "decode_spc", twice)
        _run("decode-latency", 1, tracer=tracer)
        monkeypatch.undo()
    assert [m[0] for m in count_mismatches(tracer, codes)] == ["fast_ssc.spc", "kernels.leaf_inverse"]


def test_benchmark_json_lists_printed_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_fails_without_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-short", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decode-latency", "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [n for n, _ in (PER_LAYER if trace else END_TO_END)]
    assert list(result["metrics"]) == names
    assert report["report"]["seed"] == 5 and report["report"]["traced"] == bool(trace)
    if trace:
        assert result["metrics"]["trace.missing_spans"]["value"] == 0
        assert result["metrics"]["trace.count_mismatches"]["value"] == 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert np.isfinite([m["value"] for m in result["metrics"].values()]).all()
