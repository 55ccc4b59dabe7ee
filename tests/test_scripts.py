"""The experiment scripts run end to end on a small code."""

import csv
import json
import platform
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from mkpolar.analysis import latency_table, table2_specs
from mkpolar.cli import FER_FIELDS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script,extra,outputs",
    [
        ("fer_sweep.py", ["--k", "48"],
         ["fer_N96_K48_last_sc.csv", "fer_N96_K48_last_fastssc.csv"]),
        ("kernel_order_compare.py", ["--rates", "0.5"],
         ["fer_N96_K48_last.csv", "fer_N96_K48_first.csv"]),
    ],
)
def test_script_writes_one_row_per_snr(tmp_path, monkeypatch, capsys, script, extra, outputs):
    prefix = tmp_path / "fer"
    argv = [script, "--n", "96", "--snr", "3", "--max-frames", "64", "--prefix", str(prefix)]
    monkeypatch.setattr(sys, "argv", argv + extra)
    runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert "3.00" in capsys.readouterr().out
    for name in outputs:
        header, row = (tmp_path / name).read_text().strip().splitlines()
        assert header == ",".join(FER_FIELDS)
        assert row.split(",")[:2] == ["3", "64"]


def test_output_digest_quick_prints_both_digests(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["output_digest.py", "--quick"])
    runpy.run_path(str(SCRIPTS / "output_digest.py"), run_name="__main__")
    decode, decode32, sim, front_end = capsys.readouterr().out.splitlines()
    # Any bit-level change to decoding or to the random stream changes these.
    assert decode == ("decode 1 codes x 3 decoders x 3 frames sha256 "
                      "ef72196650285d8487018d430b1b0abac29525dfc12926afcd598c21f3e8503d")
    # The float32 frames decide as the float64 ones do, so their outputs hash alike.
    assert decode32 == ("decode float32 1 codes x 3 decoders x 3 frames sha256 "
                        "ef72196650285d8487018d430b1b0abac29525dfc12926afcd598c21f3e8503d")
    assert sim == "run_fer 1 runs sha256 e07025834ace320010a796036473028d4b0161d550cd192985933ff40b4bb2de"
    # Any change to what `analyze --table2` prints at its default flags, or to a schedule, changes this.
    assert front_end == ("front-end 1 reports x 1 formats, 1 schedules sha256 "
                         "a9cbeb4cec463df53a1abcb458b90523cafd70d2af4dce6d4324857fd35983a9")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_wallclock_table2_reports_every_reference_code(tmp_path, monkeypatch, fmt):
    # Format only: under --quick the times are noise, and timing is never a gate.
    out = tmp_path / f"wallclock.{fmt}"
    argv = ["wallclock_table2.py", "--quick", "--format", fmt, "--out", str(out)]
    monkeypatch.setattr(sys, "argv", argv)
    module = runpy.run_path(str(SCRIPTS / "wallclock_table2.py"), run_name="__main__")
    text = out.read_text()
    rows = list(csv.DictReader(text.splitlines())) if fmt == "csv" else json.loads(text)
    assert all(list(row) == list(module["FIELDS"]) for row in rows)
    counts = latency_table(table2_specs())
    assert [(int(r["N"]), float(r["R"]), r["ordering"], float(r["reduction_pct"])) for r in rows] == [
        (c["N"], c["R"], c["ordering"], c["reduction_pct"]) for c in counts]
    for row in rows:
        times = [float(row[f"{d}_{t}"]) for d in ("sc", "fastssc") for t in ("p50_us", "p90_us", "batch_us_per_frame")]
        assert all(t > 0 for t in times)
        assert float(row["measured_pct"]) == round(100 * (1 - times[3] / times[0]), 1)
        assert row["python"] == platform.python_version() and row["numpy"] == np.__version__
        assert row["host"] and row["commit"]
