"""The experiment scripts run end to end on a small code."""

import re
import runpy
import sys
from pathlib import Path

import pytest

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
    decode, sim = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"decode 1 codes x 3 decoders x 3 frames sha256 [0-9a-f]{64}", decode)
    assert re.fullmatch(r"run_fer 1 runs sha256 [0-9a-f]{64}", sim)
