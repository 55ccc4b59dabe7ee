import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mkpolar
from mkpolar import channel, cli, construction
from mkpolar.construction import construct_code
from mkpolar.encoding import encode_message

from conftest import arbitrary_specs


def run_cli(args):
    return cli.main(args)


def run_cli_stderr(args):
    """(exit status, stderr) of cli.main without pytest fixtures, for use under @given."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        status = cli.main(args)
    return status, err.getvalue()


def exits_cleanly(status, err):
    """Success with nothing on stderr, or exit status 2 with exactly one line on stderr."""
    return (status == 0 and err == "") or (status == 2 and err.count("\n") == 1 and err.endswith("\n"))


SPEC_VALUES = st.one_of(
    st.integers(-3, 40).map(str),
    st.sampled_from([str(2**60), "", "2,3", "3,2,2", ",", "1.5", "1e3"]),
    st.lists(st.integers(-2, 14), max_size=7).map(lambda v: ",".join(map(str, v))),
    st.text(max_size=6),
)
SPEC_LINES = st.builds(
    "{} {}".format, st.sampled_from(["N", "K", "kernels", "frozen", "#", "note"]), SPEC_VALUES
)


@st.composite
def spec_file_texts(draw):
    """Spec file text near a valid one: N, K or a frozen index may be off, and up to
    three lines are replaced, dropped or added."""
    kv = draw(st.lists(st.sampled_from("23"), min_size=1, max_size=3))
    n = math.prod(map(int, kv))
    frozen = draw(st.one_of(st.lists(st.integers(0, n - 1), unique=True, max_size=n),
                            st.lists(st.integers(-1, n), max_size=n)))
    k = n - len(frozen) + draw(st.sampled_from([0, 0, 1, -1]))
    lines = [f"N {draw(st.sampled_from([n, n, n + 1, -n, 2**60]))}", f"K {k}", "kernels " + ",".join(kv),
             "frozen " + ",".join(map(str, frozen))]
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines)))
        lines[i : i + 1] = draw(st.lists(SPEC_LINES, max_size=2))
    return "\n".join(lines)


LLR_TOKENS = st.one_of(
    st.floats().map(repr),
    st.integers(-9, 9).map(str),
    st.sampled_from(["nan", "-inf", "1e999", "-1e-400", "1_0", ",", "0x1"]),
)
LLR_FILES = st.one_of(
    st.lists(LLR_TOKENS, min_size=6, max_size=6).map(" ".join).map(str.encode),
    st.lists(LLR_TOKENS, max_size=8).map(",".join).map(str.encode),
    st.text(max_size=20).map(str.encode),
    st.binary(max_size=24),
)


class TestSpecFiles:
    def test_roundtrip(self, tmp_path):
        spec = construct_code(96, 48)
        path = tmp_path / "code.spec"
        cli.save_code_spec(spec, path)
        loaded = cli.load_code_spec(path)
        assert loaded.n_bits == 96
        assert loaded.k_bits == 48
        assert loaded.kernels == spec.kernels
        assert np.array_equal(loaded.frozen, spec.frozen)
        assert spec.ga_means is not None and loaded.ga_means is None  # a spec file holds no means

    @given(arbitrary_specs())
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_any_spec(self, spec):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "code.spec"
            cli.save_code_spec(spec, path)
            loaded = cli.load_code_spec(path)
        assert (loaded.n_bits, loaded.k_bits, loaded.kernels) == (spec.n_bits, spec.k_bits, spec.kernels)
        assert np.array_equal(loaded.frozen, spec.frozen)

    def test_repeated_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "twice.spec"
        path.write_text("N 6\nK 3\nK 4\nkernels 2,3\nfrozen 0,1\n")
        assert run_cli(["schedule-export", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"mkpolar schedule-export: code spec file {path}: K is given twice"]

    @given(st.one_of(spec_file_texts().map(str.encode), st.binary(max_size=40)))
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_spec_file_loads_or_fails_in_one_line(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.spec"
            path.write_bytes(data)
            status, err = run_cli_stderr(["schedule-export", "--spec", str(path)])
        assert exits_cleanly(status, err), (status, err)

    def test_malformed_raises(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("N 6\nkernels 2,3\n")
        with pytest.raises(cli.CommandError):
            cli.load_code_spec(path)

    @pytest.mark.parametrize(
        "frozen,complaint",
        [("-1,0,1", "index -1 is outside 0..5"), ("0,1,9", "index 9 is outside 0..5"),
         ("0,1,1", "index 1 is listed twice")],
        ids=("negative", "out_of_range", "duplicate"),
    )
    def test_bad_frozen_index_rejected(self, tmp_path, capsys, frozen, complaint):
        path = tmp_path / "bad.spec"
        path.write_text(f"N 6\nK 3\nkernels 2,3\nfrozen {frozen}\n")
        with pytest.raises(cli.CommandError, match=complaint):
            cli.load_code_spec(path)
        assert run_cli(["encode", "--spec", str(path), "--message", "101"]) == 2
        err = capsys.readouterr().err
        assert complaint in err and len(err.strip().splitlines()) == 1


    @pytest.mark.parametrize("kernels", ["2.5,3", "2.0,3", "2,x"])
    def test_non_integer_kernels_rejected(self, tmp_path, capsys, kernels):
        # Kernel text is parsed by int(), like N, K and the frozen indices.
        path = tmp_path / "bad.spec"
        path.write_text(f"N 6\nK 3\nkernels {kernels}\nfrozen 0,1,2\n")
        for argv in (["encode", "--spec", str(path), "--message", "101"],
                     ["encode", "--kernels", kernels, "--k", "3", "--message", "101"]):
            assert run_cli(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and len(captured.err.strip().splitlines()) == 1
            assert "invalid literal for int()" in captured.err

    @pytest.mark.parametrize(
        "header,complaint",
        [("N 1000000000000\nK 2", "N 1000000000000 != kernel product 4"),
         ("N -4\nK 2", "N -4 != kernel product 4"),
         ("N 4\nK 5", "K 5 is outside 0..4"), ("N 4\nK -1", "K -1 is outside 0..4")],
        ids=("huge_n", "negative_n", "k_above_n", "negative_k"),
    )
    def test_length_checked_against_kernels_first(self, tmp_path, capsys, header, complaint):
        path = tmp_path / "bad.spec"
        path.write_text(f"{header}\nkernels 2,2\nfrozen 0,1\n")
        assert run_cli(["encode", "--spec", str(path), "--message", "10"]) == 2
        err = capsys.readouterr().err
        assert complaint in err and len(err.strip().splitlines()) == 1


class TestConstruct:
    @pytest.mark.parametrize("k", ["0", "6"])
    def test_failure_writes_nothing(self, tmp_path, capsys, k):
        outdir = tmp_path / "D"
        for code in (["--kernels", "2,3"], ["--n", "6"]):
            assert run_cli(["construct", *code, "--k", k, "--out", str(outdir)]) == 2
            err = capsys.readouterr().err
            assert "rate must be in (0, 1)" in err and f"K={k}" in err and err.count("\n") == 1
            assert not outdir.exists()

    def test_writes_spec_and_reliability(self, tmp_path):
        assert run_cli(["construct", "--n", "96", "--k", "48", "--order", "last",
                        "--ebn0", "3.0", "--out", str(tmp_path)]) == 0
        spec_file = tmp_path / "pc_N96_K48_last.spec"
        rel_file = tmp_path / "pc_N96_K48_last_reliability.csv"
        assert spec_file.exists() and rel_file.exists()
        loaded = cli.load_code_spec(spec_file)
        assert loaded.frozen.sum() == 48
        header, *rows = rel_file.read_text().strip().splitlines()
        assert header == "index,ga_mean,frozen"
        assert len(rows) == 96

    @pytest.mark.parametrize(
        "code_args",
        [["--n", "96", "--k", "48", "--order", "last"], ["--n", "432", "--k", "216", "--order", "hr"],
         ["--kernels", "3,2", "--k", "3"]],
        ids=("last", "hr", "kernels"),
    )
    def test_one_ga_per_construct(self, tmp_path, monkeypatch, code_args):
        # Every GA run, a ga_reliabilities call or a highest-reliability evolution,
        # starts from one initial mean; the report lists the means the design froze by.
        runs = []
        initial_mean = construction._initial_mean
        monkeypatch.setattr(construction, "_initial_mean", lambda *a: runs.append(a) or initial_mean(*a))
        assert run_cli(["construct", *code_args, "--out", str(tmp_path)]) == 0
        assert len(runs) == 1
        (spec_file,) = tmp_path.glob("*.spec")
        spec = cli.load_code_spec(spec_file)
        _, *rows = (tmp_path / f"{spec_file.stem}_reliability.csv").read_text().splitlines()
        z = construction.ga_reliabilities(spec.kernels, spec.rate, 3.0)
        assert rows == [f"{i},{float(z[i]):.10g},{spec.frozen[i]}" for i in range(spec.n_bits)]

    def test_env_var_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MKPOLAR_OUTDIR", str(tmp_path))
        assert run_cli(["construct", "--n", "6", "--k", "3"]) == 0
        assert (tmp_path / "pc_N6_K3_last.spec").exists()

    def test_invalid_length_names_neighbors(self, capsys):
        assert run_cli(["construct", "--n", "100", "--k", "50"]) == 2
        err = capsys.readouterr().err
        assert "96" in err and "108" in err

    def test_k_out_of_range(self, capsys):
        assert run_cli(["construct", "--n", "96", "--k", "96"]) == 2
        assert "K" in capsys.readouterr().err

    def test_explicit_kernel_vector(self, tmp_path):
        assert run_cli(["construct", "--kernels", "3,2,2", "--k", "6", "--out", str(tmp_path)]) == 0
        loaded = cli.load_code_spec(tmp_path / "pc_N12_K6_first.spec")
        assert loaded.kernels == (3, 2, 2)

    def test_bad_kernel_vector_rejected(self, capsys):
        assert run_cli(["construct", "--kernels", "2,5", "--k", "3"]) == 2
        assert "kernel" in capsys.readouterr().err


# Code lengths above MAX_CODE_LENGTH. Each case below ran out of memory (SIGKILL
# or a numpy _ArrayMemoryError) or, for a length that is no product of 2s and
# 3s, searched for the nearest supported lengths without end, before the cap.
HUGE_N = 2**60
HUGE_KERNELS = ",".join(["2"] * 60)


def run_capped(code, *argv):
    """Run Python code in a child limited to 2 GB of address space, so a
    regression fails with MemoryError instead of exhausting the machine."""
    limit = "import resource; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
    env = {**os.environ, "PYTHONPATH": str(Path(mkpolar.__file__).parents[1])}
    return subprocess.run(
        [sys.executable, "-c", limit + code, *argv], capture_output=True, text=True, timeout=60, env=env
    )


class TestCodeLengthCap:
    @pytest.mark.parametrize(
        "argv",
        [
            ["construct", "--n", str(HUGE_N), "--k", "5", "--out", "{tmp}"],
            ["construct", "--n", str(HUGE_N), "--k", "5", "--order", "hr", "--out", "{tmp}"],
            ["construct", "--n", str(10**18 + 1), "--k", "5", "--out", "{tmp}"],
            ["simulate", "--kernels", HUGE_KERNELS, "--k", "5", "--snr", "1"],
            ["encode", "--spec", "{tmp}/huge.spec", "--message", "0"],
            ["analyze", "--sweep-k", str(10**18)],
        ],
        ids=("construct", "construct_hr", "construct_unsupported", "simulate", "encode_spec", "sweep_k"),
    )
    def test_cli_exits_2_with_one_line(self, tmp_path, argv):
        (tmp_path / "huge.spec").write_text(f"N {HUGE_N}\nK {HUGE_N}\nkernels {HUGE_KERNELS}\n")
        main = "import sys; from mkpolar.cli import main; sys.exit(main(sys.argv[1:]))"
        result = run_capped(main, *(a.format(tmp=tmp_path) for a in argv))
        assert result.returncode == 2, result.stderr
        # the largest K of a fixed-K sweep is one below the longest code
        cap = f"K {10**18} is outside 1..65535" if argv[0] == "analyze" else "65536"
        assert len(result.stderr.strip().splitlines()) == 1 and cap in result.stderr

    @pytest.mark.parametrize(
        "call",
        [
            "CodeSpec(n_bits=2**60, k_bits=2**60, kernels=(2,) * 60, frozen=[])",
            "design_code((2,) * 60, 5)",
            "ga_reliabilities((2,) * 60, 0.5, 1.0)",
            "order_kernels(60, 0, OrderingStrategy.HIGHEST_RELIABILITY)",
            "order_kernels(0, 38, OrderingStrategy.FIRST)",
            "CodeSpec.from_frozen_indices(2**60, 5, (2,) * 60, [2**61])",
        ],
    )
    def test_library_raises_before_allocating(self, call):
        # a kernel count is bounded by the 16 stages of the longest code
        complaint = {
            "order_kernels(60, 0, OrderingStrategy.HIGHEST_RELIABILITY)": "n_two 60 is outside 0..16",
            "order_kernels(0, 38, OrderingStrategy.FIRST)": "n_three 38 is outside 0..16",
        }.get(call, "above the maximum of 65536")
        code = (
            "from mkpolar.construction import (\n"
            "    CodeSpec, OrderingStrategy, design_code, ga_reliabilities, order_kernels)\n"
            "try:\n"
            f"    {call}\n"
            "except ValueError as exc:\n"
            "    print(exc)\n"
        )
        result = run_capped(code)
        assert result.returncode == 0, result.stderr
        assert complaint in result.stdout

    def test_longest_code_is_accepted(self):
        assert mkpolar.kernels.MAX_CODE_LENGTH == 2**16
        assert mkpolar.kernels.validate_kernel_vector((2,) * 16) == (2,) * 16
        with pytest.raises(ValueError, match="above the maximum"):
            mkpolar.kernels.validate_kernel_vector((2,) * 15 + (3,))


class TestEncodeDecode:
    def test_roundtrip_via_files(self, tmp_path, capsys):
        assert run_cli(["construct", "--n", "12", "--k", "6", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        spec_file = str(tmp_path / "pc_N12_K6_last.spec")
        message = "101101"
        assert run_cli(["encode", "--spec", spec_file, "--message", message]) == 0
        codeword = capsys.readouterr().out.strip().splitlines()[-1]
        assert len(codeword) == 12

        llrs = " ".join("4.0" if b == "0" else "-4.0" for b in codeword)
        llr_file = tmp_path / "llrs.txt"
        llr_file.write_text(llrs)
        for decoder in ("sc", "fastssc"):
            assert run_cli(["decode", "--spec", spec_file, "--llrs", str(llr_file),
                            "--decoder", decoder]) == 0
            out = dict(line.split(" ", 1) for line in capsys.readouterr().out.strip().splitlines())
            assert out["info"] == message
            assert out["x_hat"] == codeword

    def test_encode_matches_library(self, tmp_path, capsys):
        spec = construct_code(6, 3)
        path = tmp_path / "c.spec"
        cli.save_code_spec(spec, path)
        assert run_cli(["encode", "--spec", str(path), "--message", "110"]) == 0
        out = capsys.readouterr().out.strip()
        expected = "".join(str(b) for b in encode_message(np.array([1, 1, 0]), spec))
        assert out == expected

    @pytest.mark.parametrize("code", [["--kernels", "2,3"], ["--n", "6"]], ids=("kernels", "n"))
    def test_all_information_code_encodes(self, capsys, code):
        # A K of N is a valid code however it is described; only construct needs 0 < K < N.
        assert run_cli(["encode", *code, "--k", "6", "--message", "101010"]) == 0
        assert capsys.readouterr().out == "001101\n"

    def test_bad_message_rejected(self, tmp_path, capsys):
        spec = construct_code(6, 3)
        path = tmp_path / "c.spec"
        cli.save_code_spec(spec, path)
        assert run_cli(["encode", "--spec", str(path), "--message", "10"]) == 2

    @pytest.mark.parametrize("decoder", ["sc", "fastssc"])
    def test_nan_llr_rejected(self, tmp_path, capsys, decoder):
        llr_file = tmp_path / "llrs.txt"
        llr_file.write_text("1.0 2.0 nan 1.0 1.0 1.0")
        assert run_cli(["decode", "--kernels", "2,3", "--k", "3", "--llrs", str(llr_file),
                        "--decoder", decoder]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.strip().splitlines() == ["mkpolar decode: LLR 2 of frame 0 is NaN"]


    @pytest.mark.parametrize("decoder", ["sc", "fastssc"])
    def test_wrong_llr_count_rejected_by_decoder(self, tmp_path, capsys, decoder):
        llr_file = tmp_path / "llrs.txt"
        llr_file.write_text("1.0 2.0 3.0")
        assert run_cli(["decode", "--kernels", "2,3", "--k", "3", "--llrs", str(llr_file),
                        "--decoder", decoder]) == 2
        assert capsys.readouterr().err.splitlines() == ["mkpolar decode: expected 6 LLRs, got shape (3,)"]

    @given(LLR_FILES, st.sampled_from(["sc", "fastssc"]))
    @settings(max_examples=200, deadline=None)
    def test_fuzzed_llr_text_decodes_or_fails_in_one_line(self, data, decoder):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "llrs.txt"
            path.write_bytes(data)
            status, err = run_cli_stderr(["decode", "--kernels", "2,3", "--k", "3",
                                          "--llrs", str(path), "--decoder", decoder])
        assert exits_cleanly(status, err), (status, err)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("decoder", ["sc", "fastssc"])
    @pytest.mark.parametrize("llrs,u_hat", [("inf -inf", "01"), ("1e308 1e308", "00")])
    def test_infinite_and_huge_llrs_saturate(self, tmp_path, capsys, decoder, llrs, u_hat):
        spec_file = tmp_path / "c.spec"
        spec_file.write_text("N 2\nK 1\nkernels 2\nfrozen 0\n")
        llr_file = tmp_path / "llrs.txt"
        llr_file.write_text(llrs)
        assert run_cli(["decode", "--spec", str(spec_file), "--llrs", str(llr_file),
                        "--decoder", decoder]) == 0
        out = dict(line.split(" ", 1) for line in capsys.readouterr().out.strip().splitlines())
        assert out["u_hat"] == u_hat


class TestSimulate:
    def test_writes_deterministic_csv(self, tmp_path):
        out = tmp_path / "fer.csv"
        args = ["simulate", "--n", "96", "--k", "48", "--order", "last",
                "--decoder", "fastssc", "--snr", "2:1:3", "--seed", "7",
                "--max-frames", "512", "--min-errors", "8", "--out", str(out)]
        assert run_cli(args) == 0
        first = out.read_bytes()
        header, *rows = first.decode().strip().splitlines()
        assert header == "ebn0_db,frames,frame_errors,bit_errors,fer,ber"
        assert len(rows) == 2
        assert run_cli(args) == 0
        assert out.read_bytes() == first

    def test_json_mirrors_csv(self, tmp_path):
        base = ["simulate", "--n", "6", "--k", "3", "--snr", "4", "--seed", "1",
                "--max-frames", "128", "--min-errors", "4"]
        csv_out = tmp_path / "r.csv"
        json_out = tmp_path / "r.json"
        assert run_cli(base + ["--out", str(csv_out)]) == 0
        assert run_cli(base + ["--format", "json", "--out", str(json_out)]) == 0
        header, row = csv_out.read_text().strip().splitlines()
        payload = json.loads(json_out.read_text())
        assert header.split(",") == list(payload[0])
        assert row.split(",")[1] == str(payload[0]["frames"])

    def test_missing_snr_is_usage_error(self, capsys):
        assert run_cli(["simulate", "--n", "6", "--k", "3"]) == 2
        assert "--snr" in capsys.readouterr().err

    def test_unparsable_snr_is_usage_error(self, capsys):
        assert run_cli(["simulate", "--n", "6", "--k", "3", "--snr", "a:b:c"]) == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    def test_snr_parsing(self):
        assert cli.parse_snr_range("1:0.5:4") == (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
        assert cli.parse_snr_range("0:0.1:0.3") == (0.0, 0.1, 0.2, 0.3)
        assert cli.parse_snr_range("1:0.5:3.75") == (1.0, 1.5, 2.0, 2.5, 3.0, 3.5)
        assert cli.parse_snr_range("2:1:2") == (2.0,)
        assert cli.parse_snr_range("2,3,4") == (2.0, 3.0, 4.0)
        with pytest.raises(cli.CommandError):
            cli.parse_snr_range("1:2")
        for text in ("4:0.5:1", "0:5e-324:1", "nan:1:2"):
            with pytest.raises(cli.CommandError, match="empty"):
                cli.parse_snr_range(text)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "extra,complaint",
        [
            (["--max-frames", "0"], "max_frames"),
            (["--min-errors", "0"], "min_frame_errors"),
            (["--workers", "0"], "workers"),
            (["--snr=-inf"], "out of range"),
            (["--snr=-4000"], "out of range"),
            (["--snr", "4000"], "out of range"),
            (["--snr", "inf"], "out of range"),
            (["--snr", "3080"], "out of range"),
            (["--snr", "4:0.5:1"], "empty"),
            (["--seed", "-1"], "seed -1 is outside 0..inf"),
        ],
        ids=lambda v: v if isinstance(v, str) else " ".join(v),
    )
    def test_bad_input_is_one_line_usage_error(self, capsys, extra, complaint):
        args = ["simulate", "--n", "6", "--k", "3", "--snr", "4", "--max-frames", "64"]
        assert run_cli(args + extra) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and complaint in err[0]

    def test_snr_point_count_is_capped(self):
        assert len(cli.parse_snr_range(f"0:1:{cli.MAX_SNR_POINTS - 1}")) == cli.MAX_SNR_POINTS
        with pytest.raises(cli.CommandError, match="points"):
            cli.parse_snr_range(",".join(["2"] * (cli.MAX_SNR_POINTS + 1)))

    @pytest.mark.parametrize(
        "extra,complaint",
        [
            # about 10^15 points: counted, never built
            (["--snr", "0:1e-12:1000"], "at most 10000"),
            (["--workers", "65"], "workers 65 is outside 1..64"),
            (["--workers", str(10**9)], f"workers {10**9} is outside 1..64"),
        ],
        ids=lambda v: v if isinstance(v, str) else " ".join(v),
    )
    def test_request_caps_start_no_thread(self, capsys, monkeypatch, extra, complaint):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was created")

        monkeypatch.setattr(channel, "ThreadPoolExecutor", no_pool)
        args = ["simulate", "--n", "6", "--k", "3", "--snr", "4", "--max-frames", "64"]
        assert run_cli(args + extra) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and complaint in err[0]

    @pytest.mark.filterwarnings("error")
    def test_construct_rejects_ebn0_out_of_range(self, tmp_path, capsys):
        args = ["construct", "--n", "6", "--k", "3", "--ebn0", "4000", "--out", str(tmp_path)]
        assert run_cli(args) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "out of range" in err[0]


class TestAnalyze:
    def test_table2_csv(self, tmp_path):
        out = tmp_path / "table2.csv"
        assert run_cli(["analyze", "--table2", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 25
        assert lines[0].startswith("N,R,ordering,sc_nodes,fast_nodes")

    def test_requires_a_mode(self, capsys):
        assert run_cli(["analyze"]) == 2
        assert "--table2" in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["0", "-5"])
    def test_sweep_k_below_one_rejected(self, capsys, k):
        assert run_cli(["analyze", "--sweep-k", k]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"mkpolar analyze: K {k} is outside 1..65535"]

    def test_sweep_n(self, capsys):
        assert run_cli(["analyze", "--sweep-n", "96"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 15


class TestScheduleExport:
    def test_line_format(self, capsys):
        assert run_cli(["schedule-export", "--n", "96", "--k", "48", "--order", "last"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        depth0, offset0, span0, cls0 = lines[0].split(",")
        assert (depth0, offset0, span0) == ("0", "0", "96")
        spans = sum(int(l.split(",")[2]) for l in lines if l.split(",")[3] != "generic")
        assert spans == 96

    def test_no_spc_flag_changes_schedule(self, capsys):
        assert run_cli(["schedule-export", "--n", "96", "--k", "48"]) == 0
        with_spc = capsys.readouterr().out
        assert run_cli(["schedule-export", "--n", "96", "--k", "48", "--no-spc"]) == 0
        without = capsys.readouterr().out
        assert "spc" in with_spc
        assert "spc" not in without


class TestEmitReport:
    def test_empty_rows_header_only(self, capsys):
        cli.emit_report([], ("a", "b"), "csv", None)
        assert capsys.readouterr().out == "a,b\n"

    def test_json_array(self, capsys):
        cli.emit_report([{"a": 1, "b": 2.5}], ("a", "b"), "json", None)
        assert json.loads(capsys.readouterr().out) == [{"a": 1, "b": 2.5}]
