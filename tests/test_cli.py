import json

import numpy as np
import pytest

from mkpolar import channel, cli
from mkpolar.construction import construct_code
from mkpolar.encoding import encode_message


def run_cli(args):
    return cli.main(args)


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


class TestConstruct:
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
            (["--workers", "65"], "at most 64"),
            (["--workers", str(10**9)], "at most 64"),
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
