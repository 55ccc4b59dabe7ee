import math
import re
import tracemalloc

import numpy as np
import pytest

from mkpolar import channel, fast_ssc
from mkpolar.analysis import latency_table
from mkpolar.channel import StopRule, awgn_llr, modulate, noise_variance, run_fer
from mkpolar.construction import (
    CodeSpec,
    OrderingStrategy,
    construct_code,
    design_code,
    order_kernels,
    select_frozen,
)
from mkpolar.fast_ssc import FastSSCDecoder, NodeLimits, build_schedule, classify_node
from mkpolar.kernels import MAX_CODE_LENGTH

from conftest import frames_first_chunk


class TestModulate:
    def test_mapping(self):
        assert modulate([0, 1, 0]).tolist() == [1.0, -1.0, 1.0]

    def test_all_zero(self):
        assert (modulate(np.zeros(8, dtype=np.uint8)) == 1.0).all()

    @pytest.mark.parametrize("bits", ["3", [0, 2], np.array([3], dtype=np.uint8), [0.5]], ids=repr)
    def test_rejects_entries_other_than_0_or_1(self, bits):
        # modulate("3") once returned -5.0
        with pytest.raises(ValueError, match="^bits entry .* not 0 or 1$"):
            modulate(bits)

    @pytest.mark.parametrize("bits,message", [
        ("1", "bits entry [] is '1', not 0 or 1"),
        (["0", "1"], "bits entry [0] is '0', not 0 or 1"),
        (np.array([2, 0]), "bits entry [0] is 2, not 0 or 1"),
        ([0, 1.5], "bits entry [1] is 1.5, not 0 or 1"),
    ], ids=repr)
    def test_a_str_entry_is_quoted_and_a_number_is_not(self, bits, message):
        with pytest.raises(ValueError) as info:
            modulate(bits)
        assert str(info.value) == message


# Each is rejected because 4*R*Eb/N0 or its inverse is 0 or not finite; the
# last two are finite and positive but their sigma^2 = 2/(4*R*Eb/N0) overflows.
BAD_EBN0_DB = (-math.inf, -4000.0, 4000.0, math.inf, 3080.0, math.nan, -3100.0, -3084.0)


class TestNoiseVariance:
    def test_sigma2_identity(self):
        # Eb/N0 = 2.0 linear at R = 1/2: sigma^2 = 1/(2*R*EbN0) = 0.5 and the
        # LLR mean 2/sigma^2 = 4 equals the GA initialization 4*R*EbN0.
        sigma2 = noise_variance(10 * np.log10(2.0), 0.5)
        assert sigma2 == pytest.approx(0.5, rel=1e-12)
        assert 2.0 / sigma2 == pytest.approx(4 * 0.5 * 2.0, rel=1e-12)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            noise_variance(3.0, 1.0)

    @pytest.mark.parametrize("rate", ["0.5", True, None], ids=repr)
    def test_rejects_rate_that_is_not_a_real_number(self, rate):
        # a str rate once raised TypeError
        with pytest.raises(ValueError, match=f"^{re.escape(f'rate {rate!r} is not a real number')}$"):
            noise_variance(2.0, rate)

    def test_workers_cap_is_checked_before_any_pool(self, spec96, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was created")

        monkeypatch.setattr(channel, "ThreadPoolExecutor", no_pool)
        workers = channel.MAX_WORKERS + 1
        with pytest.raises(ValueError, match=re.escape(f"workers {workers} is outside 1..{channel.MAX_WORKERS}")):
            run_fer(spec96, snrs=(3.0,), stop=StopRule(max_frames=64), workers=workers)

    def test_workers_cap_is_inclusive(self):
        # One 64-frame chunk: the pool starts one thread, whatever the worker count.
        spec = design_code((2, 3), 3)
        stats = run_fer(spec, snrs=(3.0,), stop=StopRule(max_frames=64), workers=channel.MAX_WORKERS)
        assert stats.points[0].frames == 64

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ebn0_db", BAD_EBN0_DB)
    def test_rejects_ebn0_out_of_range(self, ebn0_db):
        with pytest.raises(ValueError, match="out of range"):
            noise_variance(ebn0_db, 0.5)


class TestAwgnLlr:
    def test_near_noiseless_preserves_signs(self):
        sigma2 = noise_variance(40.0, 0.5)
        symbols = modulate([0, 1, 1, 0, 1])
        llr = awgn_llr(symbols, sigma2, np.random.default_rng(0).standard_normal(symbols.shape))
        assert (np.sign(llr) == symbols).all()

    def test_empirical_mean(self):
        sigma2 = noise_variance(2.0, 0.5)
        n = 100_000
        llr = awgn_llr(np.ones(n), sigma2, np.random.default_rng(7).standard_normal(n))
        expected = 2.0 / sigma2
        sample_sigma = np.sqrt(4.0 / sigma2)  # llr variance is 4/sigma^2
        assert llr.mean() == pytest.approx(expected, abs=3 * sample_sigma / np.sqrt(n))


class TestStopRule:
    @pytest.mark.parametrize("fields", [dict(max_frames=0), dict(min_frame_errors=0),
                                        dict(max_frames=-5)])
    def test_rejects_fields_below_one(self, fields):
        [(name, value)] = fields.items()
        with pytest.raises(ValueError, match=re.escape(f"{name} {value} is outside 1..inf")):
            StopRule(**fields)

    @pytest.mark.parametrize("fields", [dict(max_frames=10.5), dict(min_frame_errors=2.0),
                                        dict(max_frames=True), dict(min_frame_errors="5")])
    def test_rejects_non_integer_fields(self, fields):
        [(name, value)] = fields.items()
        with pytest.raises(ValueError, match=re.escape(f"{name} {value!r} is not an integer")):
            StopRule(**fields)

    def test_accepts_numpy_integers(self):
        stop = StopRule(max_frames=np.int64(64), min_frame_errors=np.uint8(3))
        assert stop.reached(channel.SnrPoint(0.0, frames=64))


class TestRunFer:
    def test_noiseless_proxy_zero_fer(self, spec96):
        stats = run_fer(
            spec96,
            decoder="sc",
            snrs=(25.0,),
            stop=StopRule(max_frames=1000, min_frame_errors=10),
            seed=3,
        )
        point = stats.points[0]
        assert point.frames == 1000
        assert point.frame_errors == 0
        assert point.fer == 0.0

    def test_sc_and_fastssc_no_spc_identical(self, spec96):
        from mkpolar.fast_ssc import NodeLimits

        stop = StopRule(max_frames=3000, min_frame_errors=40)
        a = run_fer(spec96, decoder="sc", snrs=(2.0,), stop=stop, seed=11)
        b = run_fer(
            spec96,
            decoder="fastssc",
            snrs=(2.0,),
            stop=stop,
            seed=11,
            limits=NodeLimits(spc=False),
        )
        assert a.points[0].frame_errors == b.points[0].frame_errors
        assert a.points[0].bit_errors == b.points[0].bit_errors

    def test_reproducible_across_workers(self, spec96):
        stop = StopRule(max_frames=2048, min_frame_errors=25)
        kw = dict(decoder="fastssc", snrs=(2.0, 3.0), stop=stop, seed=5, batch_size=256)
        a = run_fer(spec96, workers=1, **kw)
        b = run_fer(spec96, workers=3, **kw)
        assert [p.__dict__ for p in a.points] == [p.__dict__ for p in b.points]

    def test_one_schedule_per_snr_point(self, spec96, monkeypatch):
        # The workers of one point share its one decoder, so its schedule is
        # built once, and the tallies equal those of one decoder per worker.
        calls = []
        build = fast_ssc.build_schedule

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(fast_ssc, "build_schedule", counted)
        stop = StopRule(max_frames=600, min_frame_errors=40)
        stats = run_fer(
            spec96, decoder="fastssc", snrs=(2.0, 3.0), stop=stop, workers=3, seed=21, batch_size=128
        )
        assert len(calls) == 2
        assert [p.__dict__ for p in stats.points] == [
            {"ebn0_db": 2.0, "frames": 256, "frame_errors": 54, "bit_errors": 670},
            {"ebn0_db": 3.0, "frames": 600, "frame_errors": 27, "bit_errors": 331},
        ]

    def test_no_redesign_at_the_design_point(self, monkeypatch):
        # A point at the spec's own design Eb/N0 reuses it; a spec built by
        # hand (design_ebn0_db None) is redesigned there, to the same code.
        calls = []
        design = channel.design_code

        def counted(*args, **kwargs):
            calls.append(kwargs["ebn0_db"])
            return design(*args, **kwargs)

        monkeypatch.setattr(channel, "design_code", counted)
        spec = construct_code(96, 48, ebn0_db=2.0)
        by_hand = CodeSpec(spec.n_bits, spec.k_bits, spec.kernels, spec.frozen.copy())
        assert (spec.design_ebn0_db, by_hand.design_ebn0_db) == (2.0, None)
        stop = StopRule(max_frames=300, min_frame_errors=1000)
        for snrs, redesigned in (((2.0,), []), ((2.0, 2.5), [2.5])):
            calls.clear()
            rows = run_fer(spec, decoder="fastssc", snrs=snrs, stop=stop, seed=4).rows()
            assert calls == redesigned
            calls.clear()
            assert run_fer(by_hand, decoder="fastssc", snrs=snrs, stop=stop, seed=4).rows() == rows
            assert calls == list(snrs)

    def test_reproducible_across_batch_sizes(self, spec96):
        # 1000 frames is no multiple of the 64-frame RNG block, and batches of
        # 37 or 100 (with workers) cut blocks mid-way.
        stop = StopRule(max_frames=1000, min_frame_errors=10_000)
        kw = dict(decoder="fastssc", snrs=(2.0, 3.0), stop=stop, seed=8)
        runs = [run_fer(spec96, batch_size=b, **kw) for b in (1, 37, 64, 1000)]
        runs.append(run_fer(spec96, batch_size=100, workers=3, **kw))
        points = [[p.__dict__ for p in stats.points] for stats in runs]
        assert points[0][0]["frames"] == 1000
        assert all(p == points[0] for p in points[1:])

    def test_fer_matches_per_frame_stream(self, spec96):
        # The per-frame RNG stream that preceded the 64-frame blocks gave
        # 16479 frame errors in 102400 frames on this code at 2.0 dB
        # (the sim-short code, measured at commit 278965e). The block stream
        # must agree within 4 combined binomial standard deviations.
        old_errors, old_frames = 16479, 102400
        stats = run_fer(
            spec96, decoder="fastssc", snrs=(2.0,),
            stop=StopRule(max_frames=51_200, min_frame_errors=10**6), seed=0,
            redesign_per_snr=True,
        )
        point = stats.points[0]
        assert point.frames == 51_200
        old_fer = old_errors / old_frames
        sd = math.sqrt(old_fer * (1 - old_fer) * (1 / old_frames + 1 / point.frames))
        assert abs(point.fer - old_fer) <= 4 * sd

    @pytest.mark.parametrize("seed", (3, 11))
    @pytest.mark.parametrize("start,count", ((0, 1), (37, 100), (64, 64), (5, 1024)))
    @pytest.mark.parametrize("n", (96, 144))
    @pytest.mark.parametrize("kind", channel.DECODER_KINDS)
    def test_chunk_matches_frames_first_oracle(self, kind, n, start, count, seed):
        # Starts 37 and 5 are not multiples of BLOCK_FRAMES, so chunks begin
        # and end inside a block.
        spec = construct_code(n, n // 2, ebn0_db=1.0)
        decoder = channel._make_decoder(kind, spec, None)
        args = (start, count, spec, noise_variance(1.0, spec.rate), seed, 1)
        expected = frames_first_chunk(decoder, *args)
        assert channel._simulate_chunk(decoder, *args) == expected
        assert expected[0] > 0 or count == 1

    def test_chunk_decodes_frames_last_float32(self, spec96, monkeypatch):
        decoder = channel._make_decoder("fastssc", spec96, None)
        decode, seen = decoder.decode_batch, []

        def logged(llrs):
            seen.append((llrs.dtype, llrs.flags.f_contiguous))
            return decode(llrs)

        monkeypatch.setattr(decoder, "decode_batch", logged)
        channel._simulate_chunk(decoder, 5, 100, spec96, noise_variance(2.0, spec96.rate), 0, 0)
        assert seen == [(np.float32, True)]

    @pytest.mark.parametrize("ordering", ("first", "last"))
    @pytest.mark.parametrize("kind", channel.DECODER_KINDS)
    def test_chunk_peak_memory_at_n2304(self, kind, ordering):
        # A 1024-frame N=2304 chunk holds its float32 LLRs (9 MiB), the messages'
        # sourcewords and codewords, the decoder's outputs and one LLR slab; the
        # noise and float64 channel LLRs are alive one 64-frame block at a time.
        # Drawing all the noise at once peaked at 59.6 MiB; this design reads 28-35.
        spec = construct_code(2304, 1152, ordering, ebn0_db=2.0)
        decoder = channel._make_decoder(kind, spec, None)
        tracemalloc.start()
        try:
            channel._simulate_chunk(decoder, 0, 1024, spec, noise_variance(2.0, spec.rate), 0, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 40 * 2**20

    def test_seed_changes_results(self, spec96):
        stop = StopRule(max_frames=1024, min_frame_errors=10_000)
        a = run_fer(spec96, snrs=(2.0,), stop=stop, seed=0)
        b = run_fer(spec96, snrs=(2.0,), stop=stop, seed=1)
        assert a.points[0].frame_errors != b.points[0].frame_errors

    def test_stop_on_error_target(self, spec96):
        stats = run_fer(
            spec96, snrs=(0.0,), stop=StopRule(max_frames=50_000, min_frame_errors=20), seed=2,
            batch_size=128,
        )
        point = stats.points[0]
        assert point.frame_errors >= 20
        assert point.frames < 50_000

    def test_sc_at_3db_collects_errors(self, spec96):
        # mid-SNR sanity: FER strictly inside (0, 1) with a full error quota
        stats = run_fer(
            spec96,
            decoder="sc",
            snrs=(3.0,),
            stop=StopRule(max_frames=100_000, min_frame_errors=100),
            seed=4,
        )
        point = stats.points[0]
        assert point.frame_errors >= 100
        assert 0.0 < point.fer < 1.0

    def test_rows_fields(self, spec96):
        stats = run_fer(spec96, snrs=(3.0,), stop=StopRule(max_frames=256, min_frame_errors=5), seed=0)
        row = stats.rows()[0]
        assert list(row) == ["ebn0_db", "frames", "frame_errors", "bit_errors", "fer", "ber"]
        assert row["fer"] == pytest.approx(row["frame_errors"] / row["frames"])

    def test_rejects_degenerate_code(self):
        spec = design_code((2, 3), 0)
        with pytest.raises(ValueError):
            run_fer(spec, snrs=(3.0,))

    @pytest.mark.filterwarnings("error")
    def test_huge_llrs_saturate_before_the_float32_cast(self, spec96):
        # At 400 dB the channel LLRs are ~2e40, beyond float32's range: a bare
        # cast would warn "overflow encountered in cast". The tallies are those
        # of the float64 decoders.
        stop = StopRule(max_frames=300, min_frame_errors=1000)
        for kind in channel.DECODER_KINDS:
            rows = run_fer(spec96, decoder=kind, snrs=(2.0, 400.0), stop=stop, seed=6).rows()
            assert [(r["frames"], r["frame_errors"], r["bit_errors"]) for r in rows] == [
                (300, 52, 661),
                (300, 0, 0),
            ]

    def test_batch_size_cap_is_checked_before_any_work(self, monkeypatch):
        # 10**6 frames at N=2304 would ask for 17 GiB per chunk array.
        spec = construct_code(2304, 1152, ebn0_db=2.0)
        max_batch = channel.MAX_BATCH_LLRS // 2304

        def no_work(*args, **kwargs):
            raise AssertionError("run_fer started work")

        for name in ("ThreadPoolExecutor", "design_code", "_simulate_chunk", "noise_variance"):
            monkeypatch.setattr(channel, name, no_work)
        for batch_size in (max_batch + 1, 10**6):
            with pytest.raises(ValueError, match=re.escape(f"batch_size {batch_size} is outside 1..{max_batch}")):
                run_fer(spec, snrs=(2.0,), batch_size=batch_size)

    def test_batch_size_cap_is_inclusive_and_admits_the_default_at_max_length(self):
        assert channel.MAX_BATCH_LLRS // MAX_CODE_LENGTH == 1024
        # The chunk holds only the frames the stop rule asks for.
        spec = design_code((2, 3), 3)
        max_batch = channel.MAX_BATCH_LLRS // spec.n_bits
        stats = run_fer(spec, snrs=(3.0,), stop=StopRule(max_frames=64), batch_size=max_batch)
        assert stats.points[0].frames == 64

    @pytest.mark.parametrize("kw", [dict(workers=0), dict(batch_size=0), dict(batch_size=-1)])
    def test_rejects_workers_or_batch_size_below_one(self, spec96, kw):
        # a batch of 0 frames would never advance the point
        [(name, value)] = kw.items()
        high = channel.MAX_WORKERS if name == "workers" else channel.MAX_BATCH_LLRS // 96
        with pytest.raises(ValueError, match=re.escape(f"{name} {value} is outside 1..{high}")):
            run_fer(spec96, snrs=(3.0,), stop=StopRule(max_frames=64), **kw)

    @pytest.mark.parametrize("kw", [dict(batch_size=10.5), dict(workers=1.5), dict(workers=True),
                                    dict(batch_size=np.float64(64))])
    def test_rejects_non_integer_workers_or_batch_size(self, spec96, kw):
        [(name, value)] = kw.items()
        with pytest.raises(ValueError, match=re.escape(f"{name} {value!r} is not an integer")):
            run_fer(spec96, snrs=(3.0,), stop=StopRule(max_frames=64), **kw)

    def test_accepts_numpy_integer_workers_and_batch_size(self, spec96):
        stats = run_fer(spec96, snrs=(3.0,), stop=StopRule(max_frames=64), workers=np.int64(2),
                        batch_size=np.int32(20))
        assert stats.points[0].frames == 64

    @pytest.mark.parametrize("seed", [None, 1.5, -1, True, "7"], ids=repr)
    def test_rejects_bad_seed_before_any_design(self, spec96, monkeypatch, seed):
        def no_work(*args, **kwargs):
            raise AssertionError("run_fer started work")

        for name in ("ThreadPoolExecutor", "design_code", "_make_decoder", "_simulate_chunk"):
            monkeypatch.setattr(channel, name, no_work)
        complaint = "seed -1 is outside 0..inf" if seed == -1 else f"seed {seed!r} is not an integer"
        with pytest.raises(ValueError, match=re.escape(complaint)):
            run_fer(spec96, snrs=(2.0,), seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64, np.uint64(3)], ids=repr)
    def test_accepts_any_non_negative_integer_seed(self, spec96, seed):
        stats = run_fer(spec96, snrs=(3.0,), stop=StopRule(max_frames=64), seed=seed)
        assert stats.points[0].frames == 64 and stats.seed == seed

    def test_rejects_unknown_decoder_before_any_point(self, spec96):
        with pytest.raises(ValueError, match="unknown decoder kind 'bogus'"):
            run_fer(spec96, decoder="bogus", snrs=())

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ebn0_db", BAD_EBN0_DB)
    def test_rejects_ebn0_out_of_range(self, spec96, ebn0_db):
        # A bad point after a good one is rejected too.
        with pytest.raises(ValueError, match="out of range"):
            run_fer(spec96, snrs=(3.0, ebn0_db), stop=StopRule(max_frames=64))

    @pytest.mark.parametrize(
        "snrs,complaint",
        [
            (("2",), "Eb/N0 '2' is not a real number"),
            ((3.0, None), "Eb/N0 None is not a real number"),
            ((1j,), "Eb/N0 1j is not a real number"),
            (2.0, "snrs must be a sequence of Eb/N0 values in dB, got 2.0"),
        ],
        ids=("str", "none_after_good", "complex", "scalar"),
    )
    def test_rejects_snrs_that_are_not_real_numbers(self, spec96, snrs, complaint):
        with pytest.raises(ValueError, match=re.escape(complaint)) as info:
            run_fer(spec96, snrs=snrs, stop=StopRule(max_frames=64))
        assert "\n" not in str(info.value)


@pytest.mark.parametrize(
    "call,complaint",
    [
        (lambda spec: FastSSCDecoder(spec, limits="x"), "limits must be a NodeLimits, got 'x'"),
        (lambda spec: build_schedule(spec, limits=0), "limits must be a NodeLimits, got 0"),
        (lambda spec: latency_table([spec], limits=3), "limits must be a NodeLimits, got 3"),
        (lambda spec: classify_node([1, 0, 0, 0], (2, 2), {"spc": False}),
         "limits must be a NodeLimits, got {'spc': False}"),
        (lambda spec: run_fer(spec, decoder="fastssc", snrs=(3.0,), limits=(27, False)),
         "limits must be a NodeLimits, got (27, False)"),
        (lambda spec: run_fer(spec, stop=None), "stop must be a StopRule, got None"),
        (lambda spec: run_fer(spec, stop=64), "stop must be a StopRule, got 64"),
    ],
    ids=("decoder", "schedule_falsy", "latency_table", "classify_node", "run_fer_limits", "stop_none",
         "stop_int"),
)
def test_limits_and_stop_must_be_their_types(spec96, call, complaint):
    with pytest.raises(ValueError, match=re.escape(complaint)) as info:
        call(spec96)
    assert "\n" not in str(info.value)


SPEC6 = design_code((2, 3), 3)


def simulate6(**kw):
    return run_fer(SPEC6, snrs=(3.0,), **{"stop": StopRule(max_frames=64), **kw})


# Every public count: a call that takes it, its bounds and a numpy integer it accepts.
COUNTS = {
    "N": (lambda v: construct_code(v, 1), 2, MAX_CODE_LENGTH, np.int64(6)),
    "K": (lambda v: construct_code(6, v), 0, 6, np.int64(3)),
    "kernel size": (lambda v: design_code((2, v), 1), 2, 3, np.int64(3)),
    "frozen index": (lambda v: CodeSpec.from_frozen_indices(6, 5, (2, 3), [v]), 0, 5, np.int64(2)),
    "k_bits": (lambda v: select_frozen([4.0, 1.0, 9.0, 2.5], v), 0, 4, np.int64(2)),
    "n_two": (lambda v: order_kernels(v, 1, OrderingStrategy.LAST), 0, 16, np.int64(1)),
    "n_three": (lambda v: order_kernels(1, v, OrderingStrategy.LAST), 0, 16, np.int64(1)),
    "rep3a_max_span": (lambda v: NodeLimits(rep3a_max_span=v), 3, 27, np.int64(9)),
    "workers": (lambda v: simulate6(workers=v), 1, channel.MAX_WORKERS, np.int64(2)),
    "batch_size": (lambda v: simulate6(batch_size=v), 1, channel.MAX_BATCH_LLRS // 6, np.int64(20)),
    "max_frames": (lambda v: StopRule(max_frames=v), 1, math.inf, np.int64(64)),
    "min_frame_errors": (lambda v: StopRule(min_frame_errors=v), 1, math.inf, np.int64(5)),
    "seed": (lambda v: simulate6(seed=v), 0, math.inf, np.uint64(3)),
}


@pytest.mark.parametrize("name", COUNTS)
def test_every_count_has_one_integer_rule(name):
    call, low, high, accepted = COUNTS[name]
    complaints = [(value, f"{name} {value!r} is not an integer") for value in (2.0, True, "2")]
    complaints += [(value, f"{name} {value} is outside {low}..{high}")
                   for value in (low - 1, high + 1) if value != math.inf]
    for value, complaint in complaints:
        with pytest.raises(ValueError, match=re.escape(complaint)) as info:
            call(value)
        assert "\n" not in str(info.value)
    call(accepted)
