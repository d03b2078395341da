import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from qkdbench.config import LinkConfig, ProtocolConfig, SourceConfig
from qkdbench import decoy, montecarlo, timetag
from qkdbench.timetag import (
    AliceLog,
    MAX_TICK,
    TimeTagStream,
    decode,
    encode,
    frame_indices,
    gate,
    recover_phase,
    sift,
    signed_residues,
    window_ticks_from_seconds,
)

PERIOD = 128  # 10 ns at 78.125 ps per tick


def stream_of(pairs):
    ticks = np.array([t for t, _ in pairs], dtype=np.uint64)
    chans = np.array([c for _, c in pairs], dtype=np.uint8)
    return TimeTagStream(ticks, chans)


class TestCodec:
    def test_fixed_words(self):
        assert encode(stream_of([(0, 0)])) == b"\x00" * 8
        assert encode(stream_of([(1, 3)])) == (0x13).to_bytes(8, "little")

    def test_round_trip_random(self):
        rng = np.random.default_rng(100)
        n = 1_000_000
        ticks = np.sort(rng.integers(0, MAX_TICK, size=n, dtype=np.uint64, endpoint=True))
        ticks[-1] = MAX_TICK  # includes the 60-bit ceiling
        chans = rng.integers(0, 16, size=n, dtype=np.uint8)
        stream = TimeTagStream(ticks, chans)
        data = encode(stream)
        assert len(data) == 8 * n
        decoded = decode(data)
        assert decoded == stream
        assert encode(decoded) == data

    @settings(max_examples=100, deadline=None)
    @given(ticks=st.lists(st.integers(0, MAX_TICK), min_size=1, max_size=20))
    def test_round_trip_every_tick_on_all_16_channels(self, ticks):
        ticks = sorted(ticks)
        stream = TimeTagStream(np.repeat(np.array(ticks, dtype=np.uint64), 16), np.tile(np.arange(16), len(ticks)))
        data = encode(stream)
        words = [(t << 4) | c for t in ticks for c in range(16)]
        assert data == b"".join(w.to_bytes(8, "little") for w in words)
        assert decode(data) == stream

    def test_truncated_stream(self):
        with pytest.raises(ValueError, match="truncated"):
            decode(b"\x00" * 12)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="60-bit"):
            TimeTagStream(np.array([1 << 60], dtype=np.uint64), np.array([0], dtype=np.uint8))

    def test_non_monotonic_warns_but_preserves(self):
        stream = stream_of([(10, 0), (5, 1)])
        with pytest.warns(UserWarning, match="non-monotonic"):
            data = encode(stream)
        with pytest.warns(UserWarning, match="non-monotonic"):
            back = decode(data)
        assert back == stream

    def test_markers_pass_through(self):
        stream = stream_of([(100, 2), (200, 15), (300, 1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = decode(encode(stream))
        assert back == stream
        assert list(back.detections().channels) == [2, 1]


class TestRecoverPhase:
    def test_exact_residue(self):
        ticks = np.arange(500, dtype=np.uint64) * PERIOD + 37
        est = recover_phase(TimeTagStream(ticks, np.zeros(500, dtype=np.uint8)), PERIOD)
        assert est.phase_ticks == 37
        assert not est.low_confidence

    def test_jittered_residue(self):
        rng = np.random.default_rng(200)
        jitter = np.rint(rng.normal(0, 6, size=4000)).astype(np.int64)
        ticks = (np.arange(4000) * PERIOD + 37 + jitter).astype(np.uint64)
        est = recover_phase(TimeTagStream(ticks, np.zeros(4000, dtype=np.uint8)), PERIOD)
        assert abs(est.phase_ticks - 37) <= 1

    def test_uniform_low_confidence(self):
        rng = np.random.default_rng(201)
        ticks = np.sort(rng.integers(0, 1 << 30, size=5000, dtype=np.uint64))
        est = recover_phase(TimeTagStream(ticks, np.zeros(5000, dtype=np.uint8)), PERIOD)
        assert est.low_confidence
        assert est.contrast < 2.0

    @settings(max_examples=60, deadline=None)
    @given(phase=st.integers(0, PERIOD - 1), sigma=st.floats(0.0, 6.0), seed=st.integers(0, 2**32 - 1))
    @example(phase=0, sigma=3.0, seed=0)
    @example(phase=PERIOD - 1, sigma=3.0, seed=0)
    def test_finds_any_phase_within_one_tick(self, phase, sigma, seed):
        rng = np.random.default_rng(seed)
        jitter = np.rint(rng.normal(0.0, sigma, size=2000)).astype(np.int64)
        ticks = (np.arange(1, 2001) * PERIOD + phase + jitter).astype(np.uint64)
        est = recover_phase(TimeTagStream(ticks, np.zeros(2000, dtype=np.uint8)), PERIOD)
        off = abs(est.phase_ticks - phase)
        assert min(off, PERIOD - off) <= 1

    def test_insufficient_data(self):
        ticks = np.arange(5, dtype=np.uint64) * PERIOD
        with pytest.raises(ValueError, match="insufficient"):
            recover_phase(TimeTagStream(ticks, np.zeros(5, dtype=np.uint8)), PERIOD)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(202)
        jitter = np.rint(rng.normal(0, 4, size=2000)).astype(np.int64)
        base = (np.arange(2000) * PERIOD + 50 + jitter).astype(np.uint64)
        chans = np.zeros(2000, dtype=np.uint8)
        p0 = recover_phase(TimeTagStream(base, chans), PERIOD).phase_ticks
        for delta in (1, 17, 64, 127):
            shifted = recover_phase(TimeTagStream(base + np.uint64(delta), chans), PERIOD).phase_ticks
            assert shifted == (p0 + delta) % PERIOD

    def test_wraparound_peak(self):
        # residues straddling 0 must not average to the antipode
        rng = np.random.default_rng(203)
        jitter = np.rint(rng.normal(0, 3, size=2000)).astype(np.int64)
        ticks = (np.arange(2000) * PERIOD + PERIOD + jitter).astype(np.uint64)
        est = recover_phase(TimeTagStream(ticks, np.zeros(2000, dtype=np.uint8)), PERIOD)
        assert est.phase_ticks in (0, 1, 127)


class TestGate:
    def test_all_on_phase_accepted(self):
        ticks = np.arange(1000, dtype=np.uint64) * PERIOD + 37
        stream = TimeTagStream(ticks, np.zeros(1000, dtype=np.uint8))
        result = gate(stream, PERIOD, 37, 13)
        assert len(result.accepted) == 1000
        assert result.rejected == 0

    def test_window_equals_period_accepts_everything(self):
        rng = np.random.default_rng(300)
        ticks = np.sort(rng.integers(0, 1 << 20, size=5000, dtype=np.uint64))
        stream = TimeTagStream(ticks, np.zeros(5000, dtype=np.uint8))
        result = gate(stream, PERIOD, 91, PERIOD)
        assert len(result.accepted) == 5000

    def test_counting_oracle_exact(self):
        # one record on every residue, repeated: a w-tick window accepts
        # exactly w residues of the 128
        reps = 50
        ticks = np.arange(PERIOD * reps, dtype=np.uint64)
        stream = TimeTagStream(ticks, np.zeros(PERIOD * reps, dtype=np.uint8))
        for phase in (0, 37, 127):
            for w in (1, 12, 13, 64, 128):
                result = gate(stream, PERIOD, phase, w)
                assert len(result.accepted) == w * reps, (phase, w)

    @settings(max_examples=100, deadline=None)
    @given(
        phase=st.integers(0, PERIOD - 1),
        w=st.integers(1, PERIOD),
        periods=st.integers(1, 4),
        markers=st.lists(st.tuples(st.integers(0, 4 * PERIOD), st.integers(4, 15)), max_size=10),
    )
    def test_accepts_exactly_w_residues_and_every_marker(self, phase, w, periods, markers):
        # one detection on every tick of whole periods, plus markers anywhere
        n = periods * PERIOD
        ticks = np.concatenate([np.arange(n), [t for t, _ in markers]]).astype(np.uint64)
        chans = np.concatenate([np.arange(n) % 4, [c for _, c in markers]]).astype(np.uint8)
        result = gate(TimeTagStream(ticks, chans), PERIOD, phase, w)
        det = result.accepted.ticks[result.accepted.channels < 4].astype(np.int64)
        expected = {(phase + d) % PERIOD for d in range(-(w // 2), (w - 1) // 2 + 1)}
        assert len(det) == w * periods
        assert set((det % PERIOD).tolist()) == expected
        kept_markers = result.accepted.channels[result.accepted.channels >= 4]
        assert sorted(kept_markers.tolist()) == sorted(c for _, c in markers)
        assert result.rejected == n - w * periods

    def test_uniform_background_acceptance(self):
        # random uniform arrivals: acceptance = 13/128 of the stream,
        # 3-sigma binomial band (expected fraction 0.1016, so the
        # 13.5/128 coarse figure also sits inside the band at this size)
        rng = np.random.default_rng(301)
        n = 10_000
        ticks = np.sort(rng.integers(0, 1 << 32, size=n, dtype=np.uint64))
        stream = TimeTagStream(ticks, np.zeros(n, dtype=np.uint8))
        result = gate(stream, PERIOD, 37, 13)
        p = 13 / 128
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(len(result.accepted) / n - p) <= 3 * sigma

    def test_accepted_residuals_within_half_window(self):
        rng = np.random.default_rng(302)
        ticks = np.sort(rng.integers(0, 1 << 24, size=3000, dtype=np.uint64))
        stream = TimeTagStream(ticks, np.zeros(3000, dtype=np.uint8))
        for w in (5, 13, 26):
            result = gate(stream, PERIOD, 40, w)
            d = signed_residues(result.accepted.ticks, 40, PERIOD)
            assert np.all(np.abs(d) <= w / 2)

    def test_markers_never_gated(self):
        stream = stream_of([(64, 15), (37, 0), (90, 14)])
        result = gate(stream, PERIOD, 37, 13)
        assert list(result.accepted.channels) == [15, 0, 14]
        assert result.rejected == 0

    def test_window_validation(self):
        stream = stream_of([(0, 0)])
        with pytest.raises(ValueError):
            gate(stream, PERIOD, 0, 0)
        with pytest.raises(ValueError):
            gate(stream, PERIOD, 0, PERIOD + 1)

    def test_window_rounding(self):
        assert window_ticks_from_seconds(1e-9) == 13
        assert window_ticks_from_seconds(10e-9) == 128
        assert window_ticks_from_seconds(78.125e-12) == 1


#: the 12 Alice log rows (without their newline), indexed by bit | basis << 1 | class << 2
ALICE_ROWS = [f"{c & 1},{'ZX'[c >> 1 & 1]},{timetag.CLASS_LABELS[c >> 2]}" for c in range(12)]


def make_alice(n, rng):
    return AliceLog(rng.integers(0, 12, n).astype(np.uint8))


class TestSift:
    def test_perfect_matched_stream(self):
        rng = np.random.default_rng(400)
        n = 5000
        alice = make_alice(n, rng)
        # Bob receives every frame in the matching basis with the right bit
        ticks = (np.arange(n) * PERIOD + 37).astype(np.uint64)
        chans = alice.code & 3  # basis * 2 + bit
        gated = gate(TimeTagStream(ticks, chans), PERIOD, 37, 13)
        key = sift(alice, gated, PERIOD, seed=1)
        assert len(key.sifted_bits) == n
        assert key.errors_per_class.sum() == 0
        assert key.collisions == 0

    def test_uniform_bases_sift_half(self):
        rng = np.random.default_rng(401)
        n = 20_000
        alice = make_alice(n, rng)
        ticks = (np.arange(n) * PERIOD + 37).astype(np.uint64)
        bob_basis = rng.integers(0, 2, n)
        bob_bit = rng.integers(0, 2, n)
        chans = (bob_basis * 2 + bob_bit).astype(np.uint8)
        gated = gate(TimeTagStream(ticks, chans), PERIOD, 37, 13)
        key = sift(alice, gated, PERIOD, seed=2)
        frac = len(key.sifted_bits) / n
        assert abs(frac - 0.5) <= 3 * math.sqrt(0.25 / n)

    def test_collisions_resolved_and_counted(self):
        alice = AliceLog(np.array([0, 1, 2], dtype=np.uint8))  # signal Z0, Z1, X0
        # two accepted records land in frame 1
        stream = stream_of([(37, 0), (PERIOD + 36, 2), (PERIOD + 38, 3), (2 * PERIOD + 37, 2)])
        gated = gate(stream, PERIOD, 37, 13)
        key = sift(alice, gated, PERIOD, seed=3)
        assert key.collisions == 1
        assert len(key.frames) == 3

    def test_out_of_log_frames_dropped(self):
        alice = AliceLog(np.zeros(2, dtype=np.uint8))
        stream = stream_of([(37, 0), (PERIOD * 50 + 37, 0)])
        gated = gate(stream, PERIOD, 37, 13)
        key = sift(alice, gated, PERIOD, seed=4)
        assert len(key.frames) == 1

    @settings(max_examples=50, deadline=None)
    @given(codes=st.lists(st.integers(0, 11), max_size=200), seed=st.integers(0, 2**32 - 1))
    def test_sift_attributes_each_frame_to_its_class(self, codes, seed):
        alice = AliceLog(np.array(codes, dtype=np.uint8))
        n = len(alice)
        rng = np.random.default_rng(seed)
        chosen = np.flatnonzero(rng.random(n) < 0.5)
        # one on-phase record per chosen frame, plus records past the end of the log
        frames = np.concatenate([chosen, n + rng.integers(0, 5, size=3)])
        ticks = (frames * PERIOD + 37).astype(np.uint64)
        chans = rng.integers(0, 4, size=len(frames)).astype(np.uint8)
        key = sift(alice, gate(TimeTagStream(ticks, chans), PERIOD, 37, 13), PERIOD, seed=seed)
        assert np.array_equal(key.frames, chosen)
        assert np.array_equal(key.detected_per_class, np.bincount(alice.code[chosen] >> 2, minlength=3))

    @settings(max_examples=50, deadline=None)
    @given(codes=st.lists(st.integers(0, 11), max_size=200))
    def test_alice_log_csv_round_trip(self, codes):
        alice = AliceLog(np.array(codes, dtype=np.uint8))
        text = alice.to_csv()
        assert text == "bit,basis,class\n" + "".join(ALICE_ROWS[c] + "\n" for c in codes)
        back = AliceLog.from_csv(io.StringIO(text))
        assert back.code.dtype == np.uint8
        assert np.array_equal(back.code, alice.code)

    @settings(max_examples=50, deadline=None)
    @given(
        codes=st.lists(st.integers(0, 11), min_size=1, max_size=50),
        at=st.integers(0, 49),
        row=st.text(alphabet="01ZXsignaldecoy12,\r ", max_size=14),
    )
    def test_alice_log_rejects_unknown_row(self, codes, at, row):
        assume(row not in ALICE_ROWS)
        rows = [ALICE_ROWS[c] for c in codes]
        at = at % (len(rows) + 1)
        lines = ["bit,basis,class"] + rows[:at] + [row] + rows[at:]
        with pytest.raises(ValueError, match=f"alice log line {at + 2}:"):
            AliceLog.from_csv(line + "\n" for line in lines)

    @pytest.mark.parametrize("code", [[0, 12], [255, 3], [-1, 0]])
    def test_alice_log_out_of_range_value_not_written(self, code):
        alice = AliceLog(np.array(code, dtype=np.int16))
        with pytest.raises(ValueError, match="out of range"):
            alice.to_csv()

    def test_alice_log_old_header_rejected(self):
        with pytest.raises(ValueError, match="bad alice log header"):
            AliceLog.from_csv(io.StringIO("frame,bit,basis,class\n0,1,Z,signal\n"))


@pytest.fixture
def six_db():
    source = SourceConfig(mu=0.5, nu1=0.066, nu2=0.002, degree_of_polarization=1.0)
    link = LinkConfig(background_suppression=1.0)
    proto = ProtocolConfig(signal_pulses=1e8)
    return source, link, proto


class TestMcPipeline:
    """Cross-module checks against Monte Carlo emitted streams."""

    def test_qber_recovered_through_pipeline(self, six_db):
        source, link, proto = six_db
        res = montecarlo.run(source, link, proto, frames=1_500_000, seed=500, emit_ttags=True, phase_ticks=37)
        est = recover_phase(res.stream, PERIOD)
        assert est.phase_ticks == 37
        gated = gate(res.stream, PERIOD, est.phase_ticks, 13)
        key = sift(res.alice_log, gated, PERIOD, seed=501)
        # gated comparator: the 13-tick window keeps 13/128 of the background
        from dataclasses import replace

        link_gated = replace(link, background_suppression=13 / 128)
        obs = decoy.channel_observables(source, link_gated, "full-budget")
        e_pipe = key.qber_class(0)
        sigma = math.sqrt(obs.e_mu * (1 - obs.e_mu) / key.sifted_per_class[0])
        assert abs(e_pipe - obs.e_mu) <= 3 * sigma

    def test_background_acceptance_linear_in_window(self):
        src = SourceConfig(mu=0.0, nu1=0.0, nu2=0.0, degree_of_polarization=1.0)
        link = LinkConfig(background_yield=5e-3, background_suppression=1.0)
        res = montecarlo.run(src, link, ProtocolConfig(), frames=2_000_000, seed=502, emit_ttags=True, phase_ticks=37)
        n = len(res.stream)
        for w in (13, 26, 64):
            accepted = len(gate(res.stream, PERIOD, 37, w).accepted)
            p = w / PERIOD
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(accepted / n - p) <= 3 * sigma, w

    def test_signal_acceptance_follows_jitter_integral(self, six_db):
        source, link, proto = six_db
        from dataclasses import replace

        link = replace(link, background_yield=0.0)  # signal only
        res = montecarlo.run(source, link, proto, frames=800_000, seed=503, emit_ttags=True, phase_ticks=64)
        n = len(res.stream)
        sigma_ticks = link.jitter_sigma_s / timetag.TICK_SECONDS
        for w in (7, 13, 25):
            accepted = len(gate(res.stream, PERIOD, 64, w).accepted)
            lo, hi = -(w // 2), (w - 1) // 2
            # rounded-gaussian mass on the accepted residues
            p = 0.5 * (
                math.erf((hi + 0.5) / (sigma_ticks * math.sqrt(2)))
                - math.erf((lo - 0.5) / (sigma_ticks * math.sqrt(2)))
            )
            sd = math.sqrt(p * (1 - p) / n)
            assert abs(accepted / n - p) <= 3 * sd, w

    def test_no_jitter_full_window_keeps_all(self):
        src = SourceConfig(mu=0.5, nu1=0.066, nu2=0.002, degree_of_polarization=1.0)
        link = LinkConfig(jitter_sigma_s=0.0, background_suppression=1.0)
        res = montecarlo.run(src, link, ProtocolConfig(), frames=100_000, seed=504, emit_ttags=True, phase_ticks=10)
        gated = gate(res.stream, PERIOD, 10, PERIOD)
        assert gated.rejected == 0
        assert len(gated.accepted) == len(res.stream)

    def test_sift_qber_matches_summary(self, six_db):
        # window = period, phase known: sifting reproduces the run's own
        # sifted error statistics
        source, link, proto = six_db
        res = montecarlo.run(source, link, proto, frames=400_000, seed=505, emit_ttags=True, phase_ticks=37)
        gated = gate(res.stream, PERIOD, 37, PERIOD)
        key = sift(res.alice_log, gated, PERIOD, seed=506)
        s = res.summary
        assert key.sifted_per_class.sum() == s.sifted.sum()
        assert key.errors_per_class.sum() == s.errors.sum()


class TestFrameIndices:
    def test_round_trip_with_jitter(self):
        # any offset within half a period maps back to the home frame
        frames = np.arange(1, 101, dtype=np.int64)
        for jit in (-63, -50, -6, 0, 6, 50, 63):
            ticks = (frames * PERIOD + 37 + jit).astype(np.uint64)
            assert np.array_equal(frame_indices(ticks, 37, PERIOD), frames), jit

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_home_frame_for_every_offset_within_half_a_period(self, data):
        period = data.draw(st.integers(1, 1000))
        phase = data.draw(st.integers(0, period - 1))
        frame = data.draw(st.integers(0, 2**50))
        d = data.draw(st.integers(-(period // 2), (period - 1) // 2))  # -P/2 <= d < P/2
        tick = frame * period + phase + d
        assume(tick >= 0)
        assert frame_indices(np.array([tick], dtype=np.uint64), phase, period).tolist() == [frame]
