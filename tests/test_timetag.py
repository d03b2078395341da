import io
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

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
    window_ticks_from_seconds,
)

PERIOD = 128  # 10 ns at 78.125 ps per tick
INT_DTYPES = ["int8", "int16", "int32", "int64", "uint8", "uint16", "uint32", "uint64"]


def int_array(dtype, n, near):
    """A 1-d ``dtype`` array of ``n`` values, mostly close to the values in ``near``."""
    info = np.iinfo(dtype)
    values = st.one_of(*(st.integers(v - 1, v + 1) for v in near), st.integers(int(info.min), int(info.max)))
    return hnp.arrays(dtype, n, elements=values.filter(lambda v: info.min <= v <= info.max))


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

    @pytest.mark.parametrize(
        "ticks, channels, message",
        [([1 << 60], [0], "60-bit"), ([0], [16], "4-bit"), ([0, 1], [0], "equal length")],
    )
    def test_out_of_range_rejected(self, ticks, channels, message):
        with pytest.raises(ValueError, match=message):
            TimeTagStream(np.array(ticks, dtype=np.uint64), np.array(channels, dtype=np.uint8))

    @pytest.mark.parametrize(
        "ticks, channels, message",
        [([5], [256], "4-bit"), ([5], [260], "4-bit"), ([5], [-1], "4-bit"), ([1.7], [0], "integer arrays"),
         ([5], [1.0], "integer arrays"), ([-1], [0], "60-bit")],
    )
    def test_values_checked_before_the_cast(self, ticks, channels, message):
        # cast first, these became channel 0, channel 4, channel 255, tick 1 and channel 1
        # (a tick of -1 became 2**64 - 1, out of range either way)
        with pytest.raises(ValueError, match=message):
            TimeTagStream(np.array(ticks), np.array(channels))

    @settings(max_examples=200, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(0, 5),
        tick_dtype=st.sampled_from(INT_DTYPES),
        channel_dtype=st.sampled_from(INT_DTYPES),
    )
    def test_accepted_stream_equals_its_inputs(self, data, n, tick_dtype, channel_dtype):
        ticks = data.draw(int_array(tick_dtype, n, (0, MAX_TICK)))
        channels = data.draw(int_array(channel_dtype, n, (0, 15)))
        if not (all(0 <= t <= MAX_TICK for t in ticks.tolist()) and all(0 <= c <= 15 for c in channels.tolist())):
            with pytest.raises(ValueError, match="range"):
                TimeTagStream(ticks, channels)
            return
        stream = TimeTagStream(ticks, channels)
        assert (stream.ticks.dtype, stream.channels.dtype) == (np.uint64, np.uint8)
        assert stream.ticks.tolist() == ticks.tolist()
        assert stream.channels.tolist() == channels.tolist()

    def test_non_monotonic_warns_but_preserves(self):
        stream = stream_of([(10, 0), (5, 1)])
        with pytest.warns(UserWarning, match="non-monotonic"):
            data = encode(stream)
        with pytest.warns(UserWarning, match="non-monotonic"):
            back = decode(data)
        assert back == stream

    @settings(max_examples=200, deadline=None)
    @given(ticks=st.lists(st.integers(0, MAX_TICK), max_size=12))
    @example(ticks=[MAX_TICK, 0])
    @example(ticks=[0, MAX_TICK])
    @example(ticks=[1 << 59, (1 << 59) - 1])
    def test_warns_exactly_when_a_tick_decreases(self, ticks):
        stream = TimeTagStream(np.array(ticks, dtype=np.uint64), np.zeros(len(ticks), dtype=np.uint8))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert decode(encode(stream)) == stream
        expected = ["encode", "decode"] if any(b < a for a, b in zip(ticks, ticks[1:])) else []
        assert [str(w.message) for w in caught] == [f"{where}: non-monotonic ticks (preserved)" for where in expected]

    def test_encode_returns_its_word_array_uncopied(self):
        n = 1 << 20
        rng = np.random.default_rng(5)
        stream = TimeTagStream(np.sort(rng.integers(0, MAX_TICK, size=n, dtype=np.uint64)), rng.integers(0, 16, n))
        tracemalloc.start()
        try:
            data = encode(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 8 B/record of words, returned as a view; no bytes copy, widened channels or byte-order copy
        assert peak / n <= 8.5, peak / n
        assert decode(data) == stream

    def test_markers_pass_through(self):
        stream = stream_of([(100, 2), (200, 15), (300, 1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            back = decode(encode(stream))
        assert back == stream
        assert list(back.channels[back.channels < 4]) == [2, 1]


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

    def test_nonpositive_period_rejected(self):
        with pytest.raises(ValueError, match="period must be positive"):
            recover_phase(TimeTagStream(np.arange(20, dtype=np.uint64), np.zeros(20, dtype=np.uint8)), 0)

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
            kept = result.accepted.ticks
            d = kept.astype(np.int64) - 40 - PERIOD * frame_indices(kept, 40, PERIOD)
            assert np.all(np.abs(d) <= w / 2)

    @settings(max_examples=200, deadline=None)
    @given(
        records=st.lists(st.tuples(st.integers(0, MAX_TICK), st.one_of(st.integers(0, 3), st.integers(4, 15))), max_size=50),
        data=st.data(),
    )
    def test_keeps_markers_and_detections_whose_frame_offset_lies_in_the_window(self, records, data):
        # gate's window is on the offset from frame_indices' frame, at every period, phase and width
        period = data.draw(st.integers(1, 1000))
        phase = data.draw(st.integers(0, period - 1))
        w = data.draw(st.integers(1, period))
        ticks = np.array([t for t, _ in records], dtype=np.uint64)
        chans = np.array([c for _, c in records], dtype=np.uint8)
        result = gate(TimeTagStream(ticks, chans), period, phase, w)
        d = ticks.astype(np.int64) - phase - period * frame_indices(ticks, phase, period)
        keep = (chans >= 4) | ((-(w // 2) <= d) & (d <= (w - 1) // 2))
        assert result.accepted == TimeTagStream(ticks[keep], chans[keep])
        assert result.rejected == len(records) - int(keep.sum())

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

    @pytest.mark.parametrize("phase", [-1, PERIOD, PERIOD + 37])
    def test_phase_outside_one_period_rejected(self, phase):
        # a phase a period off would gate the same residues but hand sift frames shifted by one
        with pytest.raises(ValueError, match=rf"^phase must lie in \[0, {PERIOD}\), got {phase}$"):
            gate(stream_of([(37, 0)]), PERIOD, phase, 13)

    def test_window_rounding(self):
        assert window_ticks_from_seconds(1e-9) == 13
        assert window_ticks_from_seconds(10e-9) == 128
        assert window_ticks_from_seconds(78.125e-12) == 1


#: the Alice log header and its 12 lines, indexed by bit | basis << 1 | class << 2
ALICE_HEADER = b"code\n"
ALICE_ROWS = [b"%x\n" % c for c in range(12)]
#: pieces a junk line is made of: digits, near-digits, whole lines, CR, LF, NUL and a non-ASCII byte
JUNK_PIECES = [b"0", b"9", b"a", b"b", b"c", b"f", b"A", b"B", b" ", b"\r", b"\n", b"\x00", b"\xff"]
JUNK_PIECES += ALICE_ROWS[9:]


def reference_parse(data: bytes):
    """Line by line: the codes of a valid log, or the number of its first bad line."""
    lines = io.BytesIO(data).readlines()
    assert lines[0] == ALICE_HEADER
    codes = []
    for number, line in enumerate(lines[1:], start=2):
        if line not in ALICE_ROWS:
            return number
        codes.append(ALICE_ROWS.index(line))
    return np.array(codes, dtype=np.uint8)


def make_alice(n, rng):
    return AliceLog(rng.integers(0, 12, n).astype(np.uint8))


def csv_bytes(alice):
    """The bytes ``to_csv`` writes for ``alice``."""
    buf = io.BytesIO()
    alice.to_csv(buf)
    return buf.getvalue()


class Sink:
    """A binary file object that discards what is written and records each write's size."""

    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(memoryview(data).nbytes)
        return self.writes[-1]


def reference_tally(codes, channels, weights):
    """Per-pair tally: Alice's bit, basis, class and Bob's basis, bit spelled out."""
    table = [[0] * 3 for _ in range(3)]
    for code, channel, w in zip(codes, channels, weights):
        bit, basis, cls = code % 2, code // 2 % 2, code // 4
        bob_basis, bob_bit = channel // 2, channel % 2
        table[0][cls] += w
        if bob_basis == basis:
            table[1][cls] += w
            if bob_bit != bit:
                table[2][cls] += w
    return table


class TestTally:
    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 3), st.floats(0, 1)), max_size=100),
        dtype=st.sampled_from([np.uint8, np.int64]),
    )
    def test_matches_per_pair_reference(self, pairs, dtype):
        codes = np.array([c for c, _, _ in pairs], dtype=dtype)
        channels = np.array([ch for _, ch, _ in pairs], dtype=dtype)
        weights = np.array([w for _, _, w in pairs], dtype=float)
        counts = timetag.tally(codes, channels)
        assert counts.dtype == np.int64
        assert counts.tolist() == reference_tally(codes.tolist(), channels.tolist(), [1] * len(pairs))
        expected = reference_tally(codes.tolist(), channels.tolist(), weights.tolist())
        assert np.allclose(timetag.tally(codes, channels, weights), expected, rtol=1e-12, atol=0)

    def test_each_basis_and_bit(self):
        # signal H sent (code 0): Bob's H is right, V wrong, D and A unsifted
        counts = timetag.tally(np.zeros(4, np.uint8), np.arange(4, dtype=np.uint8))
        assert counts.tolist() == [[4, 0, 0], [2, 0, 0], [1, 0, 0]]
        # decoy-2 A sent (code 11 = bit 1, basis X): Bob's A is right, D wrong
        counts = timetag.tally(np.full(4, 11, np.uint8), np.arange(4, dtype=np.uint8))
        assert counts.tolist() == [[0, 0, 4], [0, 0, 2], [0, 0, 1]]

    @settings(max_examples=100, deadline=None)
    @given(codes=st.lists(st.integers(0, 11), max_size=300), block=st.integers(1, 400))
    def test_sent_per_class_counts_codes(self, codes, block):
        with pytest.MonkeyPatch.context() as mp:  # counted in blocks of any size
            mp.setattr(timetag, "_READ_ROWS", block)
            counts = timetag.sent_per_class(np.array(codes, dtype=np.uint8))
        assert counts.tolist() == [sum(c // 4 == k for c in codes) for k in range(3)]


class TestPeriodTicks:
    @pytest.mark.parametrize("rate, ticks", [(1e8, 128), (5e7, 256), (2e8, 64), (1.28e10, 1)])
    def test_whole_periods(self, rate, ticks):
        assert timetag.period_ticks(rate) == ticks

    @pytest.mark.parametrize("rate", [1.1e8, 97e6, 1e9])
    def test_fractional_period_rejected(self, rate):
        # 1.1e8 Hz is 116.36 ticks; rounding it to 116 would misplace every frame
        with pytest.raises(ValueError, match="not an integer number of"):
            timetag.period_ticks(rate)


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
        assert key.sifted.sum() == n
        assert key.counts[3].sum() == 0
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
        frac = key.sifted.sum() / n
        assert abs(frac - 0.5) <= 3 * math.sqrt(0.25 / n)

    def test_collisions_resolved_and_counted(self):
        alice = AliceLog(np.array([0, 1, 2], dtype=np.uint8))  # signal Z0, Z1, X0
        # two accepted records land in frame 1
        stream = stream_of([(37, 0), (PERIOD + 36, 2), (PERIOD + 38, 3), (2 * PERIOD + 37, 2)])
        gated = gate(stream, PERIOD, 37, 13)
        key = sift(alice, gated, PERIOD, seed=3)
        assert key.collisions == 1
        assert key.detected.sum() == 3

    def test_out_of_log_frames_dropped(self):
        alice = AliceLog(np.zeros(2, dtype=np.uint8))
        stream = stream_of([(37, 0), (PERIOD * 50 + 37, 0)])
        gated = gate(stream, PERIOD, 37, 13)
        key = sift(alice, gated, PERIOD, seed=4)
        assert key.detected.sum() == 1
        assert key.unattributed == 1

    @pytest.mark.parametrize("phase", [-1, 0, PERIOD - 1, PERIOD, PERIOD + 37])
    def test_phase_outside_one_period_rejected(self, phase):
        # frames are counted from the phase, so one a period off would attribute every record to its neighbour
        alice = AliceLog(np.zeros(2, dtype=np.uint8))
        gated = timetag.GatingResult(stream_of([(PERIOD + phase, 0)]), rejected=0, phase_ticks=phase)
        if 0 <= phase < PERIOD:
            assert sift(alice, gated, PERIOD).detected.sum() == 1
        else:
            with pytest.raises(ValueError, match=rf"^phase must lie in \[0, {PERIOD}\), got {phase}$"):
                sift(alice, gated, PERIOD)

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
        assert key.unattributed == 3
        assert np.array_equal(key.sent, np.bincount(alice.code >> 2, minlength=3))
        assert np.array_equal(key.detected, np.bincount(alice.code[chosen] >> 2, minlength=3))
        assert np.array_equal(key.counts[1:], timetag.tally(alice.code[chosen], chans[: len(chosen)]))

    @settings(max_examples=200, deadline=None)
    @given(
        codes=st.lists(st.integers(0, 11), min_size=1, max_size=30),
        records=st.lists(st.tuples(st.integers(-2, 32), st.integers(-6, 6), st.integers(0, 5)), max_size=60),
        in_order=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # out of order, frame 2 twice (channel 0, then channel 1): at seed 0 the frame keeps its
    # second record; at seeds 1-4 a permutation over all four records keeps the other one
    @example(codes=[0, 0, 0], records=[(2, 0, 0), (1, 0, 0), (2, 0, 1), (0, 0, 1)], in_order=False, seed=0)
    @example(codes=[0, 0, 0], records=[(2, 0, 0), (1, 0, 0), (2, 0, 1), (0, 0, 1)], in_order=False, seed=1)
    @example(codes=[0, 0, 0], records=[(2, 0, 0), (1, 0, 0), (2, 0, 1), (0, 0, 1)], in_order=False, seed=2)
    @example(codes=[0, 0, 0], records=[(2, 0, 0), (1, 0, 0), (2, 0, 1), (0, 0, 1)], in_order=False, seed=3)
    @example(codes=[0, 0, 0], records=[(2, 0, 0), (1, 0, 0), (2, 0, 1), (0, 0, 1)], in_order=False, seed=4)
    def test_sift_keeps_one_record_per_frame_by_one_draw_per_shared_frame(self, codes, records, in_order, seed):
        # a loop over the frames in ascending order, on streams in or out of order, with
        # collisions, marker records and frames outside the log: a frame with k >= 2 records
        # keeps its record floor(u * k) in stream order, u being its draw of default_rng(seed)
        if in_order:
            records = sorted(records)
        alice = AliceLog(np.array(codes, dtype=np.uint8))
        ticks = np.array([max(f * PERIOD + 37 + d, 0) for f, d, _ in records], dtype=np.uint64)
        chans = np.array([c for _, _, c in records], dtype=np.uint8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # out-of-order ticks warn
            key = sift(alice, gate(TimeTagStream(ticks, chans), PERIOD, 37, 13), PERIOD, seed=seed)
        by_frame = {}
        for f, _, c in records:
            if c < 4 and 0 <= f < len(codes):
                by_frame.setdefault(f, []).append(c)
        order = sorted(by_frame)
        shared = [f for f in order if len(by_frame[f]) > 1]
        draws = dict(zip(shared, np.random.default_rng(seed).random(len(shared)).tolist()))
        code = np.array([codes[f] for f in order], dtype=np.uint8)
        channel = np.array([by_frame[f][int(draws.get(f, 0.0) * len(by_frame[f]))] for f in order], dtype=np.uint8)
        assert key.collisions == sum(len(kept) - 1 for kept in by_frame.values())
        # frames below 0 clip to tick 0, which the gate rejects
        assert key.unattributed == sum(c < 4 and f >= len(codes) for f, _, c in records)
        sent = [sum(c >> 2 == k for c in codes) for k in range(3)]
        assert np.array_equal(key.counts, np.vstack([sent, timetag.tally(code, channel)]))

    def test_sift_keeps_each_record_of_a_shared_frame_equally_often(self):
        # 3,000 frames of Alice's code 0 (signal, Z, bit 0), each with records on channels
        # 0, 1 and 2 in that order: the kept one is sifted-correct, sifted-error or unsifted
        # with 1/3 each.  Pearson chi-square, 2 degrees of freedom; 13.82 is the 99.9% quantile
        frames = 3000
        ticks = np.repeat(np.arange(frames) * PERIOD + 37, 3).astype(np.uint64)
        chans = np.tile(np.arange(3, dtype=np.uint8), frames)
        gated = gate(TimeTagStream(ticks, chans), PERIOD, 37, 13)
        key = sift(AliceLog(np.zeros(frames, dtype=np.uint8)), gated, PERIOD, seed=0)
        sent, detected, sifted, errored = key.counts[:, 0]
        observed = np.array([sifted - errored, errored, detected - sifted])
        assert key.collisions == 2 * frames and observed.sum() == frames
        chi2 = float(((observed - frames / 3) ** 2 / (frames / 3)).sum())
        assert chi2 <= 13.82, (chi2, observed.tolist())

    @settings(max_examples=200, deadline=None)
    @given(
        codes=st.lists(st.integers(0, 11), min_size=1, max_size=30),
        records=st.lists(st.tuples(st.integers(0, 40), st.integers(-20, 20), st.integers(0, 5)), max_size=80),
        seed=st.integers(0, 2**32 - 1),
    )
    # a shared frame, a frame past the log, a record outside the gate and a marker
    @example(codes=[0, 4], records=[(0, 0, 0), (0, 1, 1), (5, 0, 2), (1, 30, 3), (1, 0, 4)], seed=0)
    def test_sift_table_conserves_counts(self, codes, records, seed):
        # markers (channels 4 and 5), records outside the gate, frames past the log and
        # shared frames, in or out of order: each row of the table is a subset of the one above
        alice = AliceLog(np.array(codes, dtype=np.uint8))
        ticks = np.array([f * PERIOD + 37 + d for f, d, _ in records], dtype=np.uint64)
        chans = np.array([c for _, _, c in records], dtype=np.uint8)
        key = sift(alice, gate(TimeTagStream(ticks, chans), PERIOD, 37, 13), PERIOD, seed=seed)
        sent, detected, sifted, errored = key.counts
        assert np.all((sent >= detected) & (detected >= sifted) & (sifted >= errored) & (errored >= 0))
        assert sent.sum() == len(alice)
        gated_in_log = sum(c < 4 and -6 <= d <= 6 and f < len(codes) for f, d, c in records)
        assert detected.sum() == gated_in_log - key.collisions
        assert key.unattributed == sum(c < 4 and -6 <= d <= 6 and f >= len(codes) for f, d, c in records)

    def test_sift_memory(self):
        # one draw per shared frame, and nothing is sorted when the frames are in
        # order (np.unique over every frame traced ~76 B/record)
        rng = np.random.default_rng(9)
        frames = 1 << 21
        alice = make_alice(frames, rng)
        hits = np.sort(rng.integers(0, frames, size=1 << 17))  # some frames twice: collisions
        ticks = (hits * PERIOD + 37 + rng.integers(-6, 7, size=len(hits))).astype(np.uint64)
        gated = gate(TimeTagStream(ticks, rng.integers(0, 4, size=len(hits), dtype=np.uint8)), PERIOD, 37, 13)
        sift(alice, gated, PERIOD, seed=1)
        tracemalloc.start()
        try:
            key = sift(alice, gated, PERIOD, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert key.collisions > 0
        assert peak / len(gated.accepted) <= 40, peak / len(gated.accepted)

    @settings(max_examples=100, deadline=None)
    @given(
        codes=st.lists(st.integers(0, 11), max_size=200),
        dtype=st.sampled_from([np.uint8, np.int16, np.int64, np.uint64]),
    )
    def test_alice_log_csv_round_trip(self, codes, dtype):
        # the same codes write the same bytes whatever integer type holds them
        alice = AliceLog(np.array(codes, dtype=dtype))
        data = csv_bytes(alice)
        assert data == ALICE_HEADER + b"".join(ALICE_ROWS[c] for c in codes)
        back = AliceLog.from_csv(io.BytesIO(data))
        assert back.code.dtype == np.uint8
        assert np.array_equal(back.code, alice.code)

    def test_alice_log_reads_only_the_12_lines(self):
        # of all 65,536 two-byte lines exactly "0\n" .. "b\n" parse, each to its code;
        # "A", "B", "c"-"f", CR, NUL and a missing LF among the rest name line 2
        parsed = {}
        for word in range(1 << 16):
            line = word.to_bytes(2, "little")
            try:
                parsed[line] = AliceLog.from_csv(io.BytesIO(ALICE_HEADER + line)).code.tolist()
            except ValueError as exc:
                assert str(exc) == "alice log line 2: malformed row", line
        assert parsed == {line: [code] for code, line in enumerate(ALICE_ROWS)}

    @settings(max_examples=200, deadline=None)
    @given(
        codes=st.lists(st.integers(0, 11), max_size=40),
        at=st.integers(0, 40),
        junk=st.lists(st.sampled_from(JUNK_PIECES), max_size=6).map(b"".join),
        drop_last_lf=st.booleans(),
    )
    @example(codes=[0, 1], at=1, junk=b"\n", drop_last_lf=False)  # an empty line
    @example(codes=[0, 1], at=1, junk=b"0b\n", drop_last_lf=False)  # 3 bytes
    @example(codes=[0, 1], at=1, junk=b"0\r\n", drop_last_lf=False)
    @example(codes=[0, 1], at=2, junk=b"", drop_last_lf=True)  # last line without its LF
    @example(codes=[0, 1], at=1, junk=b"\n0", drop_last_lf=False)  # an empty line, then one word in step again
    def test_alice_log_reports_the_first_bad_line(self, codes, at, junk, drop_last_lf):
        rows = [ALICE_ROWS[c] for c in codes]
        at = min(at, len(rows))
        data = ALICE_HEADER + b"".join(rows[:at]) + junk + b"".join(rows[at:])
        if drop_last_lf and len(data) > len(ALICE_HEADER) and data.endswith(b"\n"):
            data = data[:-1]
        expected = reference_parse(data)
        if isinstance(expected, int):
            with pytest.raises(ValueError, match=f"^alice log line {expected}: malformed row$"):
                AliceLog.from_csv(io.BytesIO(data))
        else:
            assert np.array_equal(AliceLog.from_csv(io.BytesIO(data)).code, expected)

    @pytest.mark.parametrize("junk", [b"0b\n", b"\n", b"b"])
    @pytest.mark.parametrize("shift", [-1, 0, 1])
    def test_alice_log_bad_row_at_a_block_boundary(self, junk, shift):
        # a log longer than one read block, with the bad line in the last
        # line of the first block, the first line of the second or the one after
        rows = ALICE_ROWS * (timetag._READ_ROWS // 12 + 2)
        at = timetag._READ_ROWS + shift
        data = ALICE_HEADER + b"".join(rows[:at]) + junk + b"".join(rows[at:])
        assert reference_parse(data) == at + 2
        with pytest.raises(ValueError, match=f"^alice log line {at + 2}: malformed row$"):
            AliceLog.from_csv(io.BytesIO(data))
        codes = np.resize(np.arange(12, dtype=np.uint8), len(rows))
        assert np.array_equal(AliceLog.from_csv(io.BytesIO(csv_bytes(AliceLog(codes)))).code, codes)

    def test_alice_log_streamed_through_one_block_buffer(self):
        # the 2-byte lines go out a block of codes at a time through one
        # reused buffer (a whole-log buffer would be 2 B/frame)
        frames = 1 << 20
        alice = AliceLog(np.random.default_rng(3).integers(0, 12, size=frames, dtype=np.uint8))
        sink = Sink()
        tracemalloc.start()
        try:
            alice.to_csv(sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / frames <= 0.5, peak / frames
        assert sum(sink.writes) == len(ALICE_HEADER) + 2 * frames
        assert max(sink.writes) == 2 * timetag._READ_ROWS
        assert np.array_equal(AliceLog.from_csv(io.BytesIO(csv_bytes(alice))).code, alice.code)

    def test_alice_log_read_into_one_array(self, tmp_path):
        # the codes fill one array sized from the file, so the peak grows by
        # one byte per added frame (per-block arrays joined at the end: ~1.94 B)
        sizes, peaks = (1 << 20, 1 << 22), []
        for frames in sizes:
            codes = np.resize(np.arange(12, dtype=np.uint8), frames)
            path = tmp_path / f"{frames}.alice.csv"
            with open(path, "wb") as fh:
                AliceLog(codes).to_csv(fh)
            with open(path, "rb") as fh:
                tracemalloc.start()
                try:
                    back = AliceLog.from_csv(fh)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            assert np.array_equal(back.code, codes)
        growth = (peaks[1] - peaks[0]) / (sizes[1] - sizes[0])
        assert growth <= 1.1, growth

    def test_alice_log_that_shrinks_while_read_rejected(self):
        class Shrinking(io.BytesIO):
            def seek(self, pos, whence=0):
                end = super().seek(pos, whence)
                if whence == io.SEEK_END:  # the last line goes once the log is sized
                    self.truncate(end - 2)
                return end

        with pytest.raises(ValueError, match="^alice log changed size while it was read$"):
            AliceLog.from_csv(Shrinking(csv_bytes(AliceLog(np.zeros(10, np.uint8)))))

    @pytest.mark.parametrize("block", [1, 4, 1 << 16])
    def test_alice_log_that_grows_while_read_rejected(self, block, monkeypatch):
        # the line that arrives after the log is sized is past the array the codes fill
        monkeypatch.setattr(timetag, "_READ_ROWS", block)

        class Growing(io.BytesIO):
            def seek(self, pos, whence=0):
                end = super().seek(pos, whence)
                if whence == io.SEEK_END:
                    self.write(ALICE_ROWS[0])
                return end

        with pytest.raises(ValueError, match="^alice log changed size while it was read$"):
            AliceLog.from_csv(Growing(csv_bytes(AliceLog(np.zeros(8, np.uint8)))))

    @pytest.mark.parametrize("block", [1, 5, 7])
    def test_alice_log_streamed_rows_across_blocks(self, block, monkeypatch):
        # the bytes do not depend on where the blocks end
        monkeypatch.setattr(timetag, "_READ_ROWS", block)
        codes = np.resize(np.arange(12, dtype=np.uint8)[::-1], 4 * block + 1)
        for n in sorted({0, 1, block - 1, block, block + 1, 2 * block, 3 * block + 1, 4 * block + 1}):
            expected = ALICE_HEADER + b"".join(ALICE_ROWS[c] for c in codes[:n].tolist())
            assert csv_bytes(AliceLog(codes[:n])) == expected, n

    @pytest.mark.parametrize(
        "code, dtype",
        [([0, 12], np.int16), ([255, 3], np.uint8), ([-1, 0], np.int16), ([1 << 16 | 3], np.int64),
         ([-(1 << 63)], np.int64), ([(1 << 64) - 1], np.uint64)],
    )
    def test_alice_log_out_of_range_value_not_written(self, code, dtype):
        # the check comes before the header: nothing reaches the file, and a
        # code that a 16-bit line would wrap to 0..11 is no exception
        alice = AliceLog(np.array(code, dtype=dtype))
        sink = Sink()
        with pytest.raises(ValueError, match="out of range"):
            alice.to_csv(sink)
        assert sink.writes == []

    @pytest.mark.parametrize(
        "code, message", [(np.zeros((2, 2), np.uint8), "ndim=2"), (np.array([0, 2.5]), "dtype=float64")]
    )
    def test_alice_log_of_a_non_integer_or_not_1d_array_rejected(self, code, message):
        with pytest.raises(ValueError, match=f"^alice log code must be a 1-d integer array, got .*{message}"):
            AliceLog(code)

    @pytest.mark.parametrize("junk", [b"c\n", b"A\n", b"0\r"], ids=["c", "A", "CR"])
    @pytest.mark.parametrize("block", [1, 4, 5, 7, None])
    @pytest.mark.parametrize("tail", [1, 2])
    def test_alice_log_bad_row_anywhere_in_a_block(self, junk, block, tail, monkeypatch):
        # a 2-byte bad line at each place a block's lines go: first, last and
        # in between, in the first block, in the next and in the last, shorter
        # one, so each is named whichever block reads it
        if block is not None:
            monkeypatch.setattr(timetag, "_READ_ROWS", block)
        block = timetag._READ_ROWS
        rows = [ALICE_ROWS[c] for c in np.random.default_rng(block).integers(0, 12, 2 * block + tail).tolist()]
        places = range(len(rows)) if block < 8 else [0, 1, 2, 3, 4, 5, block - 2, block - 1, block, block + 1]
        for at in sorted({*places, 2 * block, 2 * block + tail - 1}):
            data = ALICE_HEADER + b"".join(rows[:at]) + junk + b"".join(rows[at + 1 :])
            assert reference_parse(data) == at + 2
            with pytest.raises(ValueError, match=f"^alice log line {at + 2}: malformed row$"):
                AliceLog.from_csv(io.BytesIO(data))

    @pytest.mark.parametrize(
        "data",
        [b"frame,bit,basis,class\n0,1,Z,signal\n", b"bit,basis,class\n0,Z,signal\n", b"code\r\n0\r\n", b""],
        ids=["old-format", "row-format", "crlf", "empty"],
    )
    def test_alice_log_bad_header_rejected(self, data):
        with pytest.raises(ValueError, match="bad alice log header"):
            AliceLog.from_csv(io.BytesIO(data))


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
        assert key.counts[3].sum() == s.counts[3].sum()


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

    @pytest.mark.parametrize("phase", [-1, PERIOD, PERIOD + 37])
    def test_phase_outside_one_period_rejected(self, phase):
        # the one phase check that gate and sift rely on
        with pytest.raises(ValueError, match=rf"^phase must lie in \[0, {PERIOD}\), got {phase}$"):
            frame_indices(np.array([PERIOD + 37], dtype=np.uint64), phase, PERIOD)

    @settings(max_examples=200, deadline=None)
    @given(ticks=st.lists(st.integers(0, MAX_TICK), min_size=1, max_size=50), data=st.data())
    def test_offset_from_the_home_frame_is_the_circular_residue(self, ticks, data):
        # the offset gate windows on, tick - phase - P * frame, lies in [-P/2, P/2)
        # and equals the residue of tick - phase folded into that range
        period = data.draw(st.integers(1, 1000))
        phase = data.draw(st.integers(0, period - 1))
        t = np.array(ticks, dtype=np.uint64)
        d = t.astype(np.int64) - phase - period * frame_indices(t, phase, period)
        assert np.all((-(period // 2) <= d) & (d <= (period - 1) // 2))
        assert d.tolist() == [((tick - phase) % period + period // 2) % period - period // 2 for tick in ticks]
