"""Binary timetag codec, clock-phase recovery, software gating and sifting.

Wire format: one little-endian 64-bit word per record, bits 63..4 the
tick count (78.125 ps units, 60 bits) and bits 3..0 the channel.
Channels 0..3 are the four polarization detectors (H, V, D, A); values
4..15 are reserved for markers and pass through every stage untouched.

A 100 MHz pulse train has a period of exactly 128 ticks
(:func:`period_ticks`), so all frame and residue arithmetic is integer.

Alice's log is one code per frame, ``bit | basis << 1 | class << 2``,
and Bob's detector channel is ``basis << 1 | bit``; :func:`tally` and
:func:`sent_per_class` are the one per-class counting rule for both.
They fill one (4, 3) table, rows sent, detected, sifted and errored per
class, held by :class:`ClassCounts`; :func:`ratios` is its one gain and
QBER rule.
On disk it is CSV: the header ``bit,basis,class``, then one row per
frame from frame 0 on (row i is frame i).  Each row is one of 12 lines
of exactly 11 bytes, and lines end in LF only, so a CRLF log is
rejected.  The codec is array code: one renderer writes the rows, three
per copy from a table of row triples.  Reading derives each block's
codes in place and checks its bytes against the rows rendered from
them.  Both stream through the file a block of rows at a time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

#: timestamp resolution of the timetagging unit
TICK_SECONDS = 78.125e-12
MAX_TICK = (1 << 60) - 1
CLASS_LABELS = ("signal", "decoy1", "decoy2")


@dataclass(frozen=True)
class TimeTagStream:
    """A sequence of timetag records as parallel arrays."""

    ticks: np.ndarray
    channels: np.ndarray

    def __post_init__(self):
        t, c = np.asarray(self.ticks), np.asarray(self.channels)  # checked as given, so a cast cannot wrap
        if t.dtype.kind not in "iu" or c.dtype.kind not in "iu":
            raise ValueError(f"ticks and channels must be integer arrays, got {t.dtype} and {c.dtype}")
        if t.shape != c.shape or t.ndim != 1:
            raise ValueError("ticks and channels must be 1-d arrays of equal length")
        if len(t) and (int(t.min()) < 0 or int(t.max()) > MAX_TICK):
            raise ValueError("tick exceeds the 60-bit range")
        if len(c) and (int(c.min()) < 0 or int(c.max()) > 15):
            raise ValueError("channel exceeds the 4-bit range")
        object.__setattr__(self, "ticks", np.ascontiguousarray(t, dtype=np.uint64))
        object.__setattr__(self, "channels", np.ascontiguousarray(c, dtype=np.uint8))

    def __len__(self) -> int:
        return len(self.ticks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TimeTagStream)
            and np.array_equal(self.ticks, other.ticks)
            and np.array_equal(self.channels, other.channels)
        )


def _warn_if_nonmonotonic(ticks: np.ndarray, where: str) -> None:
    if np.any(ticks[1:] < ticks[:-1]):
        warnings.warn(f"{where}: non-monotonic ticks (preserved)", stacklevel=3)


def encode(stream: TimeTagStream) -> memoryview:
    """Pack records into the 64-bit little-endian wire format, as a byte view of the words (no copy)."""
    _warn_if_nonmonotonic(stream.ticks, "encode")
    words = stream.ticks << np.uint64(4)
    words |= stream.channels
    return memoryview(words.astype("<u8", copy=False)).cast("B")


def decode(data: bytes) -> TimeTagStream:
    """Unpack the wire format; marker channels are passed through."""
    if len(data) % 8 != 0:
        raise ValueError(f"truncated timetag stream: {len(data)} bytes is not a whole number of records")
    words = np.frombuffer(data, dtype="<u8")
    ticks = words >> np.uint64(4)
    channels = (words & np.uint64(0xF)).astype(np.uint8)
    _warn_if_nonmonotonic(ticks, "decode")
    return TimeTagStream(ticks, channels)


@dataclass(frozen=True)
class PhaseEstimate:
    phase_ticks: int
    contrast: float
    low_confidence: bool


def recover_phase(stream: TimeTagStream, period_ticks: int) -> PhaseEstimate:
    """Locate the pulse-train phase from the residues of the tick stream.

    Histograms tick mod period over the detection records and returns the
    circular-mean peak location, rounded to the nearest tick.  Streams
    whose residue histogram has peak/mean contrast below 2 (uniform-ish
    arrivals) are flagged low-confidence.  Fewer than 10 detection
    records raise ValueError.
    """
    if period_ticks <= 0:
        raise ValueError("period must be positive")
    ticks = stream.ticks[stream.channels < 4]
    if len(ticks) < 10:
        raise ValueError(f"insufficient data: need at least 10 detection records, got {len(ticks)}")
    residues = (ticks % np.uint64(period_ticks)).astype(np.int64)
    hist = np.bincount(residues, minlength=period_ticks).astype(float)
    angles = 2.0 * np.pi * np.arange(period_ticks) / period_ticks
    z = np.sum(hist * np.exp(1j * angles))
    phase = int(np.round(np.angle(z) / (2.0 * np.pi) * period_ticks)) % period_ticks
    contrast = float(hist.max() / hist.mean())
    return PhaseEstimate(phase_ticks=phase, contrast=contrast, low_confidence=contrast < 2.0)


@dataclass(frozen=True)
class GatingResult:
    accepted: TimeTagStream
    rejected: int
    phase_ticks: int


def period_ticks(pulse_rate_hz: float) -> int:
    """Ticks per pulse period; ValueError unless that is a whole number of ticks."""
    ticks = 1.0 / pulse_rate_hz / TICK_SECONDS
    if abs(ticks - round(ticks)) > 1e-6:
        raise ValueError(f"pulse period {1.0 / pulse_rate_hz} s is not an integer number of {TICK_SECONDS} s ticks")
    return round(ticks)


def window_ticks_from_seconds(window_s: float) -> int:
    """Nearest-integer tick count of a gate window (1 ns -> 13 ticks)."""
    return max(1, int(round(window_s / TICK_SECONDS)))


def gate(stream: TimeTagStream, period_ticks: int, phase_ticks: int, window_ticks: int) -> GatingResult:
    """Keep detections within the software window around the clock phase.

    A window of w ticks accepts exactly the w offsets d = t - phase - P * frame in [-(w//2), (w-1)//2]
    (1 ns, 13 ticks: d in -6..+6), the frame and the phase check being :func:`frame_indices`'s, as in :func:`sift`.
    Markers pass through unconditionally.
    """
    if not 0 < window_ticks <= period_ticks:
        raise ValueError("window must lie in (0, period]")
    t = stream.ticks.astype(np.int64)
    d = t - phase_ticks - period_ticks * frame_indices(t, phase_ticks, period_ticks)
    in_window = (d >= -(window_ticks // 2)) & (d <= (window_ticks - 1) // 2)
    keep = in_window | (stream.channels >= 4)
    rejected = int(len(stream) - keep.sum())
    return GatingResult(
        accepted=TimeTagStream(stream.ticks[keep], stream.channels[keep]),
        rejected=rejected,
        phase_ticks=phase_ticks,
    )


def frame_indices(ticks: np.ndarray, phase_ticks: int, period_ticks: int) -> np.ndarray:
    """Pulse-frame index of each record, (tick - phase + P//2) div P; owns the frame rule and the phase range [0, P)."""
    if not 0 <= phase_ticks < period_ticks:
        raise ValueError(f"phase must lie in [0, {period_ticks}), got {phase_ticks}")
    return (ticks.astype(np.int64) - phase_ticks + period_ticks // 2) // period_ticks


#: the Alice log's header and its 12 rows, indexed by bit | basis << 1 | class << 2
_ALICE_HEADER = b"bit,basis,class\n"
_ALICE_ROWS = np.array(
    [f"{code & 1},{'ZX'[code >> 1 & 1]},{CLASS_LABELS[code >> 2]}\n".encode() for code in range(12)], dtype="S11"
)
_ROW_BYTES = _ALICE_ROWS.itemsize
#: the 1,728 runs of three rows, ``_ALICE_ROWS[a] + _ALICE_ROWS[b] + _ALICE_ROWS[c]`` at ``144 a + 12 b + c``,
#: so one copy writes three rows; it goes with the CSV codec once the log is binary (ROADMAP item 1)
_ALICE_TRIPLES = (_ALICE_ROWS[:, None, None] + _ALICE_ROWS[:, None] + _ALICE_ROWS).ravel()
#: rows the codec writes, or reads and checks, at a time (and codes ``sent_per_class`` counts),
#: so working memory stays small
_READ_ROWS = 1 << 16


def _alice_rows(code: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """The CSV rows of ``code``, written into the front of the ``uint8`` buffer ``buf``; returns those bytes.

    The first 3 * (n // 3) codes go three rows per copy through
    ``_ALICE_TRIPLES``, the 0-2 left through ``_ALICE_ROWS``.  Both takes
    clip, so a code of 12..15 (one ``from_csv`` derives from a bad row)
    still writes valid rows; so does a triple aliased by such a code.
    """
    n = len(code)
    m = n - n % 3
    triple = code[0:m:3] * np.uint16(12)
    triple += code[1:m:3]
    triple *= 12
    triple += code[2:m:3]
    np.take(_ALICE_TRIPLES, triple, out=buf[: m * _ROW_BYTES].view(_ALICE_TRIPLES.dtype), mode="clip")
    np.take(_ALICE_ROWS, code[m:], out=buf[m * _ROW_BYTES : n * _ROW_BYTES].view(_ALICE_ROWS.dtype), mode="clip")
    return buf[: n * _ROW_BYTES]


@dataclass(frozen=True)
class AliceLog:
    """Per-frame record of what the source emitted; entry i is frame i."""

    code: np.ndarray  # uint8, bit | basis << 1 | class << 2; basis 0=Z 1=X, class 0=signal 1=decoy1 2=decoy2

    def __post_init__(self):
        code = self.code
        if not (isinstance(code, np.ndarray) and code.ndim == 1 and code.dtype.kind in "iu"):
            got = f"ndim={code.ndim}, dtype={code.dtype}" if isinstance(code, np.ndarray) else type(code).__name__
            raise ValueError(f"alice log code must be a 1-d integer array, got {got}")

    def __len__(self) -> int:
        return len(self.code)

    def to_csv(self, fh: BinaryIO) -> None:
        """Write the log as CSV into a binary file object: the header, then one row per frame.

        The codes are checked before the first byte is written.  The rows
        go out ``_READ_ROWS`` at a time, three rows per table copy, through
        one reused buffer, so the log is never held twice.
        """
        if len(self.code) and not 0 <= self.code.min() <= self.code.max() < len(_ALICE_ROWS):
            raise ValueError(f"alice log code out of range 0..{len(_ALICE_ROWS) - 1}")
        fh.write(_ALICE_HEADER)
        buf = np.empty(min(len(self.code), _READ_ROWS) * _ROW_BYTES, np.uint8)
        for i in range(0, len(self.code), _READ_ROWS):  # a block's triple index and take's intp copy stay small
            fh.write(_alice_rows(self.code[i : i + _READ_ROWS], buf))

    @classmethod
    def from_csv(cls, fh: BinaryIO) -> "AliceLog":
        """Parse a seekable binary file object, e.g. ``open(path, "rb")``; a bad line raises ValueError.

        Every valid row is one of the 12 rows, 11 bytes each, so the file
        is read as fixed-width rows: each row's code is derived in place
        from three of its bytes, and a block is accepted when the rows
        rendered from those codes equal its bytes, compared as 64-bit
        words.  Rendered rows are always valid, so equal bytes mean every
        row is valid and carries its derived code.  On a mismatch the
        block is rebuilt one row per code: up to the first bad line every
        line is a whole row, so the first mismatching row (or a trailing
        partial one) starts exactly at that line.  The codes fill one
        array sized from the file, through two reused buffers.
        """
        header = fh.readline()
        if header != _ALICE_HEADER:
            raise ValueError(f"bad alice log header: {header.decode('ascii', 'backslashreplace')!r}")
        start = fh.tell()
        code = np.empty((fh.seek(0, 2) - start) // _ROW_BYTES, np.uint8)  # the whole rows
        fh.seek(start)
        buf = np.empty(_READ_ROWS * _ROW_BYTES, np.uint8)
        render_buf = np.empty_like(buf)
        done = 0  # rows accepted so far
        while got := fh.readinto(buf):
            n = got // _ROW_BYTES
            if done + n > len(code):  # the file grew past the rows the array was sized for
                break
            rows = buf[: n * _ROW_BYTES].reshape(n, _ROW_BYTES)
            block = code[done : done + n]
            # the codes, in place: class = the label's last byte ('l', '1', '2') & 3, bit = '0' / '1' & 1,
            # and basis from 'Z' (0x5A) or 'X' (0x58), whose shared bit 3 the ^ 0b1010 clears again
            np.left_shift(rows[:, 9], 2, out=block)
            block |= rows[:, 0]
            block ^= rows[:, 2]
            block ^= 0b1010
            block &= 0b1111
            rendered = _alice_rows(block, render_buf)
            words = len(rendered) - len(rendered) % 8
            if got != len(rendered) or not (  # a partial row after the last whole row, or a bad row
                np.array_equal(rendered[:words].view(np.uint64), buf[:words].view(np.uint64))
                and np.array_equal(rendered[words:], buf[words:got])
            ):
                rebuilt = np.take(_ALICE_ROWS, block, mode="clip").view(np.uint8).reshape(n, _ROW_BYTES)
                bad = np.append((rebuilt != rows).any(axis=1), True)
                raise ValueError(f"alice log line {done + int(np.argmax(bad)) + 2}: malformed row")
            done += n
        if got or done != len(code):
            raise ValueError("alice log changed size while it was read")
        return cls(code)


def sent_per_class(code: np.ndarray) -> np.ndarray:
    """(3,) frames of each intensity class among Alice codes."""
    below = np.zeros(2, dtype=np.int64)  # codes < 4 and < 8; bincount would widen the codes to intp
    for i in range(0, len(code), _READ_ROWS):  # a compare over the whole log would be a 1 B/frame temporary
        block = code[i : i + _READ_ROWS]
        below += np.count_nonzero(block < 4), np.count_nonzero(block < 8)
    return np.array([below[0], below[1] - below[0], len(code) - below[1]])


def tally(code: np.ndarray, channel: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """(3, 3) detected, sifted and errored counts per class of (code, channel) pairs, or their summed weights.

    A pair is sifted when Bob's basis matches Alice's, and errored when
    it is sifted and the bits differ.
    """
    sifted = (channel >> 1) == (code >> 1 & 1)
    cls, masks = code >> 2, (slice(None), sifted, sifted & ((channel & 1) != (code & 1)))
    return np.array([np.bincount(cls[m], None if weights is None else weights[m], minlength=3) for m in masks])


def ratios(counts: np.ndarray) -> np.ndarray:
    """(2, 3) gains detected/sent and QBERs errored/sifted of a (4, 3) count table; NaN at 0/0."""
    counts = np.asarray(counts)
    with np.errstate(divide="ignore", invalid="ignore"):
        return counts[1::2] / counts[::2]


@dataclass(frozen=True, eq=False)  # arrays have no single truth value to compare by
class ClassCounts:
    """A (4, 3) count table: rows sent, detected, sifted and errored; columns signal, decoy 1, decoy 2."""

    counts: np.ndarray

    sent = property(lambda self: self.counts[0])
    detected = property(lambda self: self.counts[1])  # frames with a detection
    sifted = property(lambda self: self.counts[2])  # detections whose measured basis matched

    def gain_class(self, i: int) -> float:
        return float(ratios(self.counts)[0, i])

    def qber_class(self, i: int) -> float:
        return float(ratios(self.counts)[1, i])


@dataclass(frozen=True, eq=False)
class SiftedKey(ClassCounts):
    """Result of matching Bob's gated detections against Alice's log."""

    collisions: int
    unattributed: int  # detection records whose frame lies outside the log

    sifted_per_class = ClassCounts.sifted


def sift(
    alice: AliceLog,
    gating: GatingResult,
    period_ticks: int,
    seed: int = 0,
) -> SiftedKey:
    """Sift the gated detections against Alice's emission log.

    Detections (channels 0-3) are mapped to frames by :func:`frame_indices`
    (which checks the phase); those outside the log are dropped as ``unattributed``.
    Each frame keeps one detection (the others count as ``collisions``),
    and the kept ones are counted by :func:`tally` under the log's
    :func:`sent_per_class`, so a gain from the table counts each frame once.

    A frame with k >= 2 detections keeps its detection floor(u * k),
    counted from 0 in stream order, u being the next value of
    ``default_rng(seed).random``: one draw per shared frame, in ascending
    frame order.  So each is kept with chance 1/k, and frame-aligned
    chunks drawing from one generator keep what one pass keeps.  The
    records are sorted (stably) only if their frames are out of order.
    """
    acc = gating.accepted
    frames = frame_indices(acc.ticks, gating.phase_ticks, period_ticks)
    ok = (acc.channels < 4) & (frames >= 0) & (frames < len(alice))
    frames, channels = frames[ok], acc.channels[ok]
    unattributed = int(np.count_nonzero(acc.channels < 4)) - len(frames)
    if np.any(frames[1:] < frames[:-1]):  # out of order: a stable sort keeps stream order within a frame
        order = np.argsort(frames, kind="stable")
        frames, channels = frames[order], channels[order]
        del order

    keep = np.ones(len(frames), dtype=bool)
    np.not_equal(frames[1:], frames[:-1], out=keep[1:])  # first record of its frame
    starts = np.flatnonzero(keep[:-1] & ~keep[1:])  # first records of the shared frames
    sizes = np.searchsorted(frames, frames[starts], "right") - starts
    keep[starts] = False  # move each shared frame's flag forward by floor(u * size)
    keep[starts + (np.random.default_rng(seed).random(len(starts)) * sizes).astype(np.int64)] = True
    collisions = len(frames) - int(np.count_nonzero(keep))
    frames, channels = frames[keep], channels[keep]

    counts = np.vstack([sent_per_class(alice.code), tally(alice.code[frames], channels)])
    return SiftedKey(counts, collisions, unattributed)


__all__ = [
    "TICK_SECONDS",
    "MAX_TICK",
    "CLASS_LABELS",
    "TimeTagStream",
    "encode",
    "decode",
    "PhaseEstimate",
    "recover_phase",
    "GatingResult",
    "period_ticks",
    "window_ticks_from_seconds",
    "gate",
    "frame_indices",
    "AliceLog",
    "sent_per_class",
    "tally",
    "ratios",
    "ClassCounts",
    "SiftedKey",
    "sift",
]
