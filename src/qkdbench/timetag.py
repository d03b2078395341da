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
On disk it is CSV: the header ``code``, then line i + 2 holds frame
i's code as one lowercase hex digit (``0``-``b``) and an LF, two bytes
in all, so a CRLF log is rejected.  The codec streams through the file
a block of lines at a time: it renders the lines by arithmetic and
reads each two-byte word's code from a table.
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
    return (ticks.astype(np.int64, copy=False) - phase_ticks + period_ticks // 2) // period_ticks


#: the Alice log's header, and the code of each two-byte line read as a little-endian word (255: not a line)
_ALICE_HEADER = b"code\n"
_LINE_CODES = np.full(1 << 16, 255, np.uint8)
_LINE_CODES[[ord(f"{code:x}") | ord("\n") << 8 for code in range(12)]] = range(12)
#: lines the codec writes, or reads and checks, at a time (and codes ``sent_per_class`` counts),
#: so working memory stays small
_READ_ROWS = 1 << 16


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
        """Write the log as CSV into a binary file object: the header ``code``, then one line per frame.

        The codes are checked before the first byte is written.  Each block of ``_READ_ROWS``
        lines is rendered as little-endian words, hex digit low and LF high, in one reused buffer.
        """
        code = self.code
        if len(code) and not 0 <= code.min() <= code.max() <= 11:
            raise ValueError("alice log code out of range 0..11")
        fh.write(_ALICE_HEADER)
        buf = np.empty((2, min(len(code), _READ_ROWS)), "<u2")
        for i in range(0, len(code), _READ_ROWS):
            line, past_9 = buf[:, : len(code) - i]
            line[:] = code[i : i + _READ_ROWS]  # from any integer dtype: the range is checked
            np.greater(line, 9, out=past_9)
            past_9 *= 39  # 'a' lies 39 past the byte after '9'
            line += past_9
            line += ord("0") | ord("\n") << 8
            fh.write(line)

    @classmethod
    def from_csv(cls, fh: BinaryIO) -> "AliceLog":
        """Parse a seekable binary file object, e.g. ``open(path, "rb")``; a bad line raises ValueError.

        The file is read as little-endian words, ``_READ_ROWS`` at a time into one reused buffer,
        each mapped by ``_LINE_CODES`` into one code array sized from the file.  Up to the first bad
        line every line is one word, so the first 255 (or a trailing odd byte, a partial line) is it.
        """
        header = fh.readline()
        if header != _ALICE_HEADER:
            raise ValueError(f"bad alice log header: {header.decode('ascii', 'backslashreplace')!r}")
        start = fh.tell()
        code = np.empty((fh.seek(0, 2) - start) // 2, np.uint8)  # the whole lines
        fh.seek(start)
        buf = np.empty(2 * _READ_ROWS, np.uint8)
        words = buf.view("<u2")
        done = 0  # lines accepted so far
        while got := fh.readinto(buf):
            n = got // 2
            if done + n > len(code):  # the file grew past the lines the array was sized for
                break
            block = code[done : done + n]
            np.take(_LINE_CODES, words[:n], out=block, mode="clip")  # every word is in range; clip skips the check
            if got % 2 or block.max(initial=0) > 11:
                bad = np.append(block > 11, True)
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
    if len(starts):  # no shared frame, no draw: numpy.random is not even imported
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
