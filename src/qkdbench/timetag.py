"""Binary timetag codec, clock-phase recovery, software gating and sifting.

Wire format: one little-endian 64-bit word per record, bits 63..4 the
tick count (78.125 ps units, 60 bits) and bits 3..0 the channel.
Channels 0..3 are the four polarization detectors (H, V, D, A); values
4..15 are reserved for markers and pass through every stage untouched.

A 100 MHz pulse train has a period of exactly 128 ticks, so all frame
and residue arithmetic is integer.

Alice's log is one code per frame, ``bit | basis << 1 | class << 2``.
On disk it is CSV: the header ``bit,basis,class``, then one LF-ended row
per frame from frame 0 on (row i is frame i), each one of 12 lines.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Iterable

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
        t = np.ascontiguousarray(self.ticks, dtype=np.uint64)
        c = np.ascontiguousarray(self.channels, dtype=np.uint8)
        if t.shape != c.shape or t.ndim != 1:
            raise ValueError("ticks and channels must be 1-d arrays of equal length")
        if len(t) and (int(t.max()) > MAX_TICK):
            raise ValueError("tick exceeds the 60-bit range")
        if np.any(c > 15):
            raise ValueError("channel exceeds the 4-bit range")
        object.__setattr__(self, "ticks", t)
        object.__setattr__(self, "channels", c)

    def __len__(self) -> int:
        return len(self.ticks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TimeTagStream)
            and np.array_equal(self.ticks, other.ticks)
            and np.array_equal(self.channels, other.channels)
        )

    def detections(self) -> "TimeTagStream":
        """Only the detector records (channels 0..3), markers dropped."""
        keep = self.channels < 4
        return TimeTagStream(self.ticks[keep], self.channels[keep])


def _warn_if_nonmonotonic(ticks: np.ndarray, where: str) -> None:
    if len(ticks) > 1 and np.any(np.diff(ticks.astype(np.int64)) < 0):
        warnings.warn(f"{where}: non-monotonic ticks (preserved)", stacklevel=3)


def encode(stream: TimeTagStream) -> bytes:
    """Pack records into the 64-bit little-endian wire format."""
    _warn_if_nonmonotonic(stream.ticks, "encode")
    words = (stream.ticks << np.uint64(4)) | stream.channels.astype(np.uint64)
    return words.astype("<u8").tobytes()


def decode(data: bytes) -> TimeTagStream:
    """Unpack the wire format; marker channels are passed through."""
    if len(data) % 8 != 0:
        raise ValueError(f"truncated timetag stream: {len(data)} bytes is not a whole number of records")
    words = np.frombuffer(data, dtype="<u8")
    ticks = words >> np.uint64(4)
    channels = (words & np.uint64(0xF)).astype(np.uint8)
    _warn_if_nonmonotonic(ticks, "decode")
    return TimeTagStream(ticks, channels)


def load_ttag(path: str | Path) -> TimeTagStream:
    return decode(Path(path).read_bytes())


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
    ticks = stream.detections().ticks
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
    window_ticks: int


def window_ticks_from_seconds(window_s: float) -> int:
    """Nearest-integer tick count of a gate window (1 ns -> 13 ticks)."""
    return max(1, int(round(window_s / TICK_SECONDS)))


def signed_residues(ticks: np.ndarray, phase: int, period: int) -> np.ndarray:
    """Circular residue of each tick relative to the phase, in [-P/2, P/2)."""
    r = (ticks.astype(np.int64) - phase) % period
    return ((r + period // 2) % period) - period // 2


def gate(stream: TimeTagStream, period_ticks: int, phase_ticks: int, window_ticks: int) -> GatingResult:
    """Keep detections within the software window around the clock phase.

    A window of w ticks accepts exactly the w residues
    d in [-(w//2), (w-1)//2] around the phase (for the 1 ns / 13-tick
    window: d in -6..+6).  Marker records pass through unconditionally.
    """
    if not 0 < window_ticks <= period_ticks:
        raise ValueError("window must lie in (0, period]")
    d = signed_residues(stream.ticks, phase_ticks, period_ticks)
    in_window = (d >= -(window_ticks // 2)) & (d <= (window_ticks - 1) // 2)
    keep = in_window | (stream.channels >= 4)
    rejected = int(len(stream) - keep.sum())
    return GatingResult(
        accepted=TimeTagStream(stream.ticks[keep], stream.channels[keep]),
        rejected=rejected,
        phase_ticks=phase_ticks,
        window_ticks=window_ticks,
    )


def frame_indices(ticks: np.ndarray, phase_ticks: int, period_ticks: int) -> np.ndarray:
    """Pulse-frame index of each record: (tick - phase + P/2) div P."""
    return (ticks.astype(np.int64) - phase_ticks + period_ticks // 2) // period_ticks


#: the Alice log's header and its 12 rows, indexed by bit | basis << 1 | class << 2
_ALICE_HEADER = "bit,basis,class\n"
_ALICE_ROWS = tuple(f"{code & 1},{'ZX'[code >> 1 & 1]},{CLASS_LABELS[code >> 2]}\n" for code in range(12))
_ALICE_CODES = {row: code for code, row in enumerate(_ALICE_ROWS)}


@dataclass(frozen=True)
class AliceLog:
    """Per-frame record of what the source emitted; entry i is frame i."""

    code: np.ndarray  # uint8, bit | basis << 1 | class << 2; basis 0=Z 1=X, class 0=signal 1=decoy1 2=decoy2

    def __len__(self) -> int:
        return len(self.code)

    def to_csv(self) -> str:
        """The log as CSV text: the header, then one row per frame."""
        if len(self.code) and not 0 <= self.code.min() <= self.code.max() < len(_ALICE_ROWS):
            raise ValueError(f"alice log code out of range 0..{len(_ALICE_ROWS) - 1}")
        return _ALICE_HEADER + "".join(map(_ALICE_ROWS.__getitem__, self.code.tolist()))

    @classmethod
    def from_csv(cls, lines: Iterable[str]) -> "AliceLog":
        """Parse LF-ended lines, e.g. an open file; an unknown row raises ValueError."""
        lines = iter(lines)
        header = next(lines, None)
        if header != _ALICE_HEADER:
            raise ValueError(f"bad alice log header: {header!r}")
        code = np.fromiter(map(_ALICE_CODES.get, lines, repeat(len(_ALICE_ROWS))), dtype=np.uint8)
        bad = np.flatnonzero(code == len(_ALICE_ROWS))
        if len(bad):
            raise ValueError(f"alice log line {int(bad[0]) + 2}: malformed row")
        return cls(code)


@dataclass(frozen=True)
class SiftedKey:
    """Result of matching Bob's gated detections against Alice's log."""

    frames: np.ndarray  # frame index of each kept detection
    sifted_bits: np.ndarray  # Bob's bits where bases matched
    detected_per_class: np.ndarray  # (3,) kept detections (one per frame) per intensity class
    sifted_per_class: np.ndarray  # (3,) matched-basis detections per intensity class
    errors_per_class: np.ndarray  # (3,)
    collisions: int

    def qber_class(self, cls_index: int) -> float:
        n = int(self.sifted_per_class[cls_index])
        return int(self.errors_per_class[cls_index]) / n if n else float("nan")


def sift(
    alice: AliceLog,
    gating: GatingResult,
    period_ticks: int,
    seed: int = 0,
) -> SiftedKey:
    """Sift the gated detections against Alice's emission log.

    Detections are mapped to frames from their ticks; frames with more
    than one accepted detection keep one chosen uniformly at random
    (counted in ``collisions``).  A detection is sifted when Bob's
    measurement basis (from the detector channel) equals Alice's
    preparation basis.  ``detected_per_class`` counts the kept
    detections, so a gain derived from it counts each frame once.
    """
    det = gating.accepted.detections()
    frames = frame_indices(det.ticks, gating.phase_ticks, period_ticks)
    channels = det.channels.astype(np.int64)

    # frames outside Alice's log cannot be attributed
    ok = (frames >= 0) & (frames < len(alice))
    frames, channels = frames[ok], channels[ok]

    # resolve frame collisions: random permutation, then first occurrence
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(frames))
    uniq_frames, first = np.unique(frames[perm], return_index=True)
    keep_idx = perm[first]
    collisions = len(frames) - len(uniq_frames)
    frames, channels = frames[keep_idx], channels[keep_idx]

    code = alice.code[frames].astype(np.int64)
    a_cls = code >> 2
    bob_bit = channels & 1
    matched = (channels >> 1) == (code >> 1 & 1)
    err = matched & (bob_bit != (code & 1))

    return SiftedKey(
        frames=frames,
        sifted_bits=bob_bit[matched].astype(np.uint8),
        detected_per_class=np.bincount(a_cls, minlength=3),
        sifted_per_class=np.bincount(a_cls[matched], minlength=3),
        errors_per_class=np.bincount(a_cls[err], minlength=3),
        collisions=collisions,
    )


__all__ = [
    "TICK_SECONDS",
    "MAX_TICK",
    "CLASS_LABELS",
    "TimeTagStream",
    "encode",
    "decode",
    "load_ttag",
    "PhaseEstimate",
    "recover_phase",
    "GatingResult",
    "window_ticks_from_seconds",
    "signed_residues",
    "gate",
    "frame_indices",
    "AliceLog",
    "SiftedKey",
    "sift",
]
