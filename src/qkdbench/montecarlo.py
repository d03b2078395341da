"""Per-pulse stochastic simulation of the Alice -> channel -> Bob chain.

The frame physics is one exact table, :func:`outcome_table`: for each of
the 12 states Alice emits, the probability of no click and of a signal
or a background click on each of Bob's four detector channels (full link
budget, passive basis choice, detector and depolarization errors).
``run`` samples it: per frame one code and one uniform, looked up in the
table's cumulative rows.

Summaries count post-gate statistics: the configured background
suppression factor stands in for the downstream software gate, scaling
the per-frame background probability and, in emitted streams, confining
background arrival times to the corresponding slice of the frame.  Runs
meant to feed the raw (ungated) analysis pipeline should set
``background_suppression = 1``, which spreads background arrivals
uniformly over the whole frame and leaves the gating to the analysis.

Frames are simulated in independent blocks of ``BLOCK_FRAMES`` whose
generators derive from (seed, block index), so results are reproducible;
each block's per-class counts add into one tally.  Emitted streams are
capped at ``THROUGHPUT_CAP_MCPS`` (10 Mcps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import LinkConfig, ProtocolConfig, SourceConfig
from .decoy import transmittance
from .timetag import TICK_SECONDS, AliceLog, TimeTagStream

#: frames per independently seeded block
BLOCK_FRAMES = 1 << 20
#: emitted records per second beyond which the stream's tail is dropped, in Mcps
THROUGHPUT_CAP_MCPS = 10.0


@dataclass(frozen=True)
class RunSummary:
    """Per-class counters of a simulation run."""

    frames: int
    simulated_s: float
    sent: np.ndarray  # (3,) pulses per intensity class
    detected: np.ndarray  # (3,) frames with a detection
    sifted: np.ndarray  # (3,) detections whose measured basis matched
    errors: np.ndarray  # (3,) sifted detections with the wrong bit

    def gain_class(self, i: int) -> float:
        return float(self.detected[i] / self.sent[i]) if self.sent[i] else float("nan")

    def qber_class(self, i: int) -> float:
        return float(self.errors[i] / self.sifted[i]) if self.sifted[i] else float("nan")


@dataclass(frozen=True)
class RunResult:
    summary: RunSummary
    stream: TimeTagStream | None = None
    alice_log: AliceLog | None = None
    dropped_records: int = 0


def outcome_table(source: SourceConfig, link: LinkConfig) -> np.ndarray:
    """(12, 9) probabilities of each frame outcome, one row per Alice code.

    Row ``bit | basis << 1 | class << 2``; column 0 is no click, 1 + c a
    signal click on channel c and 5 + c a background click on channel c
    (c = Bob's basis * 2 + bit).  With s = 1 - exp(-eta m) the signal
    click probability, y the gated background yield and
    e = min(e_det + (1 - DOP)/2, 1), and a frame where both click keeping
    either at random:

    * no click: (1 - s)(1 - y);
    * signal: s(1 - y/2), split 1/2 (1 - e) on the right channel, 1/2 e
      on the wrong bit and 1/4 on each channel of the other basis;
    * background: y(1 - s/2)/4 on each channel.
    """
    means = np.array([source.mu, source.nu1, source.nu2])
    s = -np.expm1(-transmittance(link) * means)
    y = link.background_yield * link.suppression(source)
    e = min(link.detection_error + source.source_error, 1.0)
    code = np.arange(12)
    bit, basis, cls = code & 1, code >> 1 & 1, code >> 2
    signal = np.full((12, 4), 0.25)  # channel split of a used signal click
    signal[code, basis * 2 + bit] = 0.5 * (1.0 - e)
    signal[code, basis * 2 + 1 - bit] = 0.5 * e
    table = np.empty((12, 9))
    table[:, 0] = (1.0 - s[cls]) * (1.0 - y)
    table[:, 1:5] = (s[cls] * (1.0 - y / 2.0))[:, None] * signal
    table[:, 5:] = (y * (1.0 - s[cls] / 2.0) / 4.0)[:, None]
    return table


def run(
    source: SourceConfig,
    link: LinkConfig,
    proto: ProtocolConfig,
    frames: int,
    seed: int,
    emit_ttags: bool = False,
    phase_ticks: int = 0,
) -> RunResult:
    """Simulate ``frames`` pulses; deterministic for a given seed.

    The summary is identical whether or not a stream is emitted (stream
    offsets are drawn after all summary variates within each block).
    Emitted records are time-ordered; when the record rate exceeds
    ``THROUGHPUT_CAP_MCPS`` the tail is dropped, like a saturated DMA
    transfer.
    """
    if frames < 1:
        raise ValueError("frames must be >= 1")
    period_s = 1.0 / source.pulse_rate_hz
    period_ticks_f = period_s / TICK_SECONDS
    period_ticks = int(round(period_ticks_f))
    if emit_ttags and abs(period_ticks_f - period_ticks) > 1e-6:
        raise ValueError(
            f"pulse period {period_s} s is not an integer number of {TICK_SECONDS} s ticks"
        )
    if emit_ttags and not 0 <= phase_ticks < period_ticks:
        raise ValueError(f"phase_ticks must lie in [0, {period_ticks}), got {phase_ticks}")

    cdf = np.cumsum(outcome_table(source, link), axis=1)
    cdf /= cdf[:, -1:]  # exact 1 at the end, so a zero-probability outcome is never drawn
    code_probs = np.outer(source.class_probs, source.pol_probs).ravel()
    sigma_ticks = link.jitter_sigma_s / TICK_SECONDS
    # background arrivals land within the gate slice the suppression models
    bg_width = max(1, int(round(link.suppression(source) * period_ticks))) if emit_ttags else 1

    counts = np.zeros((4, 3), dtype=np.int64)  # sent, detected, sifted, errors per class
    tick_chunks: list[np.ndarray] = []
    chan_chunks: list[np.ndarray] = []
    log_chunks: list[np.ndarray] = []

    for block, base in enumerate(range(0, frames, BLOCK_FRAMES)):
        n = min(BLOCK_FRAMES, frames - base)
        rng = np.random.default_rng(np.random.SeedSequence([seed, block]))

        code = rng.choice(12, size=n, p=code_probs).astype(np.uint8)
        u = rng.random(n)
        idx = np.flatnonzero(u >= cdf[code, 0])
        clicked = code[idx]
        outcome = np.count_nonzero(cdf[clicked, :8] <= u[idx, None], axis=1)  # 1..8
        channel = ((outcome - 1) & 3).astype(np.uint8)
        sifted = (channel >> 1) == (clicked >> 1 & 1)
        errors = sifted & ((channel & 1) != (clicked & 1))
        counts += [np.bincount(c >> 2, minlength=3) for c in (code, clicked, clicked[sifted], clicked[errors])]
        del u, sifted, errors  # not held through the emission step

        if emit_ttags:
            n_ev = len(idx)
            jitter = np.rint(rng.normal(0.0, sigma_ticks, size=n_ev)).astype(np.int64)
            bg_off = rng.integers(-(bg_width // 2), (bg_width - 1) // 2 + 1, size=n_ev)
            offs = np.where(outcome <= 4, jitter, bg_off) + phase_ticks
            ticks = (base + idx.astype(np.int64)) * period_ticks + offs
            np.clip(ticks, 0, None, out=ticks)
            order = np.argsort(ticks, kind="stable")
            tick_chunks.append(ticks[order].astype(np.uint64))
            chan_chunks.append(channel[order])
            log_chunks.append(code)

    stream = None
    alice_log = None
    dropped = 0
    if emit_ttags:
        ticks, chans = np.concatenate(tick_chunks), np.concatenate(chan_chunks)
        cap = int(THROUGHPUT_CAP_MCPS * 1e6 * frames * period_s)
        if len(ticks) > cap:
            dropped = len(ticks) - cap
            ticks, chans = ticks[:cap], chans[:cap]
        stream = TimeTagStream(ticks, chans)
        alice_log = AliceLog(np.concatenate(log_chunks))

    summary = RunSummary(frames, frames / source.pulse_rate_hz, *counts)
    return RunResult(summary=summary, stream=stream, alice_log=alice_log, dropped_records=dropped)


__all__ = [
    "BLOCK_FRAMES",
    "THROUGHPUT_CAP_MCPS",
    "RunSummary",
    "RunResult",
    "outcome_table",
    "run",
]
