"""Per-pulse stochastic simulation of the Alice -> channel -> Bob chain.

The engine draws Poissonian photon numbers per pulse, propagates each
photon through the full link budget (channel + setup loss + detector
efficiency), models the passive 50/50 basis choice at Bob, detector
errors and frame-wise background clicks, and resolves multi-click
frames by squashing to a single detection.

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

    means = np.array([source.mu, source.nu1, source.nu2])
    probs = np.array(source.class_probs, dtype=float)
    pol_probs = np.array(source.pol_probs, dtype=float)
    eta = transmittance(link)
    suppression = link.suppression(source)
    y0_eff = link.background_yield * suppression
    e_eff = link.detection_error + source.source_error
    sigma_ticks = link.jitter_sigma_s / TICK_SECONDS
    # background arrivals land within the gate slice the suppression models
    bg_width = max(1, int(round(suppression * period_ticks))) if emit_ttags else 1

    counts = np.zeros((4, 3), dtype=np.int64)  # sent, detected, sifted, errors per class
    tick_chunks: list[np.ndarray] = []
    chan_chunks: list[np.ndarray] = []
    log_chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    for block, base in enumerate(range(0, frames, BLOCK_FRAMES)):
        n = min(BLOCK_FRAMES, frames - base)
        rng = np.random.default_rng(np.random.SeedSequence([seed, block]))

        cls = rng.choice(3, size=n, p=probs)
        pol = rng.choice(4, size=n, p=pol_probs)
        nph = rng.poisson(means[cls])
        surv = rng.binomial(nph, eta)
        bob_basis = rng.integers(0, 2, size=n)
        flip = (rng.random(n) < e_eff).astype(np.int64)
        rand_bit = rng.integers(0, 2, size=n)
        bg = rng.random(n) < y0_eff
        bg_ch = rng.integers(0, 4, size=n)
        pick_signal = rng.random(n) < 0.5

        alice_basis = pol >> 1
        alice_bit = pol & 1
        matched_basis = bob_basis == alice_basis
        sig_bit = np.where(matched_basis, alice_bit ^ flip, rand_bit)
        sig_ch = bob_basis * 2 + sig_bit

        sig_click = surv >= 1
        click = sig_click | bg
        use_sig = sig_click & (~bg | pick_signal)
        channel = np.where(use_sig, sig_ch, bg_ch)

        sifted = click & ((channel >> 1) == alice_basis)
        errors = sifted & ((channel & 1) != alice_bit)
        counts += [np.bincount(cls[mask], minlength=3) for mask in (slice(None), click, sifted, errors)]
        del sifted, errors  # not held through the emission step

        if emit_ttags:
            idx = np.nonzero(click)[0]
            n_ev = len(idx)
            jitter = np.rint(rng.normal(0.0, sigma_ticks, size=n_ev)).astype(np.int64)
            bg_off = rng.integers(-(bg_width // 2), (bg_width - 1) // 2 + 1, size=n_ev)
            offs = np.where(use_sig[idx], jitter, bg_off) + phase_ticks
            ticks = (base + idx.astype(np.int64)) * period_ticks + offs
            np.clip(ticks, 0, None, out=ticks)
            order = np.argsort(ticks, kind="stable")
            tick_chunks.append(ticks[order].astype(np.uint64))
            chan_chunks.append(channel[idx][order].astype(np.uint8))
            log_chunks.append((alice_bit.astype(np.uint8), alice_basis.astype(np.uint8), cls.astype(np.uint8)))

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
        alice_log = AliceLog(*(np.concatenate(column) for column in zip(*log_chunks)))

    summary = RunSummary(frames, frames / source.pulse_rate_hz, *counts)
    return RunResult(summary=summary, stream=stream, alice_log=alice_log, dropped_records=dropped)


__all__ = [
    "BLOCK_FRAMES",
    "THROUGHPUT_CAP_MCPS",
    "RunSummary",
    "RunResult",
    "run",
]
