"""Per-pulse stochastic simulation of the Alice -> channel -> Bob chain.

The frame physics is one exact table, :func:`outcome_table`: for each of
the 12 states Alice emits, the probability of no click and of a signal
or a background click on each of Bob's four detector channels (full link
budget, passive basis choice, detector and depolarization errors).
``run`` samples it with one uniform per frame.  Its summary is a
:class:`~qkdbench.timetag.ClassCounts` table, rows sent, detected,
sifted and errored per class, and :func:`expected_tally` is that table's
exact mean per frame.

The uniform picks the frame's code and outcome at once, by inverse CDF
over 108 joint cells ``p_code[c] * outcome_table[c, k]``
(``p_code = outer(class_probs, pol_probs)``): the 12 no-click cells in
code order, then each code's 8 click cells.  The CDF ends at exactly 1,
so a cell of probability 0 is never drawn.  A frame clicks exactly when
its uniform is past every no-click cell (~3% of frames at 6 dB).  A run
holds one tile of ``TILE_FRAMES`` uniforms; a tile keeps only its click
uniforms, and once per block each click gets a code, the number of
code-start cuts at or below it, and an outcome, one plus the number of
that code's inner cuts at or below it.

Summaries count post-gate statistics: the configured background
suppression factor stands in for the downstream software gate, scaling
the per-frame background probability and, in emitted streams, confining
background arrival times to the corresponding slice of the frame.  Runs
meant to feed the raw (ungated) analysis pipeline should set
``background_suppression = 1``, which spreads background arrivals
uniformly over the whole frame and leaves the gating to the analysis.

Frames are simulated in independent blocks of ``BLOCK_FRAMES`` whose
generators derive from (seed, block index), so results are reproducible;
each block's clicks are counted per (code, channel) pair, and an emitted
run writes the block's click codes over the per-tile codes in its log.
An emitted stream holds one time-ordered record per clicked frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import LinkConfig, ProtocolConfig, SourceConfig
from .decoy import transmittance
from .timetag import TICK_SECONDS, AliceLog, ClassCounts, TimeTagStream, period_ticks, tally

#: frames per independently seeded block
BLOCK_FRAMES = 1 << 20
#: frames per cache-sized tile in which a block's uniforms are drawn and consumed
TILE_FRAMES = 1 << 16
_PAIR_CODE, _PAIR_CHANNEL = np.divmod(np.arange(48), 4)  # every (code, channel) pair, code-major


@dataclass(frozen=True)
class RunResult:
    summary: ClassCounts
    stream: TimeTagStream | None = None
    alice_log: AliceLog | None = None
    # always 0; the benchmark's span counts and roundtrip check still read it (ROADMAP item 8 removes both)
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


def expected_tally(source: SourceConfig, link: LinkConfig) -> np.ndarray:
    """(4, 3) exact per-frame probabilities of sent, detected, sifted and errored, per class.

    Sent is the class marginal of the code probabilities; the rest is
    ``tally`` over every (code, channel) pair, weighted by the code's
    probability times its signal or background click on that channel.
    """
    p_code = np.outer(source.class_probs, source.pol_probs)
    table = outcome_table(source, link)
    weights = p_code.reshape(12, 1) * (table[:, 1:5] + table[:, 5:])
    return np.vstack([p_code.sum(axis=1), tally(_PAIR_CODE, _PAIR_CHANNEL, weights.ravel())])


def _probabilities(p, name: str) -> np.ndarray:
    """``p`` as an array, checked as ``Generator.choice`` checks its ``p``."""
    p = np.asarray(p, dtype=float)
    if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= np.sqrt(np.finfo(float).eps)):
        raise ValueError(f"{name} probabilities must be non-negative and sum to 1, got {p.tolist()}")
    return p


def _codes(u: np.ndarray, cuts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per uniform, the number of ``cuts`` (scalars, or arrays like ``u``) at or below it, added into ``out``."""
    code = np.zeros(len(u), dtype=np.uint8) if out is None else out
    for cut in cuts:
        code += u >= cut
    return code


def run(
    source: SourceConfig,
    link: LinkConfig,
    proto: ProtocolConfig,
    frames: int,
    seed: int,
    emit_ttags: bool = False,
    phase_ticks: int = 0,
) -> RunResult:
    """Simulate ``frames`` pulses, one uniform each; deterministic for a given seed.

    The summary is identical whether or not a stream is emitted (stream
    offsets are drawn after all of a block's uniforms).
    Emitted records are time-ordered, one per clicked frame.
    """
    if frames < 1:
        raise ValueError("frames must be >= 1")
    period = period_ticks(source.pulse_rate_hz) if emit_ttags else 0
    if emit_ttags and not 0 <= phase_ticks < period:
        raise ValueError(f"phase_ticks must lie in [0, {period}), got {phase_ticks}")

    p_code = np.outer(_probabilities(source.class_probs, "class"), _probabilities(source.pol_probs, "polarization"))
    joint = p_code.reshape(12, 1) * outcome_table(source, link)  # (code, outcome) probabilities
    # the cells in draw order: the 12 no-click cells in code order, then each code's 8 click cells
    cdf = np.cumsum(np.concatenate([joint[:, 0], joint[:, 1:].ravel()]))
    cdf /= cdf[-1]  # exact 1 at the end, so a cell of probability 0 has zero width and is never drawn
    p0 = cdf[11]  # a frame clicks exactly when its uniform is at or above every no-click cell
    code_cuts = cdf[19:107:8]  # where the click cells of codes 1..11 start
    sigma_ticks = link.jitter_sigma_s / TICK_SECONDS
    # background arrivals land within the gate slice the suppression models
    bg_width = max(1, int(round(link.suppression(source) * period))) if emit_ttags else 1

    below_mu = below_nu1 = 0  # no-click frames below cdf[3] and cdf[7]: classes 0 and 0-1
    pairs = np.zeros(48, dtype=np.int64)  # clicks per (code, channel) pair
    tick_chunks: list[np.ndarray] = []
    chan_chunks: list[np.ndarray] = []
    uniforms = np.empty(min(frames, TILE_FRAMES))
    log = np.zeros(frames if emit_ttags else 0, dtype=np.uint8)

    for block, base in enumerate(range(0, frames, BLOCK_FRAMES)):
        n = min(BLOCK_FRAMES, frames - base)
        rng = np.random.default_rng(np.random.SeedSequence([seed, block]))
        u_parts, idx_parts = [], []  # per tile: the click frames' uniforms and, when emitting, block indexes
        for t in range(0, n, TILE_FRAMES):
            u = uniforms[: min(TILE_FRAMES, n - t)]
            rng.random(out=u)
            below_mu += np.count_nonzero(u < cdf[3])
            below_nu1 += np.count_nonzero(u < cdf[7])
            idx = np.flatnonzero(u >= p0)
            u_parts.append(u[idx])
            if emit_ttags:
                idx_parts.append(t + idx)
                _codes(u, cdf[:11], out=log[base + t : base + t + len(u)])  # 11 for a click frame
        u_click = np.concatenate(u_parts)
        del u_parts  # hold the block's click uniforms once
        code = _codes(u_click, code_cuts)
        cell = 8 * code.astype(np.intp)  # the code's first click cell, less 12
        outcome = _codes(u_click, (np.take(cdf[12 + k :], cell) for k in range(7)), out=np.ones_like(code))
        del u_click, cell  # before the emitted records are built
        channel = (outcome - 1) & 3
        pairs += np.bincount(code * 4 + channel, minlength=48)

        if emit_ttags:
            idx = np.concatenate(idx_parts)
            log[base + idx] = code
            jitter = np.rint(rng.normal(0.0, sigma_ticks, size=len(idx))).astype(np.int64)
            bg_off = rng.integers(-(bg_width // 2), (bg_width - 1) // 2 + 1, size=len(idx))
            offs = np.where(outcome <= 4, jitter, bg_off) + phase_ticks
            ticks = (base + idx.astype(np.int64)) * period + offs
            np.clip(ticks, 0, None, out=ticks)
            order = np.argsort(ticks, kind="stable")
            tick_chunks.append(ticks[order].astype(np.uint64))
            chan_chunks.append(channel[order])

    stream = TimeTagStream(np.concatenate(tick_chunks), np.concatenate(chan_chunks)) if emit_ttags else None
    alice_log = AliceLog(log) if emit_ttags else None

    sent = np.diff([0, below_mu, below_nu1, frames - pairs.sum()]) + pairs.reshape(3, 16).sum(axis=1)
    counts = np.vstack([sent, tally(_PAIR_CODE, _PAIR_CHANNEL, pairs).astype(np.int64)])  # exact float sums
    return RunResult(summary=ClassCounts(counts), stream=stream, alice_log=alice_log)


__all__ = [
    "BLOCK_FRAMES",
    "TILE_FRAMES",
    "RunResult",
    "outcome_table",
    "expected_tally",
    "run",
]
