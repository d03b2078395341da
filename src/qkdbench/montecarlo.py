"""Per-pulse stochastic simulation of the Alice -> channel -> Bob chain.

The frame physics is one exact table, :func:`outcome_table`: for each of
the 12 states Alice emits, the probability of no click and of a signal
or a background click on each of Bob's four detector channels (full link
budget, passive basis choice, detector and depolarization errors).
``run`` samples it with one uniform per frame, drawn 16 bits at a time.
Its summary is a :class:`~qkdbench.timetag.ClassCounts` table, rows
sent, detected, sifted and errored per class, and
:func:`expected_tally` is that table's exact mean per frame.

The uniform picks the frame's code and outcome at once, by inverse CDF
over 108 joint cells ``p_code[c] * outcome_table[c, k]``
(``p_code = outer(class_probs, pol_probs)``): the 12 no-click cells in
code order, then each code's 8 click cells.  The CDF ends at exactly 1,
so a cell of probability 0 is never drawn.  A frame clicks exactly when
its uniform is past every no-click cell (~3% of frames at 6 dB).

A frame first draws a 16-bit lane, four per raw 64-bit generator word,
which picks one of the 2**16 bins of width 2**-16, and one table of
2**16 bytes gives each lane the cell that holds its whole bin (a table
method, after Marsaglia, Tsang & Wang, J. Stat. Softw. 11(3), 2004).
The lanes are ordered so that lanes below a count ``pure`` are the bins
lying inside one no-click cell, in order: such a frame's cell is its
code, with no more bits drawn.  Every other lane is a hard bin, one
holding a no-click cut or lying at or above ``p0``; its frame draws one
more raw word, so the read order is fixed.  Only where one of the 107
inner cuts passes through the bin (64 of 2,135 hard bins at 6 dB, where
3.26% of frames are hard) does the table hold 255 and the word's top 37
bits complete the uniform on the 2**-53 grid of ``Generator.random``,
whose cell a binary search finds.  The distribution is that of one
53-bit uniform per frame, exactly.  A run holds one tile of
``TILE_FRAMES`` lanes; a tile keeps its hard lanes and words, and one
``bincount`` per block counts the hard frames' cells.

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
run logs each tile's table entries, then the block's hard-frame codes
over them.
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
#: frames per cache-sized tile in which a block's lanes are drawn and consumed
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


def _lane_map(cdf: np.ndarray) -> tuple[list[int], int, np.ndarray, np.ndarray]:
    """The 16-bit lane cuts of the 11 inner no-click cuts, the pure-lane count, the hard lanes' bins and each lane's cell.

    Bin b is ``[b, b + 1) * 2**-16``.  A bin is hard when it holds one of
    ``cdf[:11]`` off its edge, or lies at or above ``floor(p0 * 2**16)``
    (``p0 = cdf[11]``); every other bin lies inside one no-click cell.
    Lanes ``[0, pure)`` are those bins in order, and lane ``pure + j`` is
    bin ``hard_bins[j]``.  ``lane_cell`` has one ``uint8`` per lane: the
    cell holding that whole bin (a pure lane's no-click code, which
    changes at each lane cut), or 255 when one of ``cdf[:107]`` lies
    strictly inside it.  Scaling by 2**16 is exact, so all four follow
    from the cuts and the hard bins, with no test of each pure bin.
    """
    scaled = (cdf[:12] * 2.0**16).tolist()
    floors = [int(c) for c in scaled]
    top = floors[11]  # the first bin that holds p0 or lies above it
    inner = sorted({f for f, c in zip(floors[:11], scaled) if f != c and f < top})  # bins holding a cut, once each
    lane_cuts = [min(f, top) - sum(h < f for h in inner) for f in floors[:11]]
    hard_bins = np.concatenate([np.array(inner, dtype=np.intp), np.arange(top, 1 << 16)])
    cell = np.searchsorted(cdf[:107] * 2.0**16, hard_bins, side="right")  # the cell holding the bin's start
    straddle = np.searchsorted(cdf[:107] * 2.0**16, hard_bins + 1, side="left") != cell  # a cut inside the bin
    codes = np.repeat(np.arange(12, dtype=np.uint8), np.diff([0, *lane_cuts, top - len(inner)]))  # the pure lanes
    return lane_cuts, len(codes), hard_bins, np.concatenate([codes, np.where(straddle, 255, cell).astype(np.uint8)])


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

    Each block's generator is read in one order: per tile of m frames,
    ceil(m/4) raw words give m lanes (little-endian 16-bit words), then one
    raw word per hard lane, in frame order (drawn for every hard lane, which
    keeps seeded outputs, but used only where a cut passes through its bin).
    The summary is identical whether or not a stream is emitted (stream
    offsets are drawn after all of a block's tiles).  Emitted records are
    time-ordered, one per clicked frame.  ``proto`` is never read: it stays
    because the bench's mc-summary workload and the acceptance tests pass it positionally.
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
    lane_cuts, pure, hard_bins, lane_cell = _lane_map(cdf)
    sigma_ticks = link.jitter_sigma_s / TICK_SECONDS
    # background arrivals land within the gate slice the suppression models
    bg_width = max(1, int(round(link.suppression(source) * period))) if emit_ttags else 1

    below_mu = below_nu1 = 0  # no-click frames below cdf[3] and cdf[7]: classes 0 and 0-1
    pairs = np.zeros(48, dtype=np.int64)  # clicks per (code, channel) pair
    tick_chunks: list[np.ndarray] = []
    chan_chunks: list[np.ndarray] = []
    log = np.zeros(frames if emit_ttags else 0, dtype=np.uint8)

    for block, base in enumerate(range(0, frames, BLOCK_FRAMES)):
        n = min(BLOCK_FRAMES, frames - base)
        rng = np.random.default_rng(np.random.SeedSequence([seed, block]))
        raw = rng.bit_generator.random_raw
        lane_parts, word_parts, idx_parts = [], [], []  # per tile: hard lanes, their words, block indexes
        for t in range(0, n, TILE_FRAMES):
            m = min(TILE_FRAMES, n - t)
            lane = raw(-(-m // 4)).astype("<u8", copy=False).view("<u2")[:m]  # four 16-bit lanes per word
            below_mu += np.count_nonzero(lane < lane_cuts[3])
            below_nu1 += np.count_nonzero(lane < lane_cuts[7])
            hard = np.flatnonzero(lane >= pure)
            lane_parts.append(lane[hard])
            word_parts.append(raw(len(hard)))  # one per hard lane, used or not, so the read order is fixed
            if emit_ttags:
                idx_parts.append(t + hard)
                np.take(lane_cell, lane, out=log[base + t : base + t + m], mode="clip")  # hard frames: rewritten below
        hard_lane = np.concatenate(lane_parts)  # uint16; pure is 2**16 with no hard lane, so subtract it as an intp
        cell = np.take(lane_cell, hard_lane)
        cut = np.flatnonzero(cell == 255)
        # a straddling bin plus 37 more bits: u on the 2**-53 grid of Generator.random, exactly
        u = (hard_bins[hard_lane[cut] - np.intp(pure)] + (np.concatenate(word_parts)[cut] >> 27) * 2.0**-37) * 2.0**-16
        cell[cut] = np.searchsorted(cdf[:107], u, side="right")
        del lane_parts, word_parts, hard_lane  # before the emitted records are built
        hist = np.bincount(cell, minlength=108)
        below_mu += hist[:4].sum()
        below_nu1 += hist[:8].sum()
        pairs += hist[12:].reshape(12, 2, 4).sum(axis=1).ravel()  # a code's signal and background clicks

        if emit_ttags:
            idx = np.concatenate(idx_parts)
            log[base + idx] = np.where(cell < 12, cell, (cell - 12) >> 3)
            click = cell >= 12
            idx, j = idx[click], cell[click] - 12  # cell 12 + 8 code + outcome - 1
            jitter = np.rint(rng.normal(0.0, sigma_ticks, size=len(idx))).astype(np.int64)
            bg_off = rng.integers(-(bg_width // 2), (bg_width - 1) // 2 + 1, size=len(idx))
            offs = np.where(j & 4, bg_off, jitter) + phase_ticks  # outcomes 5..8 are background clicks
            ticks = (base + idx.astype(np.int64)) * period + offs
            np.clip(ticks, 0, None, out=ticks)
            chans = j & 3
            if np.any(ticks[1:] < ticks[:-1]):  # only a jitter draw past half a period reorders frames
                order = np.argsort(ticks, kind="stable")
                ticks, chans = ticks[order], chans[order]
            tick_chunks.append(ticks.view(np.uint64))  # clipped to >= 0
            chan_chunks.append(chans)

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
