import hashlib
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qkdbench.config import LinkConfig, ProtocolConfig, SourceConfig
from qkdbench import decoy, montecarlo, timetag
from qkdbench.montecarlo import run
from qkdbench.timetag import ClassCounts, sent_per_class


def cross_val_source(**kw):
    """Benchmark source with the depolarization term switched off, so
    that the stochastic engine and the analytic formulas model the same
    channel."""
    defaults = dict(mu=0.5, nu1=0.066, nu2=0.002, degree_of_polarization=1.0)
    defaults.update(kw)
    return SourceConfig(**defaults)


def class_cells(source: SourceConfig, link: LinkConfig) -> np.ndarray:
    """(3, 4) probability of each class with no click, sifted-correct, sifted-error, unsifted."""
    table = montecarlo.outcome_table(source, link)
    code_probs = np.outer(source.class_probs, source.pol_probs).ravel()
    cells = np.zeros((3, 4))
    for code, row in enumerate(table):
        right = code & 3  # Bob's channel basis * 2 + bit that matches Alice
        correct = row[1 + right] + row[5 + right]
        error = row[1 + (right ^ 1)] + row[5 + (right ^ 1)]
        cells[code >> 2] += code_probs[code] * np.array([row[0], correct, error, 1 - row[0] - correct - error])
    return cells


def same_summary(a: ClassCounts, b: ClassCounts) -> bool:
    return a.counts.dtype == b.counts.dtype and np.array_equal(a.counts, b.counts)


class TestRunEdgeCases:
    def test_vacuum_class_never_clicks(self):
        src = cross_val_source(p_mu=0.0, p_nu1=0.0, p_nu2=1.0, nu2=0.0)
        link = LinkConfig(background_yield=0.0)
        s = run(src, link, ProtocolConfig(), frames=20_000, seed=0).summary
        assert s.sent.tolist() == [0, 0, 20_000]
        assert s.detected.sum() == 0

    def test_all_signal(self):
        src = cross_val_source(p_mu=1.0, p_nu1=0.0, p_nu2=0.0)
        s = run(src, LinkConfig(), ProtocolConfig(), frames=20_000, seed=1).summary
        assert s.sent.tolist() == [20_000, 0, 0]

    def test_perfect_channel(self):
        # lossless, error-free, background-free, jitter-free: every click
        # sits exactly on the clock phase and every sifted bit is right
        src = cross_val_source(p_mu=1.0, p_nu1=0.0, p_nu2=0.0)
        link = LinkConfig(
            attenuation_db=0.0,
            setup_loss_db=0.0,
            detector_efficiency=1.0,
            background_yield=0.0,
            detection_error=0.0,
            jitter_sigma_s=0.0,
        )
        res = run(src, link, ProtocolConfig(), frames=20_000, seed=4, emit_ttags=True, phase_ticks=37)
        s = res.summary
        assert s.sifted[0] > 0
        assert s.counts[3].sum() == 0
        assert np.all(res.stream.ticks % np.uint64(128) == 37)

    def test_gain_matches_exact_expectation(self):
        # a background and a signal click in one frame merge into one
        # detection: the simulator's exact gain is 1 - (1 - Y0) e^(-eta mu),
        # not the paper model's Y0 + 1 - e^(-eta mu)
        src = cross_val_source(p_mu=1.0, p_nu1=0.0, p_nu2=0.0)
        link = LinkConfig(background_suppression=1.0)
        n = 200_000
        s = run(src, link, ProtocolConfig(), frames=n, seed=5).summary
        eta = decoy.transmittance(link)
        q_exact = 1.0 - (1.0 - link.background_yield) * math.exp(-eta * src.mu)
        sigma = math.sqrt(q_exact * (1 - q_exact) / n)
        assert abs(s.gain_class(0) - q_exact) <= 4 * sigma


configs = st.builds(
    lambda mu, f1, f2, att, loss, eff, y, supp, e_det, dop: (
        SourceConfig(mu=mu, nu1=mu * f1, nu2=mu * f1 * f2, degree_of_polarization=dop),
        LinkConfig(
            attenuation_db=att,
            setup_loss_db=loss,
            detector_efficiency=eff,
            background_yield=y,
            background_suppression=supp,
            detection_error=e_det,
        ),
    ),
    mu=st.floats(1e-3, 10.0),
    f1=st.floats(0.01, 0.99),
    f2=st.one_of(st.just(0.0), st.floats(1e-6, 0.99)),
    att=st.floats(0.0, 60.0),
    loss=st.floats(0.0, 10.0),
    eff=st.floats(0.01, 1.0),
    y=st.floats(0.0, 1.0),
    supp=st.floats(0.0, 1.0),
    e_det=st.floats(0.0, 1.0),
    dop=st.floats(0.01, 1.0),
)


class TestOutcomeTable:
    @settings(max_examples=200, deadline=None)
    @given(config=configs)
    def test_rows_are_distributions(self, config):
        table = montecarlo.outcome_table(*config)
        assert table.shape == (12, 9)
        assert np.all(table >= 0)
        assert np.allclose(table.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(config=configs)
    def test_click_probability(self, config):
        source, link = config
        table = montecarlo.outcome_table(source, link)
        y = link.background_yield * link.suppression(source)
        means = np.repeat([source.mu, source.nu1, source.nu2], 4)
        exact = 1.0 - (1.0 - y) * np.exp(-decoy.transmittance(link) * means)
        assert np.allclose(1.0 - table[:, 0], exact, rtol=0, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(config=configs)
    def test_paper_model_without_background_or_depolarization(self, config):
        source, link = config
        source = replace(source, degree_of_polarization=1.0)
        link = replace(link, background_yield=0.0)
        eta = decoy.transmittance(link)
        table = montecarlo.outcome_table(source, link)
        cells = class_cells(source, link) / np.array(source.class_probs)[:, None]
        for i, mean in enumerate((source.mu, source.nu1, source.nu2)):
            if mean == 0:
                continue
            q = table[4 * i, 1:].sum()
            assert q == pytest.approx(decoy.gain(mean, eta, 0.0), rel=1e-12, abs=0)
            e = cells[i, 2] / (cells[i, 1] + cells[i, 2])
            e_paper = decoy.qber(mean, eta, 0.0, link.background_error, link.detection_error)
            assert e == pytest.approx(e_paper, rel=1e-12, abs=1e-300)

    def test_summary_cells_match_table(self):
        # 3 classes x {no click, sifted-correct, sifted-error, unsifted}:
        # Pearson chi-square against the exact table, 11 degrees of freedom
        # (the 12 cells sum to the frame count); 31.26 is the 99.9% quantile
        source = SourceConfig(mu=0.5, nu1=0.066, nu2=0.002)
        link = LinkConfig(background_suppression=1.0)
        frames = 10_000_000
        sent, detected, sifted, errors = run(source, link, ProtocolConfig(), frames=frames, seed=32).summary.counts
        observed = np.stack([sent - detected, sifted - errors, errors, detected - sifted], axis=1)
        expected = frames * class_cells(source, link)
        assert np.all(expected > 50)
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 <= 31.26, (chi2, observed.tolist(), expected.tolist())


def probabilities(n):
    return st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n).map(lambda w: tuple(x / sum(w) for x in w))


weighted_configs = st.builds(
    lambda config, class_probs, pol_probs: (
        replace(config[0], p_mu=class_probs[0], p_nu1=class_probs[1], p_nu2=class_probs[2], pol_probs=pol_probs),
        config[1],
    ),
    configs,
    probabilities(3),
    probabilities(4),
)


def inline_exact(source: SourceConfig, link: LinkConfig) -> list[float]:
    """The exact gains and signal QBER as ``simulate`` once computed them from the table's rows."""
    table = montecarlo.outcome_table(source, link)
    code = np.arange(4)  # the signal class's rows, bit | basis << 1
    clicks = table[:4, 1:5] + table[:4, 5:]
    pol = np.asarray(source.pol_probs)
    e_exact = pol @ clicks[code, code ^ 1] / (pol @ (clicks[code, code & 2] + clicks[code, code | 1]))
    return [*(1.0 - table[::4, 0]), e_exact]


def per_pair_rows(source: SourceConfig, link: LinkConfig) -> list[list[float]]:
    """Detected, sifted and errored per class: each (code, channel) pair's weight added in turn, code-major."""
    p_code = np.outer(source.class_probs, source.pol_probs).ravel().tolist()
    table = montecarlo.outcome_table(source, link).tolist()
    rows = [[0.0] * 3 for _ in range(3)]
    for code in range(12):
        bit, basis, cls = code & 1, code >> 1 & 1, code >> 2
        for channel in range(4):
            weight = p_code[code] * (table[code][1 + channel] + table[code][5 + channel])
            rows[0][cls] += weight
            if channel >> 1 == basis:
                rows[1][cls] += weight
                if channel & 1 != bit:
                    rows[2][cls] += weight
    return rows


class TestExpectedTally:
    @settings(max_examples=200, deadline=None)
    @given(config=weighted_configs)
    @example(config=(SourceConfig(mu=0.5, nu1=0.066, nu2=0.002), LinkConfig(background_suppression=1.0)))
    def test_rows_are_the_sequential_per_pair_sums(self, config):
        # bit for bit, not within a tolerance: a fold that adds a class's cells pairwise
        # moves the last digit of the exact gains that simulate prints
        assert montecarlo.expected_tally(*config)[1:].tolist() == per_pair_rows(*config)

    @settings(max_examples=200, deadline=None)
    @given(config=weighted_configs)
    def test_rows(self, config):
        source, link = config
        sent, detected, sifted, errors = montecarlo.expected_tally(*config)
        no_click = montecarlo.outcome_table(*config)[::4, 0]
        assert np.allclose(sent, source.class_probs, rtol=1e-12, atol=0)
        assert np.allclose(detected, sent * (1.0 - no_click), rtol=0, atol=1e-12)
        assert np.all((0 <= errors) & (errors <= sifted) & (sifted <= detected))

    @settings(max_examples=200, deadline=None)
    @given(config=weighted_configs)
    def test_matches_class_cells(self, config):
        # against the test's own per-code reference
        sent, detected, sifted, errors = montecarlo.expected_tally(*config)
        cells = class_cells(*config)
        assert np.allclose(sent - detected, cells[:, 0], rtol=0, atol=1e-12)
        assert np.allclose(sifted, cells[:, 1] + cells[:, 2], rtol=0, atol=1e-12)
        assert np.allclose(errors, cells[:, 2], rtol=0, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(config=weighted_configs)
    def test_paper_model_without_background_or_depolarization(self, config):
        source = replace(config[0], degree_of_polarization=1.0)
        link = replace(config[1], background_yield=0.0)
        eta = decoy.transmittance(link)
        sent, detected, sifted, errors = montecarlo.expected_tally(source, link)
        for i, mean in enumerate((source.mu, source.nu1, source.nu2)):
            if mean == 0:
                continue
            assert detected[i] / sent[i] == pytest.approx(decoy.gain(mean, eta, 0.0), rel=1e-12, abs=0)
            e_paper = decoy.qber(mean, eta, 0.0, link.background_error, link.detection_error)
            assert errors[i] / sifted[i] == pytest.approx(e_paper, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize(
        "source, link",
        [
            (SourceConfig(mu=0.5, nu1=0.066, nu2=0.002), LinkConfig(background_suppression=1.0)),
            (cross_val_source(), LinkConfig(attenuation_db=10.0, background_suppression=13 / 128)),
            (
                SourceConfig(p_mu=0.5, p_nu1=0.3, p_nu2=0.2, pol_probs=(0.4, 0.1, 0.3, 0.2)),
                LinkConfig(attenuation_db=3.0, background_yield=1e-3),
            ),
        ],
    )
    def test_same_values_as_inline_table_arithmetic(self, source, link):
        gains, qbers = timetag.ratios(montecarlo.expected_tally(source, link))
        new = [*gains, qbers[0]]
        assert np.allclose(new, inline_exact(source, link), rtol=1e-12, atol=0)

    def test_small_gain_without_cancellation(self):
        # at 20 dB the decoy-2 gain is 6.3e-5, and 1 - P(no click) loses
        # ~1e-12 of it to cancellation; summing the click columns does not
        source, link = cross_val_source(), LinkConfig(attenuation_db=20.0, background_suppression=13 / 128)
        sent, detected, _, _ = montecarlo.expected_tally(source, link)
        s = -np.expm1(-decoy.transmittance(link) * np.array([source.mu, source.nu1, source.nu2]))
        y = link.background_yield * link.suppression(source)
        assert np.allclose(detected / sent, s + y - s * y, rtol=1e-14, atol=0)

    def test_run_counts_within_five_sigma(self, bench6db):
        source, link, proto = bench6db
        frames = 1_000_000
        observed = run(source, link, proto, frames=frames, seed=41).summary.counts
        p = montecarlo.expected_tally(source, link)
        sigma = np.sqrt(frames * p * (1 - p))
        assert np.all(np.abs(observed - frames * p) <= 5 * sigma), (observed - frames * p) / sigma


class TestRunDeterminism:
    def test_same_seed_identical(self, bench6db):
        _, link, proto = bench6db
        src = cross_val_source()
        a = run(src, link, proto, frames=50_000, seed=42)
        b = run(src, link, proto, frames=50_000, seed=42)
        assert same_summary(a.summary, b.summary)

    def test_emission_does_not_disturb_summary(self, bench6db):
        _, link, proto = bench6db
        src = cross_val_source()
        plain = run(src, link, proto, frames=50_000, seed=43)
        emitted = run(src, link, proto, frames=50_000, seed=43, emit_ttags=True)
        assert same_summary(plain.summary, emitted.summary)

    def test_different_seeds_compatible(self, bench6db):
        _, link, proto = bench6db
        src = cross_val_source()
        a = run(src, link, proto, frames=400_000, seed=1).summary
        b = run(src, link, proto, frames=400_000, seed=2).summary
        qa, qb = a.gain_class(0), b.gain_class(0)
        sigma = math.sqrt(qa * (1 - qa) / a.sent[0] + qb * (1 - qb) / b.sent[0])
        assert abs(qa - qb) <= 5 * sigma

    def test_frames_required(self, bench6db):
        _, link, proto = bench6db
        with pytest.raises(ValueError, match="frames"):
            run(cross_val_source(), link, proto, frames=0, seed=1)


class TestRunConvergence:
    def test_agrees_with_analytic_random_configs(self):
        # full-budget analytic gains as the oracle, 4-sigma binomial bands
        rng = np.random.default_rng(77)
        proto = ProtocolConfig()
        frames = 200_000
        for trial in range(20):
            src = cross_val_source(
                mu=rng.uniform(0.3, 0.8),
                nu1=rng.uniform(0.05, 0.15),
                nu2=rng.uniform(0.0, 0.01),
                p_mu=0.34,
                p_nu1=0.33,
                p_nu2=0.33,
            )
            link = LinkConfig(
                attenuation_db=rng.uniform(0, 12),
                background_yield=10 ** rng.uniform(-5, -3),
                detection_error=rng.uniform(0.001, 0.03),
                background_suppression=1.0,
            )
            res = run(src, link, proto, frames=frames, seed=1000 + trial)
            obs = decoy.channel_observables(src, link, "full-budget")
            for i, q_model in enumerate((obs.q_mu, obs.q_nu1, obs.q_nu2)):
                q_mc = res.summary.gain_class(i)
                sigma = math.sqrt(q_model * (1 - q_model) / res.summary.sent[i])
                assert abs(q_mc - q_model) <= 4 * sigma, (trial, i)

    def test_qber_converges(self, bench6db):
        _, link, proto = bench6db
        src = cross_val_source()
        res = run(src, link, proto, frames=2_000_000, seed=7)
        obs = decoy.channel_observables(src, link, "full-budget")
        e_mc = res.summary.qber_class(0)
        sigma = math.sqrt(obs.e_mu * (1 - obs.e_mu) / res.summary.sifted[0])
        assert abs(e_mc - obs.e_mu) <= 4 * sigma

    def test_depolarization_raises_qber(self, bench6db):
        # e_src = (1 - DOP)/2 adds to the intrinsic error in the
        # simulation, while the analytic benchmark model carries e_det
        # alone; DOP = 0.9 shifts the sifted QBER up by ~0.05
        _, link, proto = bench6db
        src = replace(cross_val_source(), degree_of_polarization=0.9)
        res = run(src, link, proto, frames=1_000_000, seed=8)
        obs = decoy.channel_observables(src, link, "full-budget")
        e_mc = res.summary.qber_class(0)
        assert e_mc > obs.e_mu + 0.03

    def test_background_only_run(self):
        src = SourceConfig(mu=0.0, nu1=0.0, nu2=0.0, degree_of_polarization=1.0)
        link = LinkConfig(background_suppression=0.1)
        res = run(src, link, ProtocolConfig(), frames=2_000_000, seed=9)
        p = link.background_yield * 0.1
        total = res.summary.detected.sum()
        sigma = math.sqrt(p * (1 - p) * 2_000_000)
        assert abs(total - p * 2_000_000) <= 3 * sigma
        qber = res.summary.counts[3].sum() / res.summary.sifted.sum()
        assert abs(qber - 0.5) <= 3 * math.sqrt(0.25 / res.summary.sifted.sum())


def distribution(size: int):
    """Probability vectors of ``size`` entries, zeros included."""
    return (
        st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=size, max_size=size)
        .filter(lambda w: sum(w) > 0)
        .map(lambda w: tuple(np.array(w) / sum(w)))
    )


@st.composite
def block_and_frames(draw):
    """A block size, the real one or a small one, and a frame count next to a tile or block boundary."""
    tile = montecarlo.TILE_FRAMES
    block = draw(st.sampled_from([montecarlo.BLOCK_FRAMES, 999, 1000, tile + 1, 2 * tile - 1]))
    edge = draw(st.sampled_from([tile, min(block, 2 * tile)])) * draw(st.integers(1, 3))
    return block, edge + draw(st.integers(-3, 3))


def joint_cdf(source: SourceConfig, link: LinkConfig) -> np.ndarray:
    """The CDF over the 108 joint cells: the 12 no-click cells in code order, then each code's 8 click cells.

    It is the cumulative sum over ``p_code * outcome_table``, divided by
    its last entry.
    """
    joint = np.outer(source.class_probs, source.pol_probs).reshape(12, 1) * montecarlo.outcome_table(source, link)
    cdf = np.cumsum(np.concatenate([joint[:, 0], joint[:, 1:].ravel()]))
    return cdf / cdf[-1]


def lane_bins(cuts: np.ndarray) -> tuple[np.ndarray, int]:
    """Each 16-bit lane's bin and the number of pure lanes, from testing each of the 2**16 bins.

    Bin b is ``[b, b + 1) * 2**-16``.  It is pure when none of the 12
    no-click cuts lies inside it and it lies below the last of them; the
    pure bins come first, in order, then the others in order.
    """
    start = np.arange(1 << 16) * 2.0**-16
    at_or_below = np.searchsorted(cuts[:12], start, side="right")
    pure = (at_or_below == np.searchsorted(cuts[:12], start + 2.0**-16, side="left")) & (at_or_below < 12)
    return np.concatenate([np.flatnonzero(pure), np.flatnonzero(~pure)]), int(pure.sum())


def reference_cells(cdf: np.ndarray, frames: int, seed: int, block: int) -> np.ndarray:
    """Each frame's joint cell, drawn without the engine and found by a binary search on its full uniform.

    Each block's generator is read in the documented order: per tile of m
    frames, ceil(m/4) raw words give m 16-bit lanes, low bits first; then one
    raw word per hard lane, in frame order, whose top 37 bits refine the
    lane's bin.  A pure frame's uniform is its bin's start.
    """
    lane_bin, pure = lane_bins(cdf)
    shifts = np.array([0, 16, 32, 48], dtype=np.uint64)
    cells = []
    for i, base in enumerate(range(0, frames, block)):
        raw = np.random.default_rng(np.random.SeedSequence([seed, i])).bit_generator.random_raw
        n = min(block, frames - base)
        for t in range(0, n, montecarlo.TILE_FRAMES):
            m = min(montecarlo.TILE_FRAMES, n - t)
            lanes = (raw(-(-m // 4))[:, None] >> shifts & np.uint64(0xFFFF)).ravel()[:m]
            u = lane_bin[lanes] * 2.0**-16
            hard = np.flatnonzero(lanes >= pure)
            u[hard] += (raw(len(hard)) >> np.uint64(27)) * 2.0**-53
            cells.append(np.searchsorted(cdf, u, side="right"))
    return np.concatenate(cells)


class TestDraw:
    @staticmethod
    def check_lane_map(cuts: np.ndarray) -> None:
        # every lane against every bin and every inner cut: the lanes are a permutation of the
        # bins, in the documented order, and a lane's entry is the cell holding its whole bin
        # (for a pure lane, its no-click code), or 255 exactly when a cut lies strictly inside it
        lane_cuts, pure, hard_bins, lane_cell = montecarlo._lane_map(cuts)
        lane_bin, expected_pure = lane_bins(cuts)
        assert pure == expected_pure
        assert np.array_equal(hard_bins, lane_bin[pure:])
        inner, lo = cuts[:107], lane_bin[:, None] * 2.0**-16
        straddle = ((inner > lo) & (inner < lo + 2.0**-16)).any(axis=1)
        holding = np.count_nonzero(inner <= lo, axis=1)
        assert lane_cell.dtype == np.uint8 and len(lane_cell) == 1 << 16
        assert np.array_equal(lane_cell, np.where(straddle, 255, holding))
        assert np.all(lane_cell[:pure] < 12)
        whole = lane_cell != 255
        assert np.all(lo[whole, 0] + 2.0**-16 <= np.append(inner, 1.0)[holding[whole]])
        # a pure lane's code changes at each lane cut, which the two class counts compare against
        assert lane_cuts == np.searchsorted(lane_cell[:pure], np.arange(1, 12)).tolist()

    @pytest.mark.parametrize(
        "bins",
        [
            [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11],  # every cut on a bin edge
            [0.5, 0.75, 3, 3.25, 3.5, 3.5, 3.5, 9, 9, 40.5, 40.5, 41.25],  # two cuts in a bin, zero-width cells
            [0, 0, 0, 0, 100.5, 100.5, 100.5, 100.5, 60000.1, 60000.1, 60000.1, 65000],  # p0 on a bin edge
            [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999],  # every cut in bin 0: no pure lane
            [2000.5, 4000, 8000.25, 10000, 20000, 30000.5, 40000, 50000, 60000.5, 65535.5, 65535.75, 65536],  # dark
            [65536] * 12,  # a dark link whose cells all sit at the top
        ],
    )
    def test_lane_map_cases(self, bins):
        self.check_lane_map(np.array(bins) * 2.0**-16)

    @settings(max_examples=100, deadline=None)
    @given(
        cells=st.lists(
            st.tuples(st.integers(0, (1 << 16) - 1), st.sampled_from([0.0, 2.0**-37, 0.5, 1 - 2.0**-37])),
            min_size=12,
            max_size=12,
        ),
        dark=st.booleans(),
    )
    def test_lane_map_of_any_cuts(self, cells, dark):
        cuts = np.sort([(b + f) * 2.0**-16 for b, f in cells])
        if dark:
            cuts[11] = 1.0
        self.check_lane_map(cuts)

    def test_lane_map_of_benchmark_point(self, bench6db):
        source, link, _ = bench6db
        self.check_lane_map(joint_cdf(source, link))
        _, pure, hard_bins, lane_cell = montecarlo._lane_map(joint_cdf(source, link))
        # 3.26% of frames are hard: the 2,124 bins at or above p0 and 11 that hold a cut;
        # of those, only the 64 that a cut passes through use their refinement word
        assert len(hard_bins) == 2**16 - pure == 2135
        assert np.count_nonzero(lane_cell == 255) == 64

    @settings(max_examples=40, deadline=None)
    @given(
        class_probs=distribution(3),
        pol_probs=distribution(4),
        background_yield=st.sampled_from([0.0, LinkConfig().background_yield]),
        block_frames=block_and_frames(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_run_matches_reference_draw(self, class_probs, pol_probs, background_yield, block_frames, seed):
        # the summary, the log and the records are exactly what each frame's
        # cell gives, across block and tile edges and with cells of width 0
        block, frames = block_frames
        p_mu, p_nu1, p_nu2 = class_probs
        src = SourceConfig(p_mu=p_mu, p_nu1=p_nu1, p_nu2=p_nu2, pol_probs=pol_probs)
        link = LinkConfig(background_yield=background_yield, jitter_sigma_s=0.0)
        self.check_run_against_reference(src, link, block, frames, seed)

    @staticmethod
    def check_run_against_reference(src, link, block, frames, seed):
        """``run``, with and without emission, against :func:`reference_cells`."""
        cell = reference_cells(joint_cdf(src, link), frames, seed, block)
        click = np.flatnonzero(cell >= 12)
        code = np.where(cell < 12, cell, (cell - 12) // 8).astype(np.uint8)
        channel = ((cell[click] - 12) & 3).astype(np.uint8)
        expected = np.vstack([np.bincount(code >> 2, minlength=3), timetag.tally(code[click], channel)])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "BLOCK_FRAMES", block)
            plain = run(src, link, ProtocolConfig(), frames=frames, seed=seed)
            emitted = run(src, link, ProtocolConfig(), frames=frames, seed=seed, emit_ttags=True)
        assert np.array_equal(plain.summary.counts, expected)
        assert np.array_equal(emitted.summary.counts, expected)
        assert np.array_equal(emitted.alice_log.code, code)
        assert len(emitted.stream) == len(click)
        frame = timetag.frame_indices(emitted.stream.ticks, 0, timetag.period_ticks(src.pulse_rate_hz))
        assert np.array_equal(frame, click)
        assert np.array_equal(emitted.stream.channels, channel)

    @pytest.mark.parametrize("unit, straddles", [(2.0**-16, False), (2.0**-17, True)])
    def test_run_matches_reference_with_cuts_on_bin_edges(self, unit, straddles):
        # a table whose 108 cells are whole multiples of `unit`, some of them empty: at
        # 2**-16 every cut lies on a bin edge, so no bin straddles one; at 2**-17 some do
        src = SourceConfig(p_mu=0.5, p_nu1=0.25, p_nu2=0.25, pol_probs=(0.25,) * 4)
        p_code = np.outer(src.class_probs, src.pol_probs).reshape(12, 1)
        rng = np.random.default_rng(31)
        units = np.vstack([rng.multinomial(round(p / unit), rng.dirichlet(np.full(9, 0.3))) for p in p_code.ravel()])
        table = units * unit / p_code  # rows sum to 1, and p_code * table is exact
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "outcome_table", lambda source, link: table)
            cdf = joint_cdf(src, LinkConfig())
            assert np.array_equal(cdf / unit, np.cumsum(np.concatenate([units[:, 0], units[:, 1:].ravel()])))
            assert np.any(np.diff(cdf) == 0)
            assert np.any(montecarlo._lane_map(cdf)[3] == 255) == straddles
            self.check_run_against_reference(src, LinkConfig(jitter_sigma_s=0.0), 2 * montecarlo.TILE_FRAMES - 1,
                                             200_003, 5)

    @pytest.mark.parametrize(
        "src, link",
        [
            # a class of mean 0 on a link without background: its 32 click cells have width 0
            (SourceConfig(nu2=0.0), LinkConfig(background_yield=0.0, jitter_sigma_s=0.0)),
            # two of them: 64 click cells of width 0, half the frames in a dark class
            (
                SourceConfig(nu1=0.0, nu2=0.0, p_mu=0.45, p_nu1=0.5, p_nu2=0.05),
                LinkConfig(background_yield=0.0, jitter_sigma_s=0.0),
            ),
            # a 0 dB link, where most signal frames click and most bins are hard
            (SourceConfig(), LinkConfig(attenuation_db=0.0, jitter_sigma_s=0.0)),
        ],
    )
    def test_run_matches_reference_at_fragile_points(self, src, link):
        self.check_run_against_reference(src, link, montecarlo.BLOCK_FRAMES, 200_003, 8)
        self.check_run_against_reference(src, link, 2 * montecarlo.TILE_FRAMES - 1, 200_003, 9)

    @pytest.mark.parametrize("emit", [False, True])
    def test_run_without_clicks(self, emit):
        # every mean 0 and no background: over several blocks no frame clicks
        src = SourceConfig(mu=0.0, nu1=0.0, nu2=0.0)
        frames = 2 * montecarlo.BLOCK_FRAMES + 1
        res = run(src, LinkConfig(background_yield=0.0), ProtocolConfig(), frames=frames, seed=3, emit_ttags=emit)
        assert res.summary.sent.sum() == frames
        assert not res.summary.counts[1:].any()
        if emit:
            assert len(res.stream) == 0
            assert np.array_equal(res.summary.sent, sent_per_class(res.alice_log.code))

    @settings(max_examples=100, deadline=None)
    @given(
        class_probs=distribution(3),
        pol_probs=distribution(4),
        dark_class=st.sampled_from([None, 0, 1, 2]),
        background_yield=st.sampled_from([0.0, LinkConfig().background_yield]),
        frames=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_zero_probability_cells_never_drawn(self, class_probs, pol_probs, dark_class, background_yield, frames, seed):
        # a code of probability 0 is never logged, and a class of mean 0 on a
        # link without background never clicks
        means = dict(mu=0.5, nu1=0.066, nu2=0.002)
        if dark_class is not None:
            means[("mu", "nu1", "nu2")[dark_class]] = 0.0
        p_mu, p_nu1, p_nu2 = class_probs
        src = SourceConfig(**means, p_mu=p_mu, p_nu1=p_nu1, p_nu2=p_nu2, pol_probs=pol_probs)
        link = LinkConfig(background_yield=background_yield, jitter_sigma_s=0.0)
        res = run(src, link, ProtocolConfig(), frames=frames, seed=seed, emit_ttags=True)
        code = res.alice_log.code
        assert not np.isin(code, np.flatnonzero(np.outer(class_probs, pol_probs).ravel() == 0)).any()
        if dark_class is not None and background_yield == 0:
            assert res.summary.detected[dark_class] == 0
            frame = timetag.frame_indices(res.stream.ticks, 0, timetag.period_ticks(src.pulse_rate_hz))
            assert not np.any(code[frame] >> 2 == dark_class)

    @staticmethod
    def code_and_outcome_counts(source, link, proto, frames, seed):
        """An emitted run's observed and expected (code x {no click, channel 0..3}) counts.

        Each record's frame is read back through the phase; the expected
        counts are frames * p_code * the table's no-click and click columns.
        """
        phase = 37
        res = run(source, link, proto, frames=frames, seed=seed, emit_ttags=True, phase_ticks=phase)
        code = res.alice_log.code
        frame = timetag.frame_indices(res.stream.ticks, phase, timetag.period_ticks(source.pulse_rate_hz))
        assert np.all(np.diff(frame) > 0)  # one record per clicked frame
        clicks = np.bincount(code[frame].astype(np.intp) * 4 + res.stream.channels, minlength=48).reshape(12, 4)
        observed = np.column_stack([np.bincount(code, minlength=12) - clicks.sum(axis=1), clicks])
        table = montecarlo.outcome_table(source, link)
        p_code = np.outer(source.class_probs, source.pol_probs).reshape(12, 1)
        return observed, frames * p_code * np.column_stack([table[:, 0], table[:, 1:5] + table[:, 5:]])

    def test_code_and_outcome_pairs_match_table(self, bench6db):
        # Pearson chi-square, 59 degrees of freedom (the 60 cells sum to the
        # frame count); 98.32 is the 99.9% quantile
        source, link, proto = bench6db
        assert link.background_suppression == 1.0
        observed, expected = self.code_and_outcome_counts(source, link, proto, frames=30_000_000, seed=1)
        assert expected.min() >= 50
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 <= 98.32, (chi2, observed.tolist())

    def test_pairs_narrower_than_a_bin_match_table(self):
        # 38 of the 48 (code, channel) cells are narrower than a 2**-16 bin, so their
        # frames come from the hard bins' refinement.  The cells expecting fewer than 20
        # frames are pooled into one, leaving 30 cells: Pearson chi-square, 29 degrees
        # of freedom; 58.30 is the 99.9% quantile
        source = SourceConfig(mu=0.5, nu1=0.066, nu2=0.002, p_nu1=0.1999, p_nu2=1e-4, pol_probs=(0.4, 0.3, 0.2, 0.1))
        link = LinkConfig(attenuation_db=25.0, background_yield=3e-7, background_suppression=1.0)
        table = montecarlo.outcome_table(source, link)
        p_code = np.outer(source.class_probs, source.pol_probs).reshape(12, 1)
        assert np.count_nonzero(p_code * (table[:, 1:5] + table[:, 5:]) < 2.0**-16) == 38
        observed, expected = self.code_and_outcome_counts(source, link, ProtocolConfig(), frames=20_000_000, seed=3)
        kept = expected >= 20
        observed = np.append(observed[kept], observed[~kept].sum())
        expected = np.append(expected[kept], expected[~kept].sum())
        assert len(expected) == 30 and expected.min() >= 20
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 <= 58.30, (chi2, observed.tolist(), expected.tolist())

    @settings(max_examples=40, deadline=None)
    @given(
        class_probs=distribution(3),
        pol_probs=distribution(4),
        block_frames=block_and_frames(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_summary_does_not_depend_on_emission(self, class_probs, pol_probs, block_frames, seed):
        # the summary's counts come from the uniforms alone; writing the log draws nothing
        block, frames = block_frames
        p_mu, p_nu1, p_nu2 = class_probs
        src = SourceConfig(p_mu=p_mu, p_nu1=p_nu1, p_nu2=p_nu2, pol_probs=pol_probs)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(montecarlo, "BLOCK_FRAMES", block)
            plain = run(src, LinkConfig(), ProtocolConfig(), frames=frames, seed=seed).summary
            emitted = run(src, LinkConfig(), ProtocolConfig(), frames=frames, seed=seed, emit_ttags=True)
        assert same_summary(plain, emitted.summary)
        assert np.array_equal(plain.sent, sent_per_class(emitted.alice_log.code))

    def test_summary_run_is_pinned(self, bench6db):
        # the four count arrays of a summary-only run crossing two block
        # boundaries, as the 16-bit lane draw gives them
        s = run(*bench6db, frames=2 * montecarlo.BLOCK_FRAMES + 1, seed=7).summary
        h = hashlib.sha256()
        for counts in s.counts:  # rows sent, detected, sifted, errored
            h.update(np.asarray(counts, dtype=np.int64).tobytes())
        assert h.hexdigest() == "b230585acc28d0b46660a9dabacdd4757731f8a11f0beb22b789674fa96ddae3"

    def test_seeded_run_is_pinned(self, bench6db):
        # counts, ticks, channels and codes of a run crossing two block
        # boundaries, as the 16-bit lane draw gives them
        source, link, proto = bench6db
        res = run(source, link, proto, frames=2 * montecarlo.BLOCK_FRAMES + 1, seed=7, emit_ttags=True, phase_ticks=37)
        h = hashlib.sha256()
        for counts in res.summary.counts:  # rows sent, detected, sifted, errored
            h.update(np.asarray(counts, dtype=np.int64).tobytes())
        for array in (res.stream.ticks, res.stream.channels, res.alice_log.code):
            h.update(array.tobytes())
        assert h.hexdigest() == "fa3cf303642002e87d5a71f6b5557a5987f249e3cdfdb8045ee6e98a144f4f0a"

    @pytest.mark.parametrize(
        "probs, match",
        [
            (dict(p_mu=1.1, p_nu1=-0.1, p_nu2=0.0), "class"),
            (dict(p_mu=0.8, p_nu1=0.15, p_nu2=0.06), "class"),
            (dict(p_mu=float("nan"), p_nu1=0.15, p_nu2=0.05), "class"),
            (dict(pol_probs=(0.5, 0.5, 0.5, -0.5)), "polarization"),
            (dict(pol_probs=(0.25, 0.25, 0.25, 0.2)), "polarization"),
            (dict(pol_probs=(0.25, 0.25, 0.25, 0.25 + 2e-8)), "polarization"),
        ],
    )
    def test_bad_probabilities_rejected(self, probs, match):
        # an unvalidated SourceConfig, as a library caller may build one
        with pytest.raises(ValueError, match=f"^{match} probabilities must be non-negative and sum to 1"):
            run(SourceConfig(**probs), LinkConfig(), ProtocolConfig(), frames=100, seed=1)

    def test_probabilities_within_choice_tolerance_accepted(self):
        src = SourceConfig(pol_probs=(0.25, 0.25, 0.25, 0.25 + 1e-8))
        assert run(src, LinkConfig(), ProtocolConfig(), frames=100, seed=1).summary.sent.sum() == 100

    def test_summary_run_memory(self, bench6db):
        # one tile of lanes and the block's hard lanes and their refinement words, ~1.1 B/frame
        frames = montecarlo.BLOCK_FRAMES
        run(*bench6db, frames=1000, seed=1)
        tracemalloc.start()
        try:
            run(*bench6db, frames=frames, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / frames <= 1.7, peak / frames

    def test_emit_run_memory(self, bench6db):
        # the log, 1 B/frame, is the only per-frame array; lanes are drawn a
        # tile at a time, and the click frames' records make up the rest, ~3.7 B/frame
        frames = montecarlo.BLOCK_FRAMES
        run(*bench6db, frames=1000, seed=1, emit_ttags=True)
        tracemalloc.start()
        try:
            run(*bench6db, frames=frames, seed=1, emit_ttags=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / frames <= 4.7, peak / frames


    def test_first_run_loads_nothing_beyond_numpy_random(self):
        # in a fresh interpreter: the package does not load numpy.random at import, which
        # would move its ~8 ms into every command's set-up; once it is loaded, a first
        # summary and emitted run load no other module (np.unique, for one, loads numpy.ma)
        code = (
            "import sys, qkdbench.cli\n"
            "from qkdbench import config, montecarlo\n"
            "assert 'numpy.random' not in sys.modules\n"
            "import numpy.random\n"
            "before = set(sys.modules)\n"
            "for emit in (False, True):\n"
            "    montecarlo.run(config.SourceConfig(), config.LinkConfig(), config.ProtocolConfig(), frames=100_000,\n"
            "                   seed=1, emit_ttags=emit)\n"
            "print(*sorted(set(sys.modules) - before))\n"
        )
        path = os.pathsep.join(p for p in (str(Path(montecarlo.__file__).parents[1]), os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []


class TestSummary:
    def test_blocks_tally_into_one_summary(self, bench6db, monkeypatch):
        # three blocks tally into one summary
        monkeypatch.setattr(montecarlo, "BLOCK_FRAMES", 30_000)
        _, link, proto = bench6db
        src = cross_val_source()
        res = run(src, link, proto, frames=90_000, seed=5, emit_ttags=True)
        first = run(src, link, proto, frames=30_000, seed=5, emit_ttags=True)
        whole = res.summary
        assert whole.sent.sum() == len(res.alice_log) == 90_000
        # the first block is drawn as a run of its own
        assert np.array_equal(res.alice_log.code[:30_000], first.alice_log.code)
        assert np.array_equal(whole.sent, np.bincount(res.alice_log.code >> 2, minlength=3))
        assert np.all(whole.detected <= whole.sent)
        assert np.all(whole.counts[3] <= whole.sifted)

    def test_hand_built_summary(self):
        # rows sent, detected, sifted, errored; a class with nothing sifted has a NaN QBER
        s = ClassCounts(np.array([[1000, 1, 0], [118, 0, 0], [118, 0, 0], [1, 0, 0]]))
        assert s.gain_class(0) == pytest.approx(0.118)
        assert s.qber_class(0) == pytest.approx(1 / 118)
        assert s.gain_class(1) == 0.0
        assert math.isnan(s.gain_class(2)) and math.isnan(s.qber_class(1))


class TestEmission:
    @pytest.mark.parametrize("sigma", [-1e-12, math.nan])
    def test_negative_or_nan_jitter_is_rejected_before_any_draw(self, sigma):
        # the jitter is a standard normal draw scaled in place, which checks no sign; run checks it instead
        with pytest.raises(ValueError, match=r"^jitter_sigma_s must be >= 0, got "):
            run(SourceConfig(), LinkConfig(jitter_sigma_s=sigma), ProtocolConfig(), frames=10, seed=1, emit_ttags=True)

    def test_ticks_sorted_and_decodable(self, bench6db):
        _, link, proto = bench6db
        res = run(cross_val_source(), link, proto, frames=100_000, seed=21, emit_ttags=True, phase_ticks=37)
        t = res.stream.ticks.astype(np.int64)
        assert np.all(np.diff(t) >= 0)
        assert res.alice_log is not None
        assert len(res.alice_log) == 100_000

    def test_records_past_half_a_period_are_sorted_stably(self):
        # sigma = 64 ticks, half the 128-tick period, and a lossless link: neighbouring
        # clicks cross, so the block is sorted.  Without background each record is its
        # frame's signal click at frame * P + phase + rint(sigma * z), clipped at 0, z the
        # block generator's normals after the lanes' words and one word per hard lane;
        # the records are those, stably sorted by tick (ties stay in frame order)
        source = SourceConfig(mu=5.0, nu1=0.066, nu2=0.002)
        link = LinkConfig(attenuation_db=0.0, background_yield=0.0, jitter_sigma_s=5e-9)
        frames, seed, phase = 10_000, 3, 37
        res = run(source, link, ProtocolConfig(), frames=frames, seed=seed, emit_ttags=True, phase_ticks=phase)
        plain = run(source, replace(link, jitter_sigma_s=0.0), ProtocolConfig(), frames=frames, seed=seed,
                    emit_ttags=True, phase_ticks=phase)  # the same clicks, in frame order
        period = timetag.period_ticks(source.pulse_rate_hz)
        frame = timetag.frame_indices(plain.stream.ticks, phase, period)
        assert np.all(np.diff(frame) > 0)

        rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))  # one block of one tile
        lanes = rng.bit_generator.random_raw(-(-frames // 4)).view("<u2")[:frames]
        rng.bit_generator.random_raw(np.count_nonzero(lanes >= lane_bins(joint_cdf(source, link))[1]))
        jitter = np.rint(rng.normal(0.0, link.jitter_sigma_s / timetag.TICK_SECONDS, len(frame))).astype(np.int64)
        ticks = np.clip(frame * period + phase + jitter, 0, None)
        order = np.argsort(ticks, kind="stable")
        assert np.any(np.diff(ticks) < 0) and np.any(np.diff(ticks[order]) == 0)  # out of order, with ties

        assert np.all(np.diff(res.stream.ticks.astype(np.int64)) >= 0)
        assert res.stream.ticks.dtype == np.uint64
        assert np.array_equal(res.stream.ticks, ticks[order])
        assert np.array_equal(res.stream.channels, plain.stream.channels[order])

    @pytest.mark.parametrize("rate_hz", [1e8, 2e8, 4e8, 8e8])
    def test_one_record_per_clicked_frame_at_any_rate(self, bench6db, rate_hz):
        # ~3e4 clicked frames in 1.25-10 ms of simulated time: up to 26 Mcps
        source, link, proto = bench6db
        res = run(replace(source, pulse_rate_hz=rate_hz), link, proto, frames=1_000_000, seed=7, emit_ttags=True)
        assert len(res.stream) == res.summary.detected.sum()

    def test_log_tail_gain_matches_its_head_at_400_mhz(self, bench6db):
        # each class's gated records per sent frame over the log's last tenth against
        # the first nine tenths, within 3 binomial sigmas of their difference
        source, link, proto = bench6db
        source, frames, phase = replace(source, pulse_rate_hz=4e8), 1_000_000, 5
        res = run(source, link, proto, frames=frames, seed=7, emit_ttags=True, phase_ticks=phase)
        period = timetag.period_ticks(source.pulse_rate_hz)
        gated = timetag.gate(res.stream, period, phase, timetag.window_ticks_from_seconds(link.window_s)).accepted
        frame = timetag.frame_indices(gated.ticks, phase, period)
        cls = res.alice_log.code >> 2
        split = frames - frames // 10
        gains = []
        for part in (slice(0, split), slice(split, frames)):
            sent = np.bincount(cls[part], minlength=3)
            in_part = frame[(frame >= part.start) & (frame < part.stop)]
            gains.append((np.bincount(cls[in_part], minlength=3) / sent, sent))
        (head, n_head), (tail, n_tail) = gains
        sigma = np.sqrt(head * (1 - head) / n_head + tail * (1 - tail) / n_tail)
        assert np.all(np.abs(tail - head) <= 3 * sigma), (head, tail, sigma)

    def test_non_integer_period_rejected(self):
        src = cross_val_source(pulse_rate_hz=97e6)
        link = LinkConfig(window_s=1e-9)
        with pytest.raises(ValueError, match="tick"):
            run(src, link, ProtocolConfig(), frames=100, seed=1, emit_ttags=True)
