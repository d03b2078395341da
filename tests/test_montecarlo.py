import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qkdbench.config import LinkConfig, ProtocolConfig, SourceConfig
from qkdbench import decoy, montecarlo
from qkdbench.montecarlo import RunSummary, run


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


def same_summary(a: RunSummary, b: RunSummary) -> bool:
    fields = ("frames", "simulated_s", "sent", "detected", "sifted", "errors")
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in fields)


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
        assert s.errors.sum() == 0
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
        s = run(source, link, ProtocolConfig(), frames=frames, seed=31).summary
        observed = np.stack(
            [s.sent - s.detected, s.sifted - s.errors, s.errors, s.detected - s.sifted], axis=1
        )
        expected = frames * class_cells(source, link)
        assert np.all(expected > 50)
        chi2 = float(((observed - expected) ** 2 / expected).sum())
        assert chi2 <= 31.26, (chi2, observed.tolist(), expected.tolist())


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
        qber = res.summary.errors.sum() / res.summary.sifted.sum()
        assert abs(qber - 0.5) <= 3 * math.sqrt(0.25 / res.summary.sifted.sum())


class TestSummary:
    def test_blocks_tally_into_one_summary(self, bench6db, monkeypatch):
        # three blocks tally into one summary
        monkeypatch.setattr(montecarlo, "BLOCK_FRAMES", 30_000)
        _, link, proto = bench6db
        src = cross_val_source()
        res = run(src, link, proto, frames=90_000, seed=5, emit_ttags=True)
        first = run(src, link, proto, frames=30_000, seed=5, emit_ttags=True)
        whole = res.summary
        assert whole.frames == 90_000
        assert whole.sent.sum() == len(res.alice_log) == 90_000
        # the first block is drawn as a run of its own
        assert np.array_equal(res.alice_log.code[:30_000], first.alice_log.code)
        assert np.array_equal(whole.sent, np.bincount(res.alice_log.code >> 2, minlength=3))
        assert np.all(whole.detected <= whole.sent)
        assert np.all(whole.errors <= whole.sifted)

    def test_simulated_s_is_exact(self, bench6db, monkeypatch):
        # a float sum over blocks gave 3.0000000000000004e-05 here
        monkeypatch.setattr(montecarlo, "BLOCK_FRAMES", 1000)
        _, link, proto = bench6db
        src = cross_val_source()
        s = run(src, link, proto, frames=3000, seed=6).summary
        assert s.simulated_s == 3000 / src.pulse_rate_hz

    def test_hand_built_summary(self):
        s = RunSummary(
            frames=1000,
            simulated_s=1e-5,
            sent=np.array([1000, 1, 1]),
            detected=np.array([118, 0, 0]),
            sifted=np.array([118, 0, 0]),
            errors=np.array([1, 0, 0]),
        )
        assert s.gain_class(0) == pytest.approx(0.118)
        assert s.qber_class(0) == pytest.approx(1 / 118)


class TestEmission:
    def test_ticks_sorted_and_decodable(self, bench6db):
        _, link, proto = bench6db
        res = run(cross_val_source(), link, proto, frames=100_000, seed=21, emit_ttags=True, phase_ticks=37)
        t = res.stream.ticks.astype(np.int64)
        assert np.all(np.diff(t) >= 0)
        assert res.alice_log is not None
        assert len(res.alice_log) == 100_000

    def test_throughput_cap_saturates(self):
        src = cross_val_source()
        link = LinkConfig(attenuation_db=0.0, background_suppression=1.0)
        res = run(src, link, ProtocolConfig(), frames=1_000_000, seed=22, emit_ttags=True)
        rate_mcps = len(res.stream) / res.summary.simulated_s / 1e6
        assert res.dropped_records > 0
        assert rate_mcps == pytest.approx(10.0, rel=1e-6)

    def test_non_integer_period_rejected(self):
        src = cross_val_source(pulse_rate_hz=97e6)
        link = LinkConfig(window_s=1e-9)
        with pytest.raises(ValueError, match="tick"):
            run(src, link, ProtocolConfig(), frames=100, seed=1, emit_ttags=True)
