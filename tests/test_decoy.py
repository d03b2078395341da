import gc
from dataclasses import is_dataclass, replace
from operator import attrgetter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qkdbench.config import LinkConfig, ProtocolConfig, SourceConfig
from qkdbench import decoy
from qkdbench.decoy import (
    ChannelObservables,
    GridSpec,
    SWEEP_COLUMNS,
    decoy_estimates,
    estimate_background_yield,
    evaluate_link,
    gain,
    key_rate_lower_bound,
    optimize_intensities,
    qber,
    sweep,
    transmittance,
)

# Frozen chain values for the 6 dB benchmark point, computed once with
# 30-digit arithmetic from the model formulas (attenuation-only
# convention, mu=0.5, nu1=0.066, nu2=0.002, Y0=5.58e-4, e_det=7.9e-3).
ETA6 = 0.251188643150958
Q_MU6 = 0.11858542853882074
Q_NU16 = 0.016999784218673854
Q_NU26 = 1.0602511159622754e-3
E_MU6 = 0.010215561054873687
E_NU16 = 0.024052663849601544
Y1L6 = 0.2479525344953816
Q1L6 = 0.07519540716245165
E1U6 = 9.641833419456544e-3
R6 = 2899472.30823703


def bench6db_observables():
    return ChannelObservables(
        q_mu=gain(0.5, ETA6, 5.58e-4),
        q_nu1=gain(0.066, ETA6, 5.58e-4),
        q_nu2=gain(0.002, ETA6, 5.58e-4),
        e_mu=qber(0.5, ETA6, 5.58e-4, 0.5, 7.9e-3),
        e_nu1=qber(0.066, ETA6, 5.58e-4, 0.5, 7.9e-3),
        eta=ETA6,
    )


class TestTransmittance:
    def test_lossless(self):
        link = LinkConfig(attenuation_db=0.0, setup_loss_db=0.0, detector_efficiency=1.0)
        assert transmittance(link) == 1.0

    def test_attenuation_only(self):
        link = LinkConfig(attenuation_db=6.0, setup_loss_db=0.0, detector_efficiency=1.0)
        assert transmittance(link) == pytest.approx(0.2512, abs=1e-4)

    def test_full_budget(self):
        link = LinkConfig(attenuation_db=6.0, setup_loss_db=2.0, detector_efficiency=0.5)
        assert transmittance(link) == pytest.approx(0.0792, abs=1e-4)

    def test_conventions(self):
        link = LinkConfig(attenuation_db=6.0)
        assert decoy.link_eta(link, "attenuation-only") == pytest.approx(ETA6, rel=1e-12)
        assert decoy.link_eta(link, "full-budget") == pytest.approx(0.0792446596230557, rel=1e-12)
        with pytest.raises(ValueError, match="convention"):
            decoy.link_eta(link, "metric")


class TestGain:
    def test_vacuum_gives_background(self):
        assert gain(0.0, 0.7, 5.58e-4) == 5.58e-4

    def test_signal_benchmark(self):
        q = gain(0.5, ETA6, 5.58e-4)
        assert q == pytest.approx(Q_MU6, rel=1e-12)
        assert q == pytest.approx(1.18e-1, rel=0.02)

    def test_decoy1_benchmark(self):
        q = gain(0.066, ETA6, 5.58e-4)
        assert q == pytest.approx(Q_NU16, rel=1e-12)
        assert q == pytest.approx(1.8e-2, rel=0.10)


class TestQber:
    def test_background_only(self):
        assert qber(0.0, 0.5, 5.58e-4, 0.5, 7.9e-3) == 0.5

    def test_signal_benchmark(self):
        assert qber(0.5, ETA6, 5.58e-4, 0.5, 7.9e-3) == pytest.approx(E_MU6, rel=1e-12)
        assert qber(0.5, ETA6, 5.58e-4, 0.5, 7.9e-3) == pytest.approx(0.0102, abs=5e-4)

    def test_noise_free(self):
        assert qber(0.5, ETA6, 0.0, 0.5, 0.0) == 0.0


def y1_lower(obs, mu, nu1, y0):
    return decoy_estimates(obs, mu, nu1, y0).y1_lower


@pytest.mark.parametrize(
    "field, value, message",
    [("q_mu", 1.5, "q_mu: gain must lie in [0, 1]"), ("e_nu1", 0.6, "e_nu1: QBER must lie in [0, 0.5]")],
)
def test_observables_out_of_range_rejected(field, value, message):
    with pytest.raises(ValueError) as info:
        replace(bench6db_observables(), **{field: value})
    assert str(info.value).startswith(message)


class TestY1Lower:
    def test_benchmark_chain(self):
        obs = bench6db_observables()
        val = y1_lower(obs, 0.5, 0.066, 5.58e-4)
        assert val == pytest.approx(Y1L6, rel=1e-12)
        # stays below the true single-photon yield Y0 + eta
        assert val <= 5.58e-4 + ETA6

    def test_rounded_spec_inputs(self):
        obs = ChannelObservables(q_mu=0.1186, q_nu1=0.01700, q_nu2=1.06e-3, e_mu=0.0102, e_nu1=0.0241)
        assert y1_lower(obs, 0.5, 0.066, 5.58e-4) == pytest.approx(0.2480, abs=1e-3)

    def test_perfect_channel(self):
        obs = ChannelObservables(
            q_mu=gain(0.5, 1.0, 0.0),
            q_nu1=gain(0.066, 1.0, 0.0),
            q_nu2=0.0,
            e_mu=0.0,
            e_nu1=0.0,
        )
        val = y1_lower(obs, 0.5, 0.066, 0.0)
        assert 0.99 <= val <= 1.0

    def test_no_signal_clamps_to_zero(self):
        obs = ChannelObservables(q_mu=0.1186, q_nu1=5.58e-4, q_nu2=5.58e-4, e_mu=0.01, e_nu1=0.5)
        assert y1_lower(obs, 0.5, 0.066, 5.58e-4) == 0.0

    def test_degenerate_intensities(self):
        obs = bench6db_observables()
        with pytest.raises(ValueError, match="degenerate"):
            y1_lower(obs, 0.066, 0.066, 5.58e-4)

    @pytest.mark.parametrize("nu1", [1e-320, np.array([0.066, 1e-320])])
    def test_non_finite_bound_rejected(self, nu1):
        # mu / (mu nu1 - nu1^2) overflows for a subnormal nu1
        # (without a RuntimeWarning: the suite turns those into errors)
        obs = bench6db_observables()
        with pytest.raises(ValueError, match=r"not finite at mu=0\.5, nu1=9\.99989e-321$"):
            decoy_estimates(obs, 0.5, nu1, 5.58e-4)


class TestE1Upper:
    def test_benchmark_chain(self):
        obs = bench6db_observables()
        est = decoy_estimates(obs, 0.5, 0.066, 5.58e-4)
        assert est.e1_upper == pytest.approx(E1U6, rel=1e-12)
        assert est.e1_upper == pytest.approx(9.64e-3, abs=5e-4)

    def test_clean_channel_zero(self):
        obs = ChannelObservables(
            q_mu=gain(0.5, 0.3, 0.0), q_nu1=gain(0.066, 0.3, 0.0), q_nu2=0.0, e_mu=0.0, e_nu1=0.0
        )
        est = decoy_estimates(obs, 0.5, 0.066, 0.0)
        assert est.e1_upper == 0.0
        assert not est.clamped

    def test_noise_dominated_clamps(self):
        obs = ChannelObservables(q_mu=0.15, q_nu1=0.018, q_nu2=0.015, e_mu=0.5, e_nu1=0.5)
        est = decoy_estimates(obs, 0.5, 0.066, 1e-4)
        assert est.e1_upper == 0.5
        assert est.clamped

    def test_zero_yield_bound_is_pessimistic(self):
        obs = ChannelObservables(q_mu=0.1186, q_nu1=5.58e-4, q_nu2=5.58e-4, e_mu=0.01, e_nu1=0.0)
        est = decoy_estimates(obs, 0.5, 0.066, 5.58e-4)
        assert est.y1_lower == 0.0
        assert est.e1_upper == 0.5


class TestKeyRate:
    def test_benchmark_rate(self):
        obs = bench6db_observables()
        est = decoy_estimates(obs, 0.5, 0.066, 5.58e-4)
        report = key_rate_lower_bound(obs, est, ProtocolConfig(), 1e8)
        assert report.secure_key_rate_bps == pytest.approx(R6, rel=1e-9)
        assert report.secure_key_rate_bps == pytest.approx(2.90e6, rel=0.05)
        assert report.raw_key_rate_bps == pytest.approx(0.5 * 1e8 * Q_MU6, rel=1e-12)

    def test_cutoff(self):
        obs = replace(bench6db_observables(), e_mu=0.12)
        est = decoy_estimates(obs, 0.5, 0.066, 5.58e-4)
        report = key_rate_lower_bound(obs, est, ProtocolConfig(), 1e8)
        assert report.secure_key_rate_bps == 0.0
        assert report.qber_cutoff_hit

    def test_zero_single_photon_gain_clamps(self):
        obs = bench6db_observables()
        est = replace(decoy_estimates(obs, 0.5, 0.066, 5.58e-4), q1_lower=0.0)
        report = key_rate_lower_bound(obs, est, ProtocolConfig(), 1e8)
        assert report.secure_key_rate_bps == 0.0
        assert not report.qber_cutoff_hit

    def test_reduction_identity(self):
        # with E=0, e1=0, f=1 the rate is exactly q (N/t) Q1_lower
        obs = replace(bench6db_observables(), e_mu=0.0, e_nu1=0.0)
        est = decoy_estimates(obs, 0.5, 0.066, 5.58e-4)
        est = replace(est, e1_upper=0.0)
        proto = ProtocolConfig(error_correction_f=1.0)
        report = key_rate_lower_bound(obs, est, proto, 1e8)
        assert report.secure_key_rate_bps == pytest.approx(0.5 * 1e8 * est.q1_lower, rel=1e-12)


class TestSweep:
    def test_single_point_matches_chain(self, bench6db):
        source, link, proto = bench6db
        reports = sweep(link, [6.0], source, proto, gain_convention="attenuation-only")
        assert len(reports) == 1
        assert reports[0].secure_key_rate_bps == pytest.approx(R6, rel=1e-9)
        assert reports[0].attenuation_db == 6.0

    def test_empty(self, bench6db):
        source, link, proto = bench6db
        reports = sweep(link, [], source, proto)
        assert len(reports) == 0 and list(reports) == []

    @settings(max_examples=60, deadline=None)
    @given(
        attens=st.lists(st.one_of(st.sampled_from([0.0, 6.0, 35.0]), st.floats(0.0, 60.0)), max_size=8).map(sorted),
        convention=st.sampled_from(decoy.GAIN_CONVENTIONS),
    )
    def test_rows_are_the_batch_elements(self, attens, convention):
        source, link, proto = SourceConfig(mu=0.5, nu1=0.066, nu2=0.002), LinkConfig(), ProtocolConfig()
        reports = sweep(link, attens, source, proto, gain_convention=convention)
        n = len(attens)
        assert len(reports) == n and len(list(reports)) == n
        batch = evaluate_link(source, replace(link, attenuation_db=np.array(attens)), proto, convention)
        for i in range(n):
            row = reports[i]
            assert reports[i - n] == row
            for (path, got), (_, column) in zip(leaves(row), leaves(batch)):
                want = np.asarray(column)[i].tolist()
                assert type(got) is type(want) and got == want, path
            one = evaluate_link(source, replace(link, attenuation_db=attens[i]), proto, convention)
            for name in CHAIN_VALUES:
                np.testing.assert_allclose(attrgetter(name)(row), attrgetter(name)(one), rtol=1e-12, atol=0, err_msg=name)
            assert row.estimates.clamped == one.estimates.clamped
            assert row.qber_cutoff_hit == one.qber_cutoff_hit and row.attenuation_db == attens[i]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                reports[i]
        assert reports[1:] == list(reports)[1:] and reports[::-2] == list(reports)[::-2]
        columns = reports.columns()
        assert list(columns) == [name for name, _, _ in SWEEP_COLUMNS]
        assert all(columns[name] == [get(r) for r in reports] for name, get, _ in SWEEP_COLUMNS)

    def test_rows_are_built_on_access(self, bench6db):
        # a sweep holds one array-valued report, not one object per point
        source, link, proto = bench6db
        attens = [i / 10 for i in range(401)]
        sweep(link, attens, source, proto)
        gc.collect()
        before = len(gc.get_objects())
        reports = sweep(link, attens, source, proto)
        assert len(gc.get_objects()) - before < 40
        assert len(reports) == 401

    def test_rows_skip_the_checks_the_batch_passed(self, bench6db, monkeypatch):
        # reading every row costs no per-row validation
        source, link, proto = bench6db
        reports = sweep(link, [0.0, 6.0, 35.0], source, proto)

        def fail(self):
            raise AssertionError("a row was validated again")

        monkeypatch.setattr(ChannelObservables, "__post_init__", fail)
        assert [r.attenuation_db for r in reports] == [0.0, 6.0, 35.0]

    def test_unsorted_rejected(self, bench6db):
        source, link, proto = bench6db
        with pytest.raises(ValueError, match="ascending"):
            sweep(link, [10.0, 5.0], source, proto)

    @pytest.mark.parametrize(
        "attens, named",
        [
            ([-5.0, 0.0], "-5"),
            ([0.0, np.nan], "nan"),
            ([0.0, np.inf], "inf"),
            ([-1.0, np.nan], "-1"),
            ([*np.linspace(0.0, 40.0, 400), np.nan], "nan"),  # the message is one line, not the gain array
        ],
        ids=["negative", "nan", "inf", "first-named", "401-points"],
    )
    def test_bad_attenuation_rejected(self, bench6db, attens, named):
        source, link, proto = bench6db
        with pytest.raises(ValueError, match=f"finite and >= 0, got {named} dB") as info:
            sweep(link, attens, source, proto)
        assert "\n" not in str(info.value)

    def test_bad_attenuation_rejected_by_the_chain(self, bench6db):
        # the check sits where attenuation enters the chain, so evaluate_link
        # names the value in one line, not in a ChannelObservables error
        source, link, proto = bench6db
        bad = replace(link, attenuation_db=np.array([1.0, np.nan]))
        with pytest.raises(ValueError, match=r"^attenuation must be finite and >= 0, got nan dB$"):
            evaluate_link(source, bad, proto, "full-budget")

    def test_monotonicity_and_cutoff(self, bench6db):
        source, link, proto = bench6db
        reports = sweep(link, list(range(41)), source, proto, gain_convention="full-budget")
        rkr = [r.raw_key_rate_bps for r in reports]
        assert all(b < a for a, b in zip(rkr, rkr[1:]))
        for r in reports:
            if r.observables.e_mu > decoy.QBER_CUTOFF:
                assert r.secure_key_rate_bps == 0.0
        assert any(r.secure_key_rate_bps > 0 for r in reports)

    def test_rate_non_increasing_in_background(self, bench6db):
        source, link, proto = bench6db
        rates = []
        for y0 in (1e-5, 1e-4, 5e-4, 1e-3, 5e-3):
            rates.append(
                evaluate_link(source, replace(link, background_yield=y0), proto, "attenuation-only").secure_key_rate_bps
            )
        assert all(b <= a + 1e-9 for a, b in zip(rates, rates[1:]))


class TestBounds:
    def test_sandwich_wide_region(self):
        # model-generated channels on a wide parameter region: the yield
        # bound never exceeds the true Y1 = Y0 + eta and the error bound
        # never undercuts the true e1
        rng = np.random.default_rng(20240517)
        for _ in range(1000):
            eta = 10 ** rng.uniform(-3.5, 0)
            y0 = 10 ** rng.uniform(-6, -2)
            e_det = rng.uniform(0.0, 0.1)
            mu = rng.uniform(0.05, 1.0)
            nu1 = rng.uniform(0.01, 0.999) * mu
            obs = ChannelObservables(
                q_mu=gain(mu, eta, y0),
                q_nu1=gain(nu1, eta, y0),
                q_nu2=y0,
                e_mu=min(qber(mu, eta, y0, 0.5, e_det), 0.5),
                e_nu1=min(qber(nu1, eta, y0, 0.5, e_det), 0.5),
            )
            est = decoy_estimates(obs, mu, nu1, y0)
            true_y1 = y0 + eta
            true_e1 = (0.5 * y0 + e_det * eta) / true_y1
            assert est.y1_lower <= true_y1 + 1e-12
            if est.y1_lower > 0:
                assert est.e1_upper >= min(true_e1, 0.5) - 1e-12

    def test_clamp_correctness_on_noise(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            obs = ChannelObservables(
                q_mu=rng.random(),
                q_nu1=rng.random(),
                q_nu2=rng.random(),
                e_mu=rng.random() * 0.5,
                e_nu1=rng.random() * 0.5,
            )
            mu = rng.uniform(0.2, 1.0)
            nu1 = rng.uniform(0.01, 0.9) * mu
            est = decoy_estimates(obs, mu, nu1, rng.random() * 1e-2)
            assert 0.0 <= est.y1_lower <= 1.0
            assert 0.0 <= est.q1_lower <= 1.0
            assert 0.0 <= est.e1_upper <= 0.5


class TestBackgroundEstimate:
    def test_recovers_known_y0(self):
        obs = bench6db_observables()
        est = estimate_background_yield(obs, 0.5, 0.002)
        assert est == pytest.approx(5.58e-4, rel=0.01)

    def test_exact_vacuum(self):
        obs = bench6db_observables()
        assert estimate_background_yield(obs, 0.5, 0.0) == obs.q_nu2


class TestOptimize:
    def test_single_point(self, bench6db):
        _, link, proto = bench6db
        res = optimize_intensities(link, proto, GridSpec((0.5,), (0.1,)), source_template=SourceConfig())
        assert (res.mu, res.nu1) == (0.5, 0.1)

    def test_empty_grid(self, bench6db):
        _, link, proto = bench6db
        with pytest.raises(ValueError, match="empty"):  # nu1 >= mu everywhere
            optimize_intensities(link, proto, GridSpec((0.1,), (0.5,)), source_template=SourceConfig())

    def test_all_zero_flag(self, bench6db):
        source, link, proto = bench6db
        noisy = replace(link, background_yield=0.2, background_suppression=1.0)
        res = optimize_intensities(noisy, proto, GridSpec((0.25, 0.5), (0.05, 0.1)), source_template=source)
        assert res.all_zero
        assert res.secure_key_rate_bps == 0.0
        assert (res.mu, res.nu1) == (0.25, 0.05)

    def test_low_loss_optimum_near_half(self, bench6db):
        # qualitative anchor: on a 0.25-step grid the argmax lands one
        # step from the canonical 0.5 signal intensity
        source, link, proto = bench6db
        grid = GridSpec((0.25, 0.5, 0.75, 1.0), (0.05, 0.1, 0.15, 0.2))
        res = optimize_intensities(
            replace(link, attenuation_db=3.0), proto, grid, source_template=source
        )
        assert abs(res.mu - 0.5) <= 0.25
        assert res.secure_key_rate_bps > 0


CHAIN_VALUES = (
    "observables.q_mu",
    "observables.q_nu1",
    "observables.q_nu2",
    "observables.e_mu",
    "observables.e_nu1",
    "estimates.y1_lower",
    "estimates.q1_lower",
    "estimates.e1_upper",
    "raw_key_rate_bps",
    "secure_key_rate_bps",
)


def leaves(report):
    """(field path, value) of each non-dataclass field of a report, in field order."""
    for name, value in vars(report).items():
        if is_dataclass(value):
            yield from ((f"{name}.{path}", leaf) for path, leaf in leaves(value))
        else:
            yield name, value


class TestArrayChain:
    """Element i of an array evaluation equals the scalar chain at point i."""

    @settings(max_examples=60, deadline=None)
    @given(
        attens=st.lists(st.floats(0.0, 60.0), min_size=1, max_size=8),
        intensities=st.lists(
            st.tuples(st.floats(0.01, 1.0), st.floats(0.01, 0.99)), min_size=1, max_size=8
        ),
        y0=st.floats(1e-6, 1e-1),
        convention=st.sampled_from(decoy.GAIN_CONVENTIONS),
    )
    def test_matches_scalar_chain(self, attens, intensities, y0, convention):
        source = SourceConfig()
        link = LinkConfig(background_yield=y0, background_suppression=1.0)
        proto = ProtocolConfig()
        atten = np.array(attens)[:, None]
        mu = np.array([m for m, _ in intensities])[None, :]
        nu1 = mu * np.array([f for _, f in intensities])[None, :]
        batch = evaluate_link(
            replace(source, mu=mu, nu1=nu1, nu2=0.0), replace(link, attenuation_db=atten), proto, convention
        )
        shape = batch.secure_key_rate_bps.shape
        for i, j in np.ndindex(shape):
            one = evaluate_link(
                replace(source, mu=float(mu[0, j]), nu1=float(nu1[0, j]), nu2=0.0),
                replace(link, attenuation_db=float(atten[i, 0])),
                proto,
                convention,
            )
            for name in CHAIN_VALUES:
                got = np.broadcast_to(attrgetter(name)(batch), shape)[i, j]
                np.testing.assert_allclose(got, attrgetter(name)(one), rtol=1e-12, atol=0, err_msg=name)
            assert np.broadcast_to(batch.estimates.clamped, shape)[i, j] == one.estimates.clamped
            assert batch.qber_cutoff_hit[i, j] == one.qber_cutoff_hit


def explicit_chain(sent, detected, sifted, errors, source, link, proto):
    """The four-call chain from counts to rate, written out by hand."""
    obs = ChannelObservables(
        q_mu=detected[0] / sent[0],
        q_nu1=detected[1] / sent[1],
        q_nu2=detected[2] / sent[2],
        e_mu=min(errors[0] / sifted[0], 0.5),
        e_nu1=min(errors[1] / sifted[1], 0.5),
    )
    y0 = estimate_background_yield(obs, source.mu, source.nu2)
    est = decoy_estimates(obs, source.mu, source.nu1, y0, link.background_error)
    return y0, key_rate_lower_bound(obs, est, proto, proto.signal_pulses_per_s(source))


@st.composite
def class_counts(draw):
    """Per-class (sent, detected, sifted, errors) with signal and decoy 1 sifted."""
    columns = []
    for cls in range(3):
        sent = draw(st.integers(1, 10**9))
        detected = draw(st.integers(1 if cls < 2 else 0, sent))
        sifted = draw(st.integers(1 if cls < 2 else 0, detected))
        columns.append((sent, detected, sifted, draw(st.integers(0, sifted))))
    return [list(c) for c in zip(*columns)]


class TestRateFromCounts:
    @settings(max_examples=200, deadline=None)
    @given(
        counts=class_counts(),
        nu1_fraction=st.floats(0.01, 0.99),
        nu2=st.floats(0.0, 0.01),
        background_error=st.floats(0.0, 0.5),
        signal_pulses=st.floats(1.0, 1e9),
    )
    def test_equals_explicit_chain(self, counts, nu1_fraction, nu2, background_error, signal_pulses):
        source = SourceConfig(mu=0.5, nu1=0.5 * nu1_fraction, nu2=nu2)
        link = LinkConfig(background_error=background_error)
        proto = ProtocolConfig(signal_pulses=signal_pulses)
        table = np.array(counts, dtype=np.int64)
        assert decoy.rate_from_counts(table, source, link, proto) == explicit_chain(*counts, source, link, proto)

    def test_observables(self, bench6db):
        _, report = decoy.rate_from_counts([[1000, 1000, 1000], [118, 17, 0], [60, 8, 0], [1, 0, 0]], *bench6db)
        obs = report.observables
        assert obs.q_mu == pytest.approx(0.118)
        assert obs.e_mu == pytest.approx(1 / 60)
        assert obs.e_nu1 == 0.0
        assert obs.q_nu2 == 0.0  # zero detections in decoy2

    def test_error_rate_clamped(self, bench6db):
        _, report = decoy.rate_from_counts([[10, 10, 10], [4, 4, 0], [4, 4, 0], [3, 4, 0]], *bench6db)
        assert report.observables.e_mu == report.observables.e_nu1 == 0.5

    @pytest.mark.parametrize("sifted", [[60, 0, 0], [0, 8, 0]])
    def test_no_sifted_detection_rejected(self, bench6db, sifted):
        with pytest.raises(ValueError, match="sifted detections"):
            decoy.rate_from_counts([[1000, 500, 500], [118, 17, 0], sifted, [0, 0, 0]], *bench6db)

    def test_zero_sent_rejected(self, bench6db):
        with pytest.raises(ValueError, match="no pulses sent"):
            decoy.rate_from_counts([[10, 0, 0], [1, 0, 0], [1, 0, 0], [0, 0, 0]], *bench6db)
