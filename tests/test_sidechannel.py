import numpy as np
import pytest

from qkdbench.decoy import ChannelObservables, DecoyEstimates, KeyRateReport
from qkdbench.sidechannel import (
    LeakageBudget,
    PulseProfile,
    leakage,
    leakage_adjusted_rate,
    load_profiles,
    remove_pedestal,
    synth_profiles,
)


def flat_profiles_csv(tmp_path, value=2.0, rows=16):
    path = tmp_path / "profiles.csv"
    lines = ["axis,stateH,stateV,stateD,stateA"]
    for i in range(rows):
        lines.append(f"{i * 1e-12},{value},{value},{value},{value}")
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoadProfiles:
    def test_constant_file(self, tmp_path):
        profiles = load_profiles(flat_profiles_csv(tmp_path))
        assert [p.state for p in profiles] == ["H", "V", "D", "A"]
        assert all(np.all(p.intensity == 2.0) for p in profiles)
        assert leakage(profiles) <= 1e-12

    def test_negative_entry_names_row(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("axis,stateH,stateV,stateD,stateA\n0,1,1,1,1\n1e-12,1,-0.5,1,1\n")
        with pytest.raises(ValueError, match="row 3"):
            load_profiles(path)

    def test_missing_state_column(self, tmp_path):
        path = tmp_path / "missing.csv"
        path.write_text("axis,stateH,stateV,stateD\n0,1,1,1\n")
        with pytest.raises(ValueError, match="header"):
            load_profiles(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("axis,stateH,stateV,stateD,stateA\n0,1,1,1,1\n1e-12,1,1\n")
        with pytest.raises(ValueError, match="row 3"):
            load_profiles(path)

    def test_round_trip_of_repr_written_file(self, tmp_path):
        temporal, _ = synth_profiles(ase_pedestal=(0.02, 0.0, 0.01, 0.05))
        path = tmp_path / "rt.csv"
        rows = ["axis,stateH,stateV,stateD,stateA"]
        for i, x in enumerate(temporal[0].axis):
            rows.append(",".join(repr(float(v)) for v in [x] + [p.intensity[i] for p in temporal]))
        path.write_text("\n".join(rows) + "\n")
        back = load_profiles(path)
        for orig, loaded in zip(temporal, back):
            assert np.allclose(orig.axis, loaded.axis, rtol=0, atol=0)
            assert np.allclose(orig.intensity, loaded.intensity, rtol=0, atol=0)
            assert orig.state == loaded.state


class TestSynthProfiles:
    def test_identical_profiles_leak_nothing(self):
        temporal, spectral = synth_profiles()
        assert leakage(temporal) <= 1e-12
        assert leakage(spectral) <= 1e-12

    def test_pedestals_leak_then_filter_removes(self):
        temporal, _ = synth_profiles(ase_pedestal=(0.05, 0.0, 0.0, 0.05))
        raw = leakage(temporal)
        assert raw > 0
        cleaned = [remove_pedestal(p) for p in temporal]
        assert leakage(cleaned) < raw * 1e-3

    def test_spectral_fwhm_at_transform_limit(self):
        _, spectral = synth_profiles(fwhm_s=400e-12, tbp=0.44)
        prof = spectral[0]
        # interpolated half-maximum crossings
        half = 0.5 * prof.intensity.max()
        i = np.nonzero(prof.intensity >= half)[0]
        left = np.interp(half, prof.intensity[i[0] - 1 : i[0] + 1], prof.axis[i[0] - 1 : i[0] + 1])
        right = np.interp(
            half, prof.intensity[i[-1] + 1 : i[-1] - 1 : -1], prof.axis[i[-1] + 1 : i[-1] - 1 : -1]
        )
        assert right - left == pytest.approx(0.44 / 400e-12, rel=1e-3)  # 1.1 GHz

    def test_below_transform_limit_rejected(self):
        with pytest.raises(ValueError, match="transform limit"):
            synth_profiles(tbp=0.3)

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError, match="per state"):
            synth_profiles(ase_pedestal=(0.1, 0.0))

    def test_shifts_produce_leakage(self):
        temporal, _ = synth_profiles(shifts_s=(0.0, 0.0, 0.0, 40e-12))
        assert leakage(temporal) > 1e-3


class TestLeakage:
    def test_disjoint_profiles_two_bits(self):
        axis = np.arange(8, dtype=float)
        profiles = []
        for i, state in enumerate("HVDA"):
            y = np.zeros(8)
            y[2 * i : 2 * i + 2] = 1.0
            profiles.append(PulseProfile(axis, y, state))
        assert leakage(profiles) == pytest.approx(2.0, abs=1e-12)

    def test_scale_invariance(self):
        temporal, _ = synth_profiles(ase_pedestal=(0.03, 0.0, 0.01, 0.02))
        base = leakage(temporal)
        scaled = [
            PulseProfile(p.axis, p.intensity * s, p.state)
            for p, s in zip(temporal, (7.0, 0.2, 3.5, 11.0))
        ]
        assert leakage(scaled) == pytest.approx(base, rel=1e-12)

    def test_smoothing_never_increases_leakage(self):
        rng = np.random.default_rng(60)
        kernel = np.array([0.25, 0.5, 0.25])
        axis = np.arange(64, dtype=float)
        for _ in range(20):
            profiles = []
            for state in "HVDA":
                y = np.zeros(64)
                y[16:48] = rng.random(32)  # keep mass away from the edges
                profiles.append(PulseProfile(axis, y, state))
            before = leakage(profiles)
            smoothed = [
                PulseProfile(axis, np.convolve(p.intensity, kernel, mode="same"), p.state)
                for p in profiles
            ]
            assert leakage(smoothed) <= before + 1e-9

    def test_all_zero_profile_rejected(self):
        axis = np.arange(4, dtype=float)
        profiles = [PulseProfile(axis, np.ones(4), "H"), PulseProfile(axis, np.zeros(4), "V")]
        with pytest.raises(ValueError, match="all-zero"):
            leakage(profiles)

    def test_mismatched_axes_rejected(self):
        a = PulseProfile(np.arange(4, dtype=float), np.ones(4), "H")
        b = PulseProfile(np.arange(5, dtype=float), np.ones(5), "V")
        with pytest.raises(ValueError, match="common axis"):
            leakage([a, b])

    def test_single_profile_rejected(self):
        a = PulseProfile(np.arange(4, dtype=float), np.ones(4), "H")
        with pytest.raises(ValueError, match="at least two"):
            leakage([a])

    def test_nonuniform_bins_rejected(self):
        with pytest.raises(ValueError, match="uniform"):
            PulseProfile(np.array([0.0, 1.0, 3.0]), np.ones(3), "H")


def make_report(secure=2899472.30823703, raw=0.5 * 1e8 * 0.11858542853882074):
    obs = ChannelObservables(q_mu=0.11858542853882074, q_nu1=0.017, q_nu2=1.06e-3, e_mu=0.0102, e_nu1=0.024)
    est = DecoyEstimates(y1_lower=0.248, q1_lower=0.0752, e1_upper=0.00964)
    return KeyRateReport(
        observables=obs,
        estimates=est,
        raw_key_rate_bps=raw,
        secure_key_rate_bps=secure,
        qber_cutoff_hit=False,
    )


class TestBudget:
    def test_total_is_sum(self):
        b = LeakageBudget(temporal=1.92e-3, spectral=1.75e-3, spatial=1e-5)
        assert b.total == pytest.approx(3.68e-3)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LeakageBudget(temporal=-1e-3, spectral=0.0)

    def test_spatial_default_constant(self):
        assert LeakageBudget(temporal=0.0, spectral=0.0).spatial == 1e-5


class TestAdjustedRate:
    def test_zero_budget_identity(self):
        report = make_report()
        budget = LeakageBudget(temporal=0.0, spectral=0.0, spatial=0.0)
        assert leakage_adjusted_rate(report, budget) == report.secure_key_rate_bps

    def test_huge_budget_clamps_to_zero(self):
        report = make_report(secure=1000.0)
        budget = LeakageBudget(temporal=1.0, spectral=0.5, spatial=0.1)
        assert leakage_adjusted_rate(report, budget) == 0.0

    def test_benchmark_arithmetic(self):
        # frozen oracle: R - q (N/t) Q_mu * 3.7e-3 = 2.8775e6
        report = make_report()
        budget = LeakageBudget(temporal=1.92e-3, spectral=1.75e-3, spatial=3e-5)
        assert budget.total == pytest.approx(3.7e-3)
        adjusted = leakage_adjusted_rate(report, budget)
        assert adjusted == pytest.approx(2877534.0039573484, rel=1e-9)
        assert adjusted == pytest.approx(2.878e6, rel=1e-3)

    def test_bounded_by_rate(self):
        rng = np.random.default_rng(61)
        report = make_report()
        for _ in range(100):
            budget = LeakageBudget(
                temporal=float(10 ** rng.uniform(-5, -1)),
                spectral=float(10 ** rng.uniform(-5, -1)),
                spatial=float(10 ** rng.uniform(-6, -4)),
            )
            adj = leakage_adjusted_rate(report, budget)
            assert 0.0 <= adj <= report.secure_key_rate_bps
