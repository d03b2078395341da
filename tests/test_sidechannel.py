import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from qkdbench.decoy import ChannelObservables, DecoyEstimates, KeyRateReport
from qkdbench.sidechannel import (
    LeakageBudget,
    leakage,
    leakage_adjusted_rate,
    load_profiles,
    remove_pedestal,
    synth_profiles,
)

HEADER = "axis,stateH,stateV,stateD,stateA"


def write_profiles(tmp_path, axis, profiles, name="profiles.csv"):
    path = tmp_path / name
    rows = [HEADER] + [",".join(repr(float(v)) for v in (x, *col)) for x, col in zip(axis, np.transpose(profiles))]
    path.write_text("\n".join(rows) + "\n")
    return path


@st.composite
def profile_sets(draw):
    """A (states, bins) array of per-state counts, every row non-zero."""
    shape = (draw(st.integers(2, 6)), draw(st.integers(1, 12)))
    rows = draw(arrays(float, shape, elements=st.integers(0, 1000).map(float)))
    assume(np.all(rows.sum(axis=1) > 0))
    return rows


class TestLoadProfiles:
    def test_constant_file(self, tmp_path):
        profiles = load_profiles(write_profiles(tmp_path, np.arange(16) * 1e-12, np.full((4, 16), 2.0)))
        assert profiles.shape == (4, 16) and np.all(profiles == 2.0)
        assert leakage(profiles) <= 1e-12

    def test_negative_entry_names_row(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text(f"{HEADER}\n0,1,1,1,1\n1e-12,1,-0.5,1,1\n")
        with pytest.raises(ValueError, match="row 3"):
            load_profiles(path)

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_nonfinite_entry_names_row(self, tmp_path, bad):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"{HEADER}\n0,1,1,1,1\n1e-12,1,1,1,1\n2e-12,1,1,{bad},1\n")
        with pytest.raises(ValueError, match="row 4: intensities must be finite"):
            load_profiles(path)

    def test_nonuniform_axis_names_row(self, tmp_path):
        path = tmp_path / "uneven.csv"
        path.write_text(f"{HEADER}\n0,1,1,1,1\n1e-12,1,1,1,1\n2e-12,1,1,1,1\n4e-12,1,1,1,1\n")
        with pytest.raises(ValueError, match="row 5: axis bins must be uniform"):
            load_profiles(path)

    def test_missing_state_column(self, tmp_path):
        path = tmp_path / "missing.csv"
        path.write_text("axis,stateH,stateV,stateD\n0,1,1,1\n")
        with pytest.raises(ValueError, match="header"):
            load_profiles(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text(f"{HEADER}\n0,1,1,1,1\n1e-12,1,1\n")
        with pytest.raises(ValueError, match="row 3"):
            load_profiles(path)

    def test_round_trip_of_repr_written_file(self, tmp_path):
        temporal, _ = synth_profiles(ase_pedestal=(0.02, 0.0, 0.01, 0.05))
        axis = np.linspace(-1.2e-9, 1.2e-9, temporal.shape[1])
        back = load_profiles(write_profiles(tmp_path, axis, temporal))
        assert back.flags.c_contiguous
        assert np.array_equal(back, temporal)


class TestSynthProfiles:
    def test_one_row_per_state(self):
        temporal, spectral = synth_profiles()
        assert temporal.shape == spectral.shape == (4, 256)

    def test_identical_profiles_leak_nothing(self):
        temporal, spectral = synth_profiles()
        assert leakage(temporal) <= 1e-12
        assert leakage(spectral) <= 1e-12

    def test_pedestals_leak_then_filter_removes(self):
        temporal, _ = synth_profiles(ase_pedestal=(0.05, 0.0, 0.0, 0.05))
        raw = leakage(temporal)
        assert raw > 0
        cleaned = remove_pedestal(temporal)
        assert np.array_equal(cleaned, [remove_pedestal(row) for row in temporal])
        assert leakage(cleaned) < raw * 1e-3

    def test_spectral_axis_spans_six_fwhm(self):
        # the axis is +-3 FWHM of the spectral width, so the half-maximum
        # crossings are 255/6 bins apart for any time-bandwidth product
        _, spectral = synth_profiles(fwhm_s=400e-12, tbp=0.44)
        row = spectral[0]
        bins = np.arange(row.size, dtype=float)
        half = 0.5 * row.max()
        i = np.nonzero(row >= half)[0]
        left = np.interp(half, row[i[0] - 1 : i[0] + 1], bins[i[0] - 1 : i[0] + 1])
        right = np.interp(half, row[i[-1] + 1 : i[-1] - 1 : -1], bins[i[-1] + 1 : i[-1] - 1 : -1])
        assert right - left == pytest.approx(255 / 6, rel=1e-3)

    def test_bandwidth_does_not_change_spectral_profiles(self):
        pedestals = (0.05, 0.0, 0.0, 0.05)
        _, narrow = synth_profiles(tbp=0.44, ase_pedestal=pedestals)
        _, wide = synth_profiles(tbp=5.0, ase_pedestal=pedestals)
        assert np.allclose(narrow, wide, rtol=1e-12, atol=0.0)

    def test_below_transform_limit_rejected(self):
        with pytest.raises(ValueError, match="transform limit"):
            synth_profiles(tbp=0.3)

    def test_nonpositive_fwhm_rejected(self):
        with pytest.raises(ValueError, match="fwhm must be positive"):
            synth_profiles(fwhm_s=0.0)

    def test_bad_lengths_rejected(self):
        with pytest.raises(ValueError, match="per state"):
            synth_profiles(ase_pedestal=(0.1, 0.0))

    @pytest.mark.parametrize(
        "kwargs", [{"ase_pedestal": (math.inf, 0, 0, 0)}, {"shifts_s": (0, math.nan, 0, 0)}, {"shifts_s": (0, 0, 0, -math.inf)}]
    )
    def test_nonfinite_pedestal_or_shift_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            synth_profiles(**kwargs)

    def test_shifts_produce_leakage(self):
        temporal, _ = synth_profiles(shifts_s=(0.0, 0.0, 0.0, 40e-12))
        assert leakage(temporal) > 1e-3


class TestLeakage:
    def test_disjoint_profiles_two_bits(self):
        assert leakage(np.kron(np.eye(4), np.ones(2))) == pytest.approx(2.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(rows=profile_sets(), data=st.data())
    def test_unchanged_under_row_scaling(self, rows, data):
        scales = data.draw(arrays(float, (len(rows), 1), elements=st.floats(1e-3, 1e3)))
        assert leakage(rows * scales) == pytest.approx(leakage(rows), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(rows=profile_sets(), data=st.data())
    def test_unchanged_under_one_bin_permutation(self, rows, data):
        order = data.draw(st.permutations(range(rows.shape[1])))
        assert leakage(rows[:, order]) == pytest.approx(leakage(rows), abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(rows=profile_sets(), data=st.data())
    def test_proportional_rows_leak_nothing(self, rows, data):
        scales = data.draw(arrays(float, (len(rows), 1), elements=st.floats(1e-3, 1e3)))
        assert leakage(rows[:1] * scales) == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(rows=profile_sets())
    def test_within_zero_and_log2_states(self, rows):
        assert 0.0 <= leakage(rows) <= math.log2(len(rows)) + 1e-12

    def test_smoothing_never_increases_leakage(self):
        rng = np.random.default_rng(60)
        kernel = np.array([0.25, 0.5, 0.25])
        for _ in range(20):
            profiles = np.zeros((4, 64))
            profiles[:, 16:48] = rng.random((4, 32))  # keep mass away from the edges
            smoothed = np.array([np.convolve(row, kernel, mode="same") for row in profiles])
            assert leakage(smoothed) <= leakage(profiles) + 1e-9

    def test_all_zero_profile_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            leakage(np.array([np.ones(4), np.zeros(4)]))

    def test_rows_of_unequal_length_rejected(self):
        with pytest.raises(ValueError):
            leakage([np.ones(4), np.ones(5)])

    def test_single_profile_rejected(self):
        with pytest.raises(ValueError, match="at least two"):
            leakage(np.ones((1, 4)))


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
