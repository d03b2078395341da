import math
import warnings

import numpy as np
import pytest

from qkdbench.entropy import JointDistribution, h2, mi_from_profiles, mutual_information


def mi_oracle(matrix):
    """Independent brute-force sum over all cells, in plain python."""
    matrix = [[float(v) for v in row] for row in matrix]
    px = [sum(row) for row in matrix]
    pb = [sum(col) for col in zip(*matrix)]
    total = 0.0
    for i, row in enumerate(matrix):
        for j, v in enumerate(row):
            if v > 0:
                total += v * math.log2(v / (px[i] * pb[j]))
    return total


class TestH2:
    def test_maximum(self):
        assert h2(0.5) == 1.0

    def test_degenerate(self):
        assert h2(0.0) == 0.0
        assert h2(1.0) == 0.0

    def test_point_value(self):
        # frozen high-precision evaluation of -x log2 x - (1-x) log2(1-x)
        assert h2(0.0114) == pytest.approx(0.08993759382719188, abs=1e-12)
        assert h2(0.0114) == pytest.approx(0.0899, abs=1e-4)

    def test_symmetry(self):
        rng = np.random.default_rng(42)
        xs = rng.random(1000)
        assert np.allclose(h2(xs), h2(1.0 - xs), atol=1e-12)

    def test_domain_errors(self):
        for bad in (-0.1, 1.1, float("nan")):
            with pytest.raises(ValueError):
                h2(bad)

    def test_array_input(self):
        out = h2(np.array([0.0, 0.5, 1.0]))
        assert out.shape == (3,)
        assert out[1] == 1.0


class TestMutualInformation:
    def test_independent_is_zero(self):
        px = np.array([0.2, 0.3, 0.5])
        pb = np.array([0.25, 0.75])
        joint = JointDistribution(("a", "b"), np.outer(px, pb))
        assert mutual_information(joint) <= 1e-12

    def test_disjoint_four_states(self):
        m = np.zeros((8, 4))
        for b in range(4):
            m[2 * b, b] = 0.15 / 4
            m[2 * b + 1, b] = 0.85 / 4
        joint = JointDistribution(("H", "V", "D", "A"), m)
        assert mutual_information(joint) == pytest.approx(2.0, abs=1e-12)

    def test_two_state_hand_sum(self):
        m = np.array([[0.3, 0.2], [0.2, 0.3]])
        val = mutual_information(JointDistribution(("0", "1"), m))
        assert val == pytest.approx(mi_oracle(m), abs=1e-12)
        # frozen oracle value; the stated tolerance is 5e-4 around 0.0290
        assert val == pytest.approx(0.029049405545331361, abs=1e-12)
        assert val == pytest.approx(0.0290, abs=5e-4)

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ([[0.25, 0.25, 0.0], [0.25, 0.25, 0.0]], "one column per label"),
            ([0.5, 0.5], "one column per label"),
            ([[0.6, -0.1], [0.25, 0.25]], "finite and >= 0"),
        ],
    )
    def test_rejects_malformed_matrix(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            JointDistribution(("a", "b"), np.array(matrix))

    def test_rejects_bad_normalization(self):
        with pytest.raises(ValueError, match="sums to"):
            JointDistribution(("a", "b"), np.array([[0.3, 0.3], [0.3, 0.3]]))

    def test_renormalizes_within_tolerance(self):
        m = np.array([[0.25, 0.25], [0.25, 0.25]]) * (1 + 5e-10)
        joint = JointDistribution(("a", "b"), m)
        assert joint.matrix.sum() == pytest.approx(1.0, abs=1e-15)

    def test_matches_oracle_on_random(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            m = rng.random((rng.integers(2, 9), rng.integers(2, 5)))
            m /= m.sum()
            joint = JointDistribution(tuple("s%d" % i for i in range(m.shape[1])), m)
            assert mutual_information(joint) == pytest.approx(mi_oracle(m), abs=1e-10)

    def test_upper_bounds(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            bins, states = rng.integers(2, 17), rng.integers(2, 5)
            m = rng.random((bins, states)) ** 3
            m /= m.sum()
            joint = JointDistribution(tuple("s%d" % i for i in range(states)), m)
            val = mutual_information(joint)
            pb = joint.matrix.sum(axis=0)
            hb = -sum(p * math.log2(p) for p in pb if p > 0)
            assert 0.0 <= val <= min(hb, math.log2(bins)) + 1e-9

    def test_permutation_invariance(self):
        rng = np.random.default_rng(13)
        m = rng.random((12, 4))
        m /= m.sum()
        labels = ("H", "V", "D", "A")
        base = mutual_information(JointDistribution(labels, m))
        for _ in range(10):
            pm = m[rng.permutation(12)][:, rng.permutation(4)]
            assert mutual_information(JointDistribution(labels, pm)) == pytest.approx(base, abs=1e-10)

    def test_data_processing_bin_merge(self):
        # merging adjacent bins never increases mutual information
        rng = np.random.default_rng(17)
        for _ in range(100):
            bins = int(rng.integers(2, 17)) * 2
            m = rng.random((bins, 4)) ** 2
            m /= m.sum()
            merged = m.reshape(bins // 2, 2, 4).sum(axis=1)
            before = mutual_information(JointDistribution(("a", "b", "c", "d"), m))
            after = mutual_information(JointDistribution(("a", "b", "c", "d"), merged))
            assert after <= before + 1e-10


class TestProfiles:
    def test_identical_profiles_zero(self):
        g = np.exp(-np.linspace(-3, 3, 64) ** 2)
        assert mi_from_profiles([g, g, g, g]) <= 1e-12

    def test_two_bin_case_matches_joint(self):
        # raw rows: each is scaled to unit sum before the joint is built
        assert mi_from_profiles([[6.0, 4.0], [0.4, 0.6]]) == pytest.approx(0.029049405545331361, abs=1e-12)

    def test_far_shifted_profile_saturates(self):
        # one state fully distinguishable from the other three identical
        # ones: I -> H(prior of that state) = h2(1/4)
        x = np.linspace(-10, 10, 512)
        base = np.exp(-4 * math.log(2) * x**2)
        shifted = np.exp(-4 * math.log(2) * (x - 5.0) ** 2)
        val = mi_from_profiles([base, base, base, shifted])
        assert val == pytest.approx(h2(0.25), abs=1e-6)

    def test_mismatched_bins_rejected(self):
        with pytest.raises(ValueError, match="one common bin axis"):
            mi_from_profiles([np.ones(8), np.ones(4)])
        with pytest.raises(ValueError, match="one common bin axis"):
            mi_from_profiles(np.ones(4))

    def test_non_numeric_cell_keeps_numpys_error(self):
        with pytest.raises(ValueError, match="could not convert string to float"):
            mi_from_profiles([["a", 1.0], [1.0, 2.0]])

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf, 1e308])
    def test_row_without_finite_positive_total_rejected(self, bad):
        # 1e308 in every bin is finite, but the row's total overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="cannot normalize"):
                mi_from_profiles([np.full(4, bad), np.ones(4)])
