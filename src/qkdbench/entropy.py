"""Shannon-information primitives.

Binary entropy and the plug-in mutual information between a discrete
sent-state variable and a discretized physical observable.  The
continuous mutual-information integral is evaluated as a discrete sum
over bins; inputs are plain probability tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: absolute tolerance on distribution normalization; inputs within it are
#: renormalized exactly, inputs beyond it are rejected.
NORM_TOL = 1e-9


def h2(x):
    """Binary Shannon entropy in bits, with 0*log2(0) == 0.

    Accepts a scalar or array in [0, 1]; raises ValueError outside.
    """
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0) or np.any(arr > 1) or np.any(np.isnan(arr)):
        raise ValueError(f"h2: argument must lie in [0, 1], got {x!r}")
    inner = (arr > 0) & (arr < 1)
    a = np.where(inner, arr, 0.5)  # dummy value, masked out below
    val = np.where(inner, -a * np.log2(a) - (1 - a) * np.log2(1 - a), 0.0)
    return float(val) if np.ndim(x) == 0 else val


@dataclass(frozen=True)
class JointDistribution:
    """Joint probability table p(x, b) of observable bin x and sent state b.

    ``matrix[x, b]``: rows are observable bins, columns are states.
    """

    labels: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[1] != len(self.labels):
            raise ValueError("joint matrix must be (bins, states) with one column per label")
        if np.any(m < 0) or not np.all(np.isfinite(m)):
            raise ValueError("joint matrix entries must be finite and >= 0")
        total = m.sum()
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"joint distribution sums to {total!r}, not 1")
        object.__setattr__(self, "matrix", m / total)

    @property
    def bins(self) -> int:
        return self.matrix.shape[0]

    def marginal_x(self) -> np.ndarray:
        return self.matrix.sum(axis=1)

    def marginal_b(self) -> np.ndarray:
        return self.matrix.sum(axis=0)


@dataclass(frozen=True)
class ConditionalProfiles:
    """Per-state conditional distributions p(x | b) with a prior p(b).

    ``profiles[b, x]``: one row per sent state, normalized over bins.
    """

    profiles: np.ndarray
    prior: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.profiles, dtype=float)
        pr = np.asarray(self.prior, dtype=float)
        if p.ndim != 2:
            raise ValueError("profiles must be a (states, bins) matrix")
        if pr.shape != (p.shape[0],):
            raise ValueError("prior length must match the number of profiles")
        if np.any(p < 0) or np.any(pr < 0):
            raise ValueError("probabilities must be >= 0")
        row_sums = p.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > NORM_TOL):
            raise ValueError("each conditional profile must sum to 1")
        if abs(pr.sum() - 1.0) > NORM_TOL:
            raise ValueError("prior must sum to 1")
        object.__setattr__(self, "profiles", p / row_sums[:, None])
        object.__setattr__(self, "prior", pr / pr.sum())


def mutual_information(joint: JointDistribution) -> float:
    """Plug-in mutual information I(X; B) in bits.

    I = sum_{x,b} p(x,b) log2[ p(x,b) / (p(x) p(b)) ], zero-probability
    cells contributing nothing.  Non-negative up to rounding; clamped at 0.
    """
    m = joint.matrix
    px = joint.marginal_x()[:, None]
    pb = joint.marginal_b()[None, :]
    mask = m > 0  # wherever p(x,b) > 0, both marginals are > 0 too
    terms = m[mask] * np.log2(m[mask] / (px * pb)[mask])
    return max(float(terms.sum()), 0.0)


def mi_from_profiles(cond: ConditionalProfiles) -> float:
    """Mutual information between the sent state and the observable.

    Builds the joint p(x, b) = p(x | b) p(b) and evaluates
    :func:`mutual_information`.  Zero exactly when all profiles with
    nonzero prior are identical.
    """
    joint = (cond.profiles * cond.prior[:, None]).T
    return mutual_information(JointDistribution(tuple(f"b{i}" for i in range(len(cond.prior))), joint))


def joint_from_profiles(profiles: Sequence[np.ndarray]) -> ConditionalProfiles:
    """Normalize raw per-state intensity rows into :class:`ConditionalProfiles`.

    Rows may be unnormalized (e.g. measured intensities); each is scaled
    to unit sum, under a uniform prior.
    """
    rows = np.asarray(profiles, dtype=float)
    if rows.ndim != 2:
        raise ValueError("profiles must share one common bin axis")
    sums = rows.sum(axis=1)
    if np.any(sums <= 0):
        raise ValueError("every profile needs positive total intensity")
    return ConditionalProfiles(rows / sums[:, None], np.full(rows.shape[0], 1.0 / rows.shape[0]))


__all__ = [
    "NORM_TOL",
    "h2",
    "JointDistribution",
    "ConditionalProfiles",
    "mutual_information",
    "mi_from_profiles",
    "joint_from_profiles",
]
