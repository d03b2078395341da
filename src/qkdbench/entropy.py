"""Shannon-information primitives.

Binary entropy and the plug-in mutual information between a discrete
sent-state variable and a discretized physical observable.  The
continuous mutual-information integral is evaluated as a discrete sum
over bins; inputs are probability tables or raw per-state intensity
rows.
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


def mutual_information(joint: JointDistribution) -> float:
    """Plug-in mutual information I(X; B) in bits.

    I = sum_{x,b} p(x,b) log2[ p(x,b) / (p(x) p(b)) ], zero-probability
    cells contributing nothing.  Non-negative up to rounding; clamped at 0.
    """
    m = joint.matrix
    px = m.sum(axis=1)[:, None]
    pb = m.sum(axis=0)[None, :]
    mask = m > 0  # wherever p(x,b) > 0, both marginals are > 0 too
    terms = m[mask] * np.log2(m[mask] / (px * pb)[mask])
    return max(float(terms.sum()), 0.0)


def mi_from_profiles(profiles: Sequence[np.ndarray]) -> float:
    """Mutual information between the sent state and the observable.

    ``profiles[b]`` is the raw (unnormalized) intensity row of state b
    over a common bin axis, under a uniform prior p(b).  Each row is
    scaled to a conditional p(x | b), the joint is p(x, b) = p(x | b) p(b),
    and :func:`mutual_information` scores it.  Zero exactly when all
    rows are proportional.
    """
    ragged = len({np.shape(row) for row in profiles}) > 1  # numpy's own error on it names no rule
    rows = None if ragged else np.asarray(profiles, dtype=float)
    if ragged or rows.ndim != 2:
        raise ValueError("profiles must share one common bin axis")
    with np.errstate(over="ignore"):
        sums = rows.sum(axis=1)
    if not np.all((sums > 0) & (sums < np.inf)):
        raise ValueError("all-zero or overflowing profile: cannot normalize")
    joint = (rows / sums[:, None]).T / len(rows)
    return mutual_information(JointDistribution(tuple(f"b{i}" for i in range(len(rows))), joint))


__all__ = [
    "NORM_TOL",
    "h2",
    "JointDistribution",
    "mutual_information",
    "mi_from_profiles",
]
