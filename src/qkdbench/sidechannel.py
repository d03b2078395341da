"""Distinguishability side channels of the faint pulse source.

A profile set is one float array of shape (states, bins): row b is the
intensity of state ``STATE_COLUMNS[b]`` over a common uniform axis of
time (s) or frequency (Hz), measured, loaded from CSV or synthesized.
The axis itself is not kept, since the score does not depend on it.
Each row is normalized into a conditional distribution and the set is
scored as mutual information between the observable and the sent
state, in bits per pulse.  Any (states, bins) array of non-negative
counts scores the same way, a per-state histogram of detection times
included.  The resulting leakage budget is debited from the secure key
rate as an extra privacy-amplification cost.

Synthetic spectral profiles span +-3 FWHM of their own bandwidth, so
their array is the same for every time-bandwidth product: the product
only gates validity, and spectral leakage depends only on the
pedestals.  The spatial leakage term has no computable model here; it
is carried as an external input constant (default 1e-5 bits/pulse).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import TRANSFORM_LIMIT_TBP, SourceConfig
from .decoy import KeyRateReport
from .entropy import mi_from_profiles

STATE_COLUMNS = ("stateH", "stateV", "stateD", "stateA")
DEFAULT_SPATIAL_LEAKAGE = 1e-5


@dataclass(frozen=True)
class LeakageBudget:
    """Per-observable information leakage, bits per pulse."""

    temporal: float
    spectral: float
    spatial: float = DEFAULT_SPATIAL_LEAKAGE

    def __post_init__(self):
        for name in ("temporal", "spectral", "spatial"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} leakage must be >= 0")

    @property
    def total(self) -> float:
        return self.temporal + self.spectral + self.spatial


def load_profiles(path: str | Path) -> np.ndarray:
    """Read the (4, bins) profile set of a CSV whose rows share one axis.

    Expected header: ``axis,stateH,stateV,stateD,stateA``.  Every cell
    must be a number, the axis finite with uniform bins and every
    intensity finite and >= 0; a violation names its row.  Raw
    intensities are preserved (no normalization).
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["axis", *STATE_COLUMNS]:
            raise ValueError(f"bad profile header {header!r}; expected axis,{','.join(STATE_COLUMNS)}")
        table = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 5:
                raise ValueError(f"row {lineno}: expected 5 columns, got {len(row)}")
            try:
                values = [float(v) for v in row]
            except ValueError:
                raise ValueError(f"row {lineno}: every cell must be a number, got {row}") from None
            if not math.isfinite(values[0]):
                raise ValueError(f"row {lineno}: axis value must be finite")
            if not all(0.0 <= v < math.inf for v in values[1:]):
                raise ValueError(f"row {lineno}: intensities must be finite and >= 0")
            table.append(values)
    table = np.array(table).reshape(-1, 5)
    steps = np.diff(table[:, 0])
    uneven = np.flatnonzero(~np.isclose(steps, steps[:1], rtol=1e-6, atol=0.0))
    if len(uneven):
        raise ValueError(f"row {uneven[0] + 3}: axis bins must be uniform")
    return np.ascontiguousarray(table[:, 1:].T)


def synth_profiles(
    fwhm_s: float = SourceConfig.pulse_fwhm_s,
    tbp: float = SourceConfig.time_bandwidth_product,
    ase_pedestal: Sequence[float] = (0.0, 0.0, 0.0, 0.0),
    shifts_s: Sequence[float] = (0.0, 0.0, 0.0, 0.0),
) -> tuple[np.ndarray, np.ndarray]:
    """Synthesize Gaussian (4, 256) temporal and spectral profile sets.

    The temporal shape is a Gaussian of the given FWHM, optionally
    shifted per state; the spectral shape is a Gaussian of FWHM
    tbp / fwhm.  ``ase_pedestal`` adds a constant floor to both domains
    as a fraction of the pulse peak, mimicking broadband amplifier
    noise.  Axes span +-3 FWHM in 256 uniform bins.
    """
    if fwhm_s <= 0:
        raise ValueError("fwhm must be positive")
    if tbp < TRANSFORM_LIMIT_TBP:
        raise ValueError(f"time-bandwidth product {tbp} below the transform limit {TRANSFORM_LIMIT_TBP}")
    if len(ase_pedestal) != 4 or len(shifts_s) != 4:
        raise ValueError("ase_pedestal and shifts_s need one entry per state")
    if any(not p >= 0 for p in ase_pedestal):
        raise ValueError("pedestal fractions must be >= 0")
    if not all(math.isfinite(x) for x in (*ase_pedestal, *shifts_s)):
        raise ValueError("pedestals and shifts must be finite")

    pedestals = np.array(ase_pedestal, dtype=float)[:, None]
    try:  # extreme widths or shifts overflow; report them instead of warning
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            t_axis = np.linspace(-3.0 * fwhm_s, 3.0 * fwhm_s, 256)
            fwhm_f = tbp / fwhm_s
            f_axis = np.linspace(-3.0 * fwhm_f, 3.0 * fwhm_f, 256)
            temporal = _gaussian(t_axis, np.array(shifts_s, dtype=float)[:, None], fwhm_s) + pedestals
            spectral = _gaussian(f_axis, 0.0, fwhm_f) + pedestals
    except ArithmeticError as exc:  # numpy FloatingPointError, Python OverflowError
        raise ValueError(f"profile width, bandwidth or shift out of floating-point range ({exc})") from None
    return temporal, spectral


def _gaussian(x: np.ndarray, center: float | np.ndarray, fwhm: float) -> np.ndarray:
    return np.exp(-4.0 * math.log(2.0) * (x - center) ** 2 / fwhm**2)


def remove_pedestal(profiles: np.ndarray) -> np.ndarray:
    """Subtract each row's minimum as a constant floor."""
    return np.maximum(profiles - np.min(profiles, axis=-1, keepdims=True), 0.0)


def leakage(profiles: np.ndarray) -> float:
    """Mutual information between the sent state and this observable.

    ``profiles`` is a (states, bins) array, or a sequence of equal-length
    rows.  Rows are normalized to conditional distributions first, so
    the result is invariant under per-row intensity scaling.
    Proportional rows leak exactly zero.
    """
    if len(profiles) < 2:
        raise ValueError("need at least two per-state profiles")
    return mi_from_profiles(profiles)


def leakage_adjusted_rate(report: KeyRateReport, budget: LeakageBudget) -> float:
    """Secure rate after debiting side-channel leakage.

    R_adj = max(0, R - q (N_mu/t) Q_mu * total): the budget is charged
    per detected sifted signal pulse, a linear debit policy.  The raw
    key rate in the report already equals q (N_mu/t) Q_mu.  The CLI
    debits the :func:`~qkdbench.decoy.evaluate_link` report of its config.
    """
    debit = report.raw_key_rate_bps * budget.total
    return min(max(report.secure_key_rate_bps - debit, 0.0), report.secure_key_rate_bps)


__all__ = [
    "STATE_COLUMNS",
    "DEFAULT_SPATIAL_LEAKAGE",
    "LeakageBudget",
    "load_profiles",
    "synth_profiles",
    "remove_pedestal",
    "leakage",
    "leakage_adjusted_rate",
]
