"""Distinguishability side channels of the faint pulse source.

Per-polarization temporal or spectral pulse profiles (measured, loaded
from CSV, or synthesized) are normalized into conditional distributions
and scored as mutual information between the observable and the sent
state, in bits per pulse.  The resulting leakage budget is debited from
the secure key rate as an extra privacy-amplification cost.

The spatial leakage term has no computable model here; it is carried as
an external input constant (default 1e-5 bits/pulse).
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
class PulseProfile:
    """Intensity versus time (s) or frequency (Hz) for one sent state."""

    axis: np.ndarray
    intensity: np.ndarray
    state: str

    def __post_init__(self):
        ax = np.asarray(self.axis, dtype=float)
        y = np.asarray(self.intensity, dtype=float)
        if ax.shape != y.shape or ax.ndim != 1:
            raise ValueError("axis and intensity must be 1-d arrays of equal length")
        steps = np.diff(ax)
        if len(steps) and not np.allclose(steps, steps[0], rtol=1e-6, atol=0.0):
            raise ValueError("profile bins must be uniform")
        if np.any(y < 0) or not np.all(np.isfinite(y)):
            raise ValueError(f"profile {self.state}: intensities must be finite and >= 0")
        object.__setattr__(self, "axis", ax)
        object.__setattr__(self, "intensity", y)


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


def load_profiles(path: str | Path) -> list[PulseProfile]:
    """Read four per-state profiles sharing one axis from CSV.

    Expected header: ``axis,stateH,stateV,stateD,stateA``.  Raw
    intensities are preserved (no normalization).
    """
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["axis", *STATE_COLUMNS]:
            raise ValueError(f"bad profile header {header!r}; expected axis,{','.join(STATE_COLUMNS)}")
        axis, columns = [], [[], [], [], []]
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 5:
                raise ValueError(f"row {lineno}: expected 5 columns, got {len(row)}")
            axis.append(float(row[0]))
            for i in range(4):
                val = float(row[i + 1])
                if val < 0:
                    raise ValueError(f"row {lineno}: negative intensity in {STATE_COLUMNS[i]}")
                columns[i].append(val)
    ax = np.asarray(axis)
    return [
        PulseProfile(axis=ax, intensity=np.asarray(col), state=label[-1])
        for col, label in zip(columns, STATE_COLUMNS)
    ]


def synth_profiles(
    fwhm_s: float = SourceConfig.pulse_fwhm_s,
    tbp: float = SourceConfig.time_bandwidth_product,
    ase_pedestal: Sequence[float] = (0.0, 0.0, 0.0, 0.0),
    shifts_s: Sequence[float] = (0.0, 0.0, 0.0, 0.0),
) -> tuple[list[PulseProfile], list[PulseProfile]]:
    """Synthesize Gaussian temporal and spectral profiles per state.

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
    if any(p < 0 for p in ase_pedestal):
        raise ValueError("pedestal fractions must be >= 0")

    states = [label[-1] for label in STATE_COLUMNS]
    temporal, spectral = [], []
    try:  # extreme widths or shifts overflow; report them instead of warning
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            t_axis = np.linspace(-3.0 * fwhm_s, 3.0 * fwhm_s, 256)
            fwhm_f = tbp / fwhm_s
            f_axis = np.linspace(-3.0 * fwhm_f, 3.0 * fwhm_f, 256)
            for state, pedestal, shift in zip(states, ase_pedestal, shifts_s):
                gt = _gaussian(t_axis, shift, fwhm_s) + pedestal
                gf = _gaussian(f_axis, 0.0, fwhm_f) + pedestal
                temporal.append(PulseProfile(t_axis, gt, state))
                spectral.append(PulseProfile(f_axis, gf, state))
    except ArithmeticError as exc:  # numpy FloatingPointError, Python OverflowError
        raise ValueError(f"profile width, bandwidth or shift out of floating-point range ({exc})") from None
    return temporal, spectral


def _gaussian(x: np.ndarray, center: float, fwhm: float) -> np.ndarray:
    return np.exp(-4.0 * math.log(2.0) * (x - center) ** 2 / fwhm**2)


def remove_pedestal(profile: PulseProfile) -> PulseProfile:
    """Subtract the profile's minimum as a constant floor."""
    level = float(profile.intensity.min())
    return PulseProfile(profile.axis, np.maximum(profile.intensity - level, 0.0), profile.state)


def _common_axis(profiles: Sequence[PulseProfile]) -> np.ndarray:
    ax = profiles[0].axis
    for p in profiles[1:]:
        if p.axis.shape != ax.shape or not np.allclose(p.axis, ax, rtol=1e-9, atol=0.0):
            raise ValueError("profiles must share a common axis")
    return ax


def leakage(profiles: Sequence[PulseProfile]) -> float:
    """Mutual information between the sent state and this observable.

    Profiles are normalized to conditional distributions first, so the
    result is invariant under per-profile intensity scaling.  Identical
    profiles leak exactly zero.
    """
    if len(profiles) < 2:
        raise ValueError("need at least two per-state profiles")
    _common_axis(profiles)
    return mi_from_profiles(np.stack([p.intensity for p in profiles]))


def leakage_adjusted_rate(report: KeyRateReport, budget: LeakageBudget) -> float:
    """Secure rate after debiting side-channel leakage.

    R_adj = max(0, R - q (N_mu/t) Q_mu * total): the budget is charged
    per detected sifted signal pulse, a linear debit policy.  The raw
    key rate in the report already equals q (N_mu/t) Q_mu.  Only the
    two rates are read, so a sweep row's rates serve as well.
    """
    debit = report.raw_key_rate_bps * budget.total
    return min(max(report.secure_key_rate_bps - debit, 0.0), report.secure_key_rate_bps)


__all__ = [
    "STATE_COLUMNS",
    "DEFAULT_SPATIAL_LEAKAGE",
    "PulseProfile",
    "LeakageBudget",
    "load_profiles",
    "synth_profiles",
    "remove_pedestal",
    "leakage",
    "leakage_adjusted_rate",
]
