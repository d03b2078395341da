"""Analytic decoy-state BB84 model.

Channel transmittance, per-class gains and QBER for a Poissonian faint
pulse source, vacuum+weak-decoy bounds on the single-photon yield and
error rate, and the asymptotic secure-key-rate lower bound

    R >= q (N_mu/t) { -Q_mu f(E_mu) H2(E_mu) + Q1 [1 - H2(e1)] }

with the hard cutoff R = 0 once E_mu exceeds 0.11.

Two gain conventions are supported; ``sweep``, ``optimize_intensities``
and the CLI default to ``full-budget``.  ``attenuation-only`` uses
eta = 10^(-attenuation/10) and reproduces the benchmark 6 dB observables
(Q_mu = 1.18e-1 etc.); ``full-budget`` also applies the setup loss and
detector efficiency and matches what the Monte Carlo engine simulates.

The chain accepts scalars or broadcastable numpy arrays: ``gain``,
``qber``, ``decoy_estimates`` (the bounds), ``key_rate_lower_bound`` and
``evaluate_link`` (with an array ``LinkConfig.attenuation_db`` or array
``SourceConfig.mu``/``nu1``) compute element-wise in one numpy pass.
Scalar inputs give plain Python floats and bools.  ``sweep`` and
``optimize_intensities`` evaluate their whole grid in one such call; a
sweep is that report, read by column, its rows built only when read.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, is_dataclass, replace
from operator import attrgetter

import numpy as np

from .config import LinkConfig, ProtocolConfig, SourceConfig
from .entropy import h2
from .timetag import ratios

#: QBER above which the secure rate is forced to zero.
QBER_CUTOFF = 0.11

GAIN_CONVENTIONS = ("attenuation-only", "full-budget")


def _scalar(x):
    """A plain Python scalar for a 0-d result; arrays pass through."""
    return np.asarray(x).item() if np.ndim(x) == 0 else x


@dataclass(frozen=True)
class ChannelObservables:
    """Measured or modeled per-class gains and error rates."""

    q_mu: float
    q_nu1: float
    q_nu2: float
    e_mu: float
    e_nu1: float
    eta: float | None = None

    def __post_init__(self):
        for name in ("q_mu", "q_nu1", "q_nu2"):
            q = getattr(self, name)
            if not np.all((q >= 0.0) & (q <= 1.0)):
                raise ValueError(f"{name}: gain must lie in [0, 1], got {q!r}")
        for name in ("e_mu", "e_nu1"):
            e = getattr(self, name)  # NaN (undefined) passes
            if np.any((e < 0.0) | (e > 0.5)):
                raise ValueError(f"{name}: QBER must lie in [0, 0.5], got {e!r}")


@dataclass(frozen=True)
class DecoyEstimates:
    """Single-photon bounds derived from the decoy observables."""

    y1_lower: float
    q1_lower: float
    e1_upper: float
    clamped: bool = False


@dataclass(frozen=True)
class KeyRateReport:
    """Everything the rate pipeline produces for one channel setting."""

    observables: ChannelObservables
    estimates: DecoyEstimates
    raw_key_rate_bps: float
    secure_key_rate_bps: float
    qber_cutoff_hit: bool
    attenuation_db: float | None = None


def transmittance(link: LinkConfig) -> float:
    """Overall transmittance: channel, setup loss and detector.

    eta = 10^(-(attenuation + setup_loss)/10) * efficiency.
    """
    eta = np.power(10.0, -(link.attenuation_db + link.setup_loss_db) / 10.0)
    return _scalar(eta * link.detector_efficiency)


def link_eta(link: LinkConfig, gain_convention: str) -> float:
    """Transmittance under the named gain convention."""
    if gain_convention == "attenuation-only":
        return _scalar(np.power(10.0, -link.attenuation_db / 10.0))
    if gain_convention == "full-budget":
        return transmittance(link)
    raise ValueError(f"unknown gain convention {gain_convention!r}; use one of {GAIN_CONVENTIONS}")


def gain(mean_photons, eta, y0):
    """Detection probability per sent pulse of one intensity class.

    Q = Y0 + 1 - exp(-eta * mean), the threshold-detector gain of a
    Poissonian pulse over a channel with background yield Y0.
    """
    return _scalar(y0 - np.expm1(-eta * mean_photons))


def qber(mean_photons, eta, y0, e0, e_det):
    """Error rate of one intensity class.

    E = [e0 Y0 + e_det (1 - exp(-eta*mean))] / Q: background errors are
    random (e0), transmitted photons err at the intrinsic rate e_det.
    """
    expm1 = np.expm1(-eta * mean_photons)
    return _scalar((e0 * y0 - e_det * expm1) / (y0 - expm1))


def channel_observables(source: SourceConfig, link: LinkConfig, gain_convention: str) -> ChannelObservables:
    """Model-generated observables for a source/link pair.

    The background yield is scaled by the configured gating suppression
    factor (set ``background_suppression = 1`` to disable).  An
    attenuation that is not finite and >= 0 raises ValueError naming the
    first such value.  A signal or decoy-1 gain of exactly 0 (no
    background and a transmittance that underflows) leaves its error
    rate 0/0 and raises ValueError naming the first such attenuation.
    """
    atten = np.asarray(link.attenuation_db)
    ok = (atten >= 0) & (atten < np.inf)  # NaN compares false
    if not ok.all():
        raise ValueError(f"attenuation must be finite and >= 0, got {atten.flat[np.argmin(ok)]:g} dB")
    eta = link_eta(link, gain_convention)
    y0 = link.background_yield * link.suppression(source)
    e0, edet = link.background_error, link.detection_error
    q_mu, q_nu1 = gain(source.mu, eta, y0), gain(source.nu1, eta, y0)
    zero = np.logical_or(np.equal(q_mu, 0.0), np.equal(q_nu1, 0.0))
    if np.any(zero):
        at = np.broadcast_to(link.attenuation_db, np.shape(zero)).flat[np.argmax(zero)]
        raise ValueError(f"model gain is 0 at attenuation {at:g} dB, so its error rate is undefined")
    return ChannelObservables(
        q_mu=q_mu,
        q_nu1=q_nu1,
        q_nu2=gain(source.nu2, eta, y0),
        e_mu=qber(source.mu, eta, y0, e0, edet),
        e_nu1=qber(source.nu1, eta, y0, e0, edet),
        eta=eta,
    )


def decoy_estimates(obs: ChannelObservables, mu, nu1, y0, e0: float = 0.5) -> DecoyEstimates:
    """Vacuum+weak-decoy bounds on the single-photon yield and error rate.

    Y1_lower = mu/(mu*nu1 - nu1^2) * [ Q_nu1 e^nu1 - Q_mu e^mu nu1^2/mu^2
                                       - (mu^2 - nu1^2)/mu^2 * Y0 ]
    clamped into [0, 1]; Q1_lower = mu e^-mu Y1_lower; and
    e1_upper = [E_nu1 Q_nu1 e^nu1 - e0 Y0] / (Y1_lower * nu1) clamped
    into [0, 0.5].  Where Y1_lower is zero there is no usable
    single-photon signal and e1_upper is the maximally pessimistic 0.5.
    ``clamped`` marks the elements where a bound was clipped into its
    range.  A Y1_lower that is not a finite number (an overflow, e.g. for
    a subnormal nu1) raises ValueError.
    """
    if not np.all((mu > nu1) & (nu1 > 0)):
        raise ValueError(f"degenerate intensities: require mu > nu1 > 0, got mu={mu}, nu1={nu1}")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bracket = (
            obs.q_nu1 * np.exp(nu1)
            - obs.q_mu * np.exp(mu) * nu1**2 / mu**2
            - (mu**2 - nu1**2) / mu**2 * y0
        )
        y1l_raw = np.divide(mu, mu * nu1 - nu1**2) * bracket
    bad = ~np.isfinite(y1l_raw)
    if np.any(bad):
        at = np.argmax(bad)  # the first such element
        mu_at, nu1_at = (np.broadcast_to(v, np.shape(bad)).flat[at] for v in (mu, nu1))
        raise ValueError(f"single-photon yield bound is not finite at mu={mu_at:g}, nu1={nu1_at:g}")
    y1l = np.clip(y1l_raw, 0.0, 1.0)
    usable = y1l > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        e1u_raw = np.where(usable, (obs.e_nu1 * obs.q_nu1 * np.exp(nu1) - e0 * y0) / (y1l * nu1), 0.5)
    e1u = np.clip(e1u_raw, 0.0, 0.5)
    return DecoyEstimates(
        y1_lower=_scalar(y1l),
        q1_lower=_scalar(mu * np.exp(-mu) * y1l),
        e1_upper=_scalar(e1u),
        clamped=_scalar((y1l != y1l_raw) | (usable & (e1u != e1u_raw))),
    )


def estimate_background_yield(obs: ChannelObservables, mu: float, nu2: float) -> float:
    """Estimate Y0 from the decoy-2 gain.

    decoy 2 is not exactly vacuum, so its gain carries a residual-signal
    term: Y0 ~= Q_nu2 - nu2 * eta.  eta is inverted from the signal gain
    (one refinement pass).
    """
    if nu2 == 0.0:
        return obs.q_nu2
    eta_est = -math.log(max(1.0 - obs.q_mu, 1e-300)) / mu
    y0_est = max(0.0, obs.q_nu2 - nu2 * eta_est)
    eta_est = -math.log(max(1.0 - obs.q_mu + y0_est, 1e-300)) / mu
    return max(0.0, obs.q_nu2 - nu2 * eta_est)


def key_rate_lower_bound(
    obs: ChannelObservables,
    estimates: DecoyEstimates,
    proto: ProtocolConfig,
    signal_pulses_per_s: float,
    attenuation_db: float | None = None,
) -> KeyRateReport:
    """Asymptotic secure-key-rate lower bound in bits per second.

    R = max(0, q (N_mu/t) [ -Q_mu f(E_mu) H2(E_mu) + Q1_lower (1 - H2(e1_upper)) ])

    forced to zero when E_mu > 0.11, with f the protocol's constant
    error-correction efficiency.
    """
    rate = proto.sifting_q * signal_pulses_per_s
    cutoff = obs.e_mu > QBER_CUTOFF
    # entropies are not taken past the cutoff, where e1_upper may be undefined
    e_mu = np.where(cutoff, 0.0, obs.e_mu)
    e1u = np.where(cutoff, 0.0, estimates.e1_upper)
    secure = rate * (-obs.q_mu * proto.error_correction_f * h2(e_mu) + estimates.q1_lower * (1.0 - h2(e1u)))
    return KeyRateReport(
        observables=obs,
        estimates=estimates,
        raw_key_rate_bps=_scalar(rate * obs.q_mu),
        secure_key_rate_bps=_scalar(np.where(cutoff, 0.0, np.maximum(secure, 0.0))),
        qber_cutoff_hit=_scalar(cutoff),
        attenuation_db=attenuation_db,
    )


def evaluate_link(
    source: SourceConfig,
    link: LinkConfig,
    proto: ProtocolConfig,
    gain_convention: str,
) -> KeyRateReport:
    """Full analytic chain for one link setting: observables -> bounds -> rate.

    Array-valued ``link.attenuation_db`` or ``source.mu``/``source.nu1``
    give an array-valued report over their broadcast shape.
    """
    obs = channel_observables(source, link, gain_convention)
    y0 = link.background_yield * link.suppression(source)
    est = decoy_estimates(obs, source.mu, source.nu1, y0, link.background_error)
    return key_rate_lower_bound(
        obs, est, proto, proto.signal_pulses_per_s(source), attenuation_db=link.attenuation_db
    )


def rate_from_counts(
    counts, source: SourceConfig, link: LinkConfig, proto: ProtocolConfig
) -> tuple[float, KeyRateReport]:
    """(Y0 estimate, key-rate report) from a measured (4, 3) count table.

    Rows sent, detected, sifted and errored; columns signal, decoy 1 and
    decoy 2, as :class:`~qkdbench.timetag.ClassCounts` holds them.
    Gains and error rates come from :func:`~qkdbench.timetag.ratios`,
    the error rates clamped to 0.5; the chain is
    :func:`estimate_background_yield`, :func:`decoy_estimates` and
    :func:`key_rate_lower_bound`.  Raises ValueError when a class was
    never sent or when signal or decoy 1 has no sifted detection.
    """
    counts = np.asarray(counts)
    if np.min(counts[0]) == 0:
        raise ValueError("no pulses sent for at least one intensity class")
    if np.min(counts[2, :2]) == 0:
        raise ValueError("not enough sifted detections to estimate error rates")
    q, e = ratios(counts).tolist()  # decoy 2's error rate is unused
    obs = ChannelObservables(q_mu=q[0], q_nu1=q[1], q_nu2=q[2], e_mu=min(e[0], 0.5), e_nu1=min(e[1], 0.5))
    y0 = estimate_background_yield(obs, source.mu, source.nu2)
    est = decoy_estimates(obs, source.mu, source.nu1, y0, link.background_error)
    return y0, key_rate_lower_bound(obs, est, proto, proto.signal_pulses_per_s(source))


def sweep(
    link: LinkConfig,
    attenuations_db: Sequence[float],
    source: SourceConfig,
    proto: ProtocolConfig,
    gain_convention: str = "full-budget",
) -> _Rows:
    """Evaluate the analytic chain at each attenuation (ascending; finite and >= 0, as the chain checks).

    The sweep is one array-valued :func:`evaluate_link` report, its
    ``batch``, read as a sequence of per-attenuation reports of Python
    scalars, built when read (a slice or iteration builds its rows in one
    pass), or by column with ``columns()``.
    """
    attens = np.asarray(attenuations_db, dtype=float)
    if np.any(np.diff(attens) < 0):  # NaN compares false here and fails the chain's own check
        raise ValueError("attenuations must be sorted ascending")
    return _Rows(evaluate_link(source, replace(link, attenuation_db=attens), proto, gain_convention))


@dataclass(frozen=True, eq=False)
class _Rows(Sequence):
    """Read-only rows of a report whose fields are length-n arrays."""

    batch: KeyRateReport

    def __len__(self) -> int:
        return len(self.batch.attenuation_db)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _rows(self.batch, i)
        j = range(len(self))[i]  # IndexError out of range
        return _rows(self.batch, slice(j, j + 1))[0]

    def __iter__(self):
        return iter(self[:])

    def columns(self) -> dict[str, list]:
        """The SWEEP_COLUMNS values by name, each a list of Python scalars."""
        return {name: get(self.batch).tolist() for name, get, _ in SWEEP_COLUMNS}


def _rows(obj, index: slice) -> list:
    """The rows ``index`` of a dataclass of length-n fields, each of Python scalars."""
    columns = {k: _rows(v, index) if is_dataclass(v) else v[index].tolist() for k, v in vars(obj).items()}
    rows = []
    for values in zip(*columns.values()):
        row = object.__new__(type(obj))  # the batch passed its checks as a whole, so a row skips __init__
        vars(row).update(zip(columns, values))
        rows.append(row)
    return rows


#: sweep output columns: name, value of a report, CSV number format
SWEEP_COLUMNS = (
    ("attenuation_db", attrgetter("attenuation_db"), ""),
    ("Q_mu", attrgetter("observables.q_mu"), ".8e"),
    ("Q_nu1", attrgetter("observables.q_nu1"), ".8e"),
    ("Q_nu2", attrgetter("observables.q_nu2"), ".8e"),
    ("E_mu", attrgetter("observables.e_mu"), ".8e"),
    ("Y1_lower", attrgetter("estimates.y1_lower"), ".8e"),
    ("Q1_lower", attrgetter("estimates.q1_lower"), ".8e"),
    ("e1_upper", attrgetter("estimates.e1_upper"), ".8e"),
    ("rkr_bps", attrgetter("raw_key_rate_bps"), ".6e"),
    ("lbskr_bps", attrgetter("secure_key_rate_bps"), ".6e"),
)


@dataclass(frozen=True)
class GridSpec:
    """Search grid for intensity optimization; nu1 values above mu are skipped."""

    mu_values: tuple[float, ...]
    nu1_values: tuple[float, ...]


@dataclass(frozen=True)
class OptimizeResult:
    mu: float
    nu1: float
    secure_key_rate_bps: float
    all_zero: bool


def optimize_intensities(
    link: LinkConfig,
    proto: ProtocolConfig,
    grid: GridSpec,
    source_template: SourceConfig,
    gain_convention: str = "full-budget",
) -> OptimizeResult:
    """Grid search for the signal/decoy intensities maximizing the rate.

    The device is the caller's ``source_template``; the search replaces
    only its intensities, with decoy 2 held at exact vacuum.  The valid
    (mu, nu1) mesh is evaluated in one array call, mu-major in ascending
    order, and the first maximum wins, so ties break toward smaller mu.
    When the rate is zero everywhere the first grid point is reported
    with ``all_zero`` set.
    """
    mus = np.sort(np.asarray(grid.mu_values, dtype=float))
    nus = np.sort(np.asarray(grid.nu1_values, dtype=float))
    mu, nu1 = np.repeat(mus, len(nus)), np.tile(nus, len(mus))  # mu-major
    valid = (0.0 < nu1) & (nu1 < mu) & (mu <= 1.0)
    if not valid.any():
        raise ValueError("empty intensity grid")
    mu, nu1 = mu[valid], nu1[valid]
    src = replace(source_template, mu=mu, nu1=nu1, nu2=0.0)
    rates = evaluate_link(src, link, proto, gain_convention).secure_key_rate_bps
    best = int(np.argmax(rates))
    rate = float(rates[best])
    return OptimizeResult(mu=float(mu[best]), nu1=float(nu1[best]), secure_key_rate_bps=rate, all_zero=rate == 0.0)


__all__ = [
    "QBER_CUTOFF",
    "GAIN_CONVENTIONS",
    "ChannelObservables",
    "DecoyEstimates",
    "KeyRateReport",
    "transmittance",
    "link_eta",
    "gain",
    "qber",
    "channel_observables",
    "decoy_estimates",
    "estimate_background_yield",
    "key_rate_lower_bound",
    "evaluate_link",
    "rate_from_counts",
    "sweep",
    "SWEEP_COLUMNS",
    "GridSpec",
    "OptimizeResult",
    "optimize_intensities",
]
