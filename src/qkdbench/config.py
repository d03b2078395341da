"""Domain types, configuration schema and validation.

A run is described by three immutable configs:

* :class:`SourceConfig` -- the faint pulse source (intensity classes,
  state probabilities, pulse shape, polarization imperfections).
* :class:`LinkConfig`   -- the optical channel and receiver (losses,
  detector efficiency, background yield, jitter, gating window).
* :class:`ProtocolConfig` -- protocol bookkeeping (sifting factor,
  error-correction efficiency, transmission duration, signal pulse count).

Configs are loaded from a flat ``key = value`` text file (one key per
line, ``#`` comments allowed, no sections).  Every key, its unit and its
valid range are listed in :data:`CONFIG_SCHEMA`; a missing key takes the
default of its dataclass field.  Unknown keys are rejected, and so is a
value outside its range, as ``key: must lie in <range>``.  Beyond the
ranges, :func:`validate` checks only the rules that relate keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

#: smallest time-bandwidth product a Gaussian pulse can have
TRANSFORM_LIMIT_TBP = 0.44


class ConfigError(ValueError):
    """Raised for unparseable config files or invariant violations."""


@dataclass(frozen=True)
class SourceConfig:
    """Faint pulse source parameters."""

    pulse_rate_hz: float = 1e8
    mu: float = 0.5
    nu1: float = 0.125
    nu2: float = 0.0
    p_mu: float = 0.8
    p_nu1: float = 0.15
    p_nu2: float = 0.05
    pol_probs: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)
    extinction_ratio_db: float = 24.0
    degree_of_polarization: float = 0.9968
    pulse_fwhm_s: float = 400e-12
    time_bandwidth_product: float = 0.56

    @property
    def class_probs(self) -> tuple[float, float, float]:
        return (self.p_mu, self.p_nu1, self.p_nu2)

    @property
    def source_error(self) -> float:
        """Intrinsic polarization error from finite degree of polarization.

        The depolarized fraction (1 - DOP) lands in the wrong output port
        half the time.
        """
        return (1.0 - self.degree_of_polarization) / 2.0


@dataclass(frozen=True)
class LinkConfig:
    """Channel and receiver parameters."""

    attenuation_db: float = 6.0
    setup_loss_db: float = 2.0
    detector_efficiency: float = 0.5
    background_yield: float = 5.58e-4
    background_error: float = 0.5
    detection_error: float = 7.9e-3
    jitter_sigma_s: float = 212e-12
    window_s: float = 1e-9
    background_suppression: float | None = None

    def suppression(self, source: SourceConfig) -> float:
        """Effective background suppression of the software gate.

        Defaults to window / pulse period when not set explicitly.
        """
        if self.background_suppression is not None:
            return self.background_suppression
        return self.window_s * source.pulse_rate_hz


@dataclass(frozen=True)
class ProtocolConfig:
    """Protocol bookkeeping for key-rate normalization."""

    sifting_q: float = 0.5
    error_correction_f: float = 1.16
    duration_s: float = 1.0
    signal_pulses: float | None = None

    def signal_pulses_per_s(self, source: SourceConfig) -> float:
        """N_mu / t; defaults to p_mu * pulse rate when N_mu is unset."""
        if self.signal_pulses is not None:
            return self.signal_pulses / self.duration_s
        return source.p_mu * source.pulse_rate_hz


# key -> (section, field, unit, valid range); a range is interval text, "inf" meaning no upper bound
CONFIG_SCHEMA: dict[str, tuple[str, str, str, str]] = {
    "pulse_rate_hz": ("source", "pulse_rate_hz", "Hz", "(0, inf)"),
    "mu": ("source", "mu", "photons/pulse", "[0, inf)"),
    "nu1": ("source", "nu1", "photons/pulse", "[0, inf)"),
    "nu2": ("source", "nu2", "photons/pulse", "[0, inf)"),
    "p_mu": ("source", "p_mu", "probability", "[0, 1]"),
    "p_nu1": ("source", "p_nu1", "probability", "[0, 1]"),
    "p_nu2": ("source", "p_nu2", "probability", "[0, 1]"),
    "p_pol_h": ("source", "pol_probs:0", "probability", "[0, 1]"),
    "p_pol_v": ("source", "pol_probs:1", "probability", "[0, 1]"),
    "p_pol_d": ("source", "pol_probs:2", "probability", "[0, 1]"),
    "p_pol_a": ("source", "pol_probs:3", "probability", "[0, 1]"),
    "extinction_ratio_db": ("source", "extinction_ratio_db", "dB", "(0, inf)"),
    "degree_of_polarization": ("source", "degree_of_polarization", "fraction", "(0, 1]"),
    "pulse_fwhm_s": ("source", "pulse_fwhm_s", "s", "(0, inf)"),
    "time_bandwidth_product": ("source", "time_bandwidth_product", "1", f"[{TRANSFORM_LIMIT_TBP}, inf)"),
    "attenuation_db": ("link", "attenuation_db", "dB", "[0, inf)"),
    "setup_loss_db": ("link", "setup_loss_db", "dB", "[0, inf)"),
    "detector_efficiency": ("link", "detector_efficiency", "fraction", "[0, 1]"),
    "background_yield": ("link", "background_yield", "probability/pulse", "[0, 1]"),
    "background_error": ("link", "background_error", "fraction", "[0, 1]"),
    "detection_error": ("link", "detection_error", "fraction", "[0, 1]"),
    "jitter_sigma_s": ("link", "jitter_sigma_s", "s", "[0, inf)"),
    "window_s": ("link", "window_s", "s", "(0, inf)"),
    "background_suppression": ("link", "background_suppression", "fraction", "[0, 1]"),
    "sifting_q": ("protocol", "sifting_q", "fraction", "(0, 1]"),
    "error_correction_f": ("protocol", "error_correction_f", "1", "[1, inf)"),
    "duration_s": ("protocol", "duration_s", "s", "(0, inf)"),
    "signal_pulses": ("protocol", "signal_pulses", "count", "(0, inf)"),
}


def _parse_kv(text: str) -> dict[str, float]:
    values: dict[str, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = float(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {key}: not a number: {val!r}") from exc
    return values


def load_config(path: str | Path) -> tuple[SourceConfig, LinkConfig, ProtocolConfig]:
    """Load and validate configs from a flat key-value file.

    Missing keys take their dataclass defaults.  When ``nu2`` is absent
    but ``extinction_ratio_db`` is given, the decoy-2 intensity is derived
    as the signal leaking through the OFF-state modulator:
    ``nu2 = mu * 10^(-ER/10)``.

    Raises :class:`ConfigError` on parse failure or any invariant
    violation (the message names the violated rule).
    """
    try:
        text = Path(path).read_text()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return build_configs(_parse_kv(text))


def build_configs(values: dict[str, float]) -> tuple[SourceConfig, LinkConfig, ProtocolConfig]:
    """Assemble validated configs from a flat key-value mapping."""
    unknown = set(values) - set(CONFIG_SCHEMA)
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")

    by_section: dict[str, dict[str, float]] = {"source": {}, "link": {}, "protocol": {}}
    pol = list(SourceConfig.pol_probs)
    for key, val in values.items():
        section, attr, _, _ = CONFIG_SCHEMA[key]
        if attr.startswith("pol_probs:"):
            pol[int(attr.split(":")[1])] = val
        else:
            by_section[section][attr] = val

    src_kw = by_section["source"]
    src_kw["pol_probs"] = tuple(pol)
    if "nu2" not in src_kw and src_kw.get("extinction_ratio_db", 0.0) > 0:  # validation rejects the rest
        mu = src_kw.get("mu", SourceConfig.mu)
        src_kw["nu2"] = mu * 10.0 ** (-src_kw["extinction_ratio_db"] / 10.0)

    source = SourceConfig(**src_kw)
    link = LinkConfig(**by_section["link"])
    proto = ProtocolConfig(**by_section["protocol"])

    violations = validate(source, link, proto)
    if violations:
        raise ConfigError("; ".join(violations))
    return source, link, proto


def _schema_values(source: SourceConfig, link: LinkConfig, proto: ProtocolConfig):
    """(key, value) of each :data:`CONFIG_SCHEMA` key in schema order; an unset optional field is skipped."""
    configs = {"source": source, "link": link, "protocol": proto}
    for key, (section, attr, _, _) in CONFIG_SCHEMA.items():
        name, _, index = attr.partition(":")
        value = getattr(configs[section], name)
        if value is not None:
            yield key, value[int(index)] if index else value


def _in_range(value: float, interval: str) -> bool:
    """Whether ``value`` lies in ``interval``, written like ``"(0, 1]"``."""
    lo, hi = map(float, interval[1:-1].split(","))
    above = lo <= value if interval[0] == "[" else lo < value
    return above and (value <= hi if interval[-1] == "]" else value < hi)


def validate(source: SourceConfig, link: LinkConfig, proto: ProtocolConfig) -> list[str]:
    """Check every config invariant; return a list of violation messages.

    Total on any numeric input: violations are returned as data, never
    raised.  An empty list means all invariants hold.  A value that is
    not finite is reported alone, as no other rule can be judged on it.
    A value outside its :data:`CONFIG_SCHEMA` range is reported as
    ``key: must lie in <range>``; the rules that relate keys follow.
    """
    values = list(_schema_values(source, link, proto))
    v = [f"{key}: must be finite" for key, val in values if not math.isfinite(val)]
    if v:
        return v
    v = [f"{key}: must lie in {CONFIG_SCHEMA[key][3]}" for key, val in values
         if not _in_range(val, CONFIG_SCHEMA[key][3])]

    if not source.mu > source.nu1 > source.nu2:
        v.append("intensity ordering: require mu > nu1 > nu2")
    probs = source.class_probs
    if abs(sum(probs) - 1.0) > 1e-12:
        v.append(f"class probabilities: p_mu + p_nu1 + p_nu2 must sum to 1 (got {sum(probs)!r})")
    if abs(sum(source.pol_probs) - 1.0) > 1e-12:
        v.append("polarization probabilities: must sum to 1")
    if source.pulse_rate_hz > 0:  # else its range is reported
        period = 1.0 / source.pulse_rate_hz * (1 + 1e-12)
        if source.pulse_fwhm_s > period:
            v.append("pulse_fwhm_s: must not exceed the pulse period")
        if link.window_s > period:
            v.append("window_s: gating window must not exceed the pulse period")
    return v


def dump_config(source: SourceConfig, link: LinkConfig, proto: ProtocolConfig) -> str:
    """Serialize configs back to the flat key-value format.

    Round-trips exactly: ``build_configs`` on the parsed output yields
    configs equal to the inputs.
    """
    lines = ["# qkdbench configuration (flat key = value)"]
    for key, val in _schema_values(source, link, proto):
        lines.append(f"{key} = {val!r}  # {CONFIG_SCHEMA[key][2]}")
    return "\n".join(lines) + "\n"


__all__ = [
    "TRANSFORM_LIMIT_TBP",
    "ConfigError",
    "SourceConfig",
    "LinkConfig",
    "ProtocolConfig",
    "CONFIG_SCHEMA",
    "load_config",
    "build_configs",
    "validate",
    "dump_config",
]
