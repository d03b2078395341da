import math

import pytest

from qkdbench.cli import main
from qkdbench.config import (
    CONFIG_SCHEMA,
    ConfigError,
    LinkConfig,
    ProtocolConfig,
    SourceConfig,
    build_configs,
    dump_config,
    load_config,
    validate,
)


def test_empty_file_gives_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    source, link, proto = load_config(path)
    assert source.mu == 0.5
    assert source.nu1 == 0.125
    assert source.nu2 == 0.0
    assert link.background_yield == 5.58e-4
    assert proto.error_correction_f == 1.16


def test_benchmark_file(bench_config_file):
    source, link, proto = load_config(bench_config_file)
    assert source.mu == 0.5
    assert source.nu1 == 0.066
    assert source.nu2 == 0.002
    assert link.attenuation_db == 6.0


def test_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# heading\n\nmu = 0.6  # inline\nnu1 = 0.1\n")
    source, _, _ = load_config(path)
    assert source.mu == 0.6


def test_nu2_derived_from_extinction_ratio(tmp_path):
    path = tmp_path / "er.cfg"
    path.write_text("mu = 0.5\nnu1 = 0.066\nextinction_ratio_db = 24\n")
    source, _, _ = load_config(path)
    assert source.nu2 == pytest.approx(0.5 * 10 ** (-2.4))


def test_explicit_nu2_wins_over_extinction_ratio(tmp_path):
    path = tmp_path / "er2.cfg"
    path.write_text("mu = 0.5\nnu1 = 0.066\nnu2 = 0.002\nextinction_ratio_db = 24\n")
    source, _, _ = load_config(path)
    assert source.nu2 == 0.002


def test_probability_sum_violation(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("p_mu = 0.5\np_nu1 = 0.6\n")
    with pytest.raises(ConfigError, match="sum to 1"):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("banana = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(path)
    with pytest.raises(ConfigError, match=r"^unknown keys: \['banana'\]$"):
        build_configs({"banana": 1.0})


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mu = 0.5\nmu = 0.6\n")
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(path)


def test_malformed_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mu 0.5\n")
    with pytest.raises(ConfigError, match="key = value"):
        load_config(path)


def test_non_numeric_value(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("mu = lots\n")
    with pytest.raises(ConfigError, match="not a number"):
        load_config(path)


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/nowhere.cfg")


def test_validate_defaults_clean():
    assert validate(SourceConfig(), LinkConfig(), ProtocolConfig()) == []


def test_validate_dop_range():
    bad = SourceConfig(degree_of_polarization=1.2)
    violations = validate(bad, LinkConfig(), ProtocolConfig())
    assert len(violations) == 1
    assert "degree_of_polarization" in violations[0]


def test_validate_intensity_ordering():
    bad = SourceConfig(mu=0.1, nu1=0.2)
    violations = validate(bad, LinkConfig(), ProtocolConfig())
    assert any("ordering" in v for v in violations)


def test_validate_window_vs_period():
    bad = LinkConfig(window_s=20e-9)  # period is 10 ns
    violations = validate(SourceConfig(), bad, ProtocolConfig())
    assert any("window" in v for v in violations)


@pytest.mark.parametrize(
    "kwargs, key",
    [
        ({"pulse_fwhm_s": float("inf")}, "pulse_fwhm_s"),
        ({"pulse_fwhm_s": 20e-9}, "pulse_fwhm_s"),  # period is 10 ns
        ({"time_bandwidth_product": float("inf")}, "time_bandwidth_product"),
    ],
)
def test_validate_pulse_shape(kwargs, key):
    violations = validate(SourceConfig(**kwargs), LinkConfig(), ProtocolConfig())
    assert len(violations) == 1 and violations[0].startswith(f"{key}: ")


@pytest.mark.parametrize("value", ["inf", "-inf"])
@pytest.mark.parametrize("key", CONFIG_SCHEMA)
def test_every_key_must_be_finite(tmp_path, key, value):
    path = tmp_path / "inf.cfg"
    path.write_text(f"{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"(^|; ){key}: must be finite(;|$)"):
        load_config(path)


def just_outside_and_inside(interval: str) -> list[tuple[float, float]]:
    """(value just outside, value just inside) at each finite end of an interval like ``"(0, 1]"``."""
    lo, hi = map(float, interval[1:-1].split(","))
    ends = [(lo, math.nextafter(lo, math.inf)) if interval[0] == "(" else (math.nextafter(lo, -math.inf), lo)]
    if math.isfinite(hi):
        ends.append((hi, math.nextafter(hi, -math.inf)) if interval[-1] == ")" else (math.nextafter(hi, math.inf), hi))
    return ends


@pytest.mark.parametrize(
    "key, outside, inside",
    [(key, *pair) for key, (*_, interval) in CONFIG_SCHEMA.items() for pair in just_outside_and_inside(interval)],
)
def test_each_key_must_lie_in_its_range(tmp_path, capsys, key, outside, inside):
    message = f"{key}: must lie in {CONFIG_SCHEMA[key][3]}"
    path = tmp_path / "range.cfg"
    path.write_text(f"{key} = {outside!r}\n")
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert message in str(info.value)
    assert main(["optimize", "--config", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1 and message in err
    # the value just inside may break a rule that relates keys, but not its own range
    path.write_text(f"{key} = {inside!r}\n")
    try:
        load_config(path)
    except ConfigError as exc:
        assert message not in str(exc)


def test_extinction_ratio_below_zero_rejected_not_overflowed():
    # nu2 = mu * 10^(-ER/10) is derived only from a valid ratio; 10.0 ** 400 raises OverflowError
    with pytest.raises(ConfigError, match=r"^extinction_ratio_db: must lie in \(0, inf\)$"):
        build_configs({"extinction_ratio_db": -4000.0})


def test_validate_total_on_weird_numbers():
    # never raises, just reports
    weird = SourceConfig(mu=float("nan"), nu1=float("inf"), extinction_ratio_db=-3.0)
    violations = validate(weird, LinkConfig(background_yield=2.0), ProtocolConfig(sifting_q=0.0))
    assert isinstance(violations, list) and violations


def test_round_trip(tmp_path):
    source = SourceConfig(mu=0.61, nu1=0.07, nu2=1.3e-3, p_mu=0.7, p_nu1=0.2, p_nu2=0.1)
    link = LinkConfig(attenuation_db=11.5, background_suppression=0.25)
    proto = ProtocolConfig(duration_s=2.5, signal_pulses=3e8)
    text = dump_config(source, link, proto)
    path = tmp_path / "rt.cfg"
    path.write_text(text)
    s2, l2, p2 = load_config(path)
    assert s2 == source
    assert l2 == link
    assert p2 == proto
    # and serializing again is a fixed point
    assert dump_config(s2, l2, p2) == text


def test_suppression_default_derivation():
    link = LinkConfig()  # window 1 ns, rate 100 MHz
    assert link.suppression(SourceConfig()) == pytest.approx(0.1)
    assert LinkConfig(background_suppression=0.5).suppression(SourceConfig()) == 0.5


def test_source_error_from_dop():
    assert SourceConfig(degree_of_polarization=1.0).source_error == 0.0
    assert SourceConfig().source_error == pytest.approx((1 - 0.9968) / 2)


def test_signal_pulses_per_s():
    src = SourceConfig()
    assert ProtocolConfig(signal_pulses=1e8, duration_s=2.0).signal_pulses_per_s(src) == 5e7
    assert ProtocolConfig().signal_pulses_per_s(src) == pytest.approx(0.8e8)


def test_build_configs_rejects_invalid():
    with pytest.raises(ConfigError):
        build_configs({"nu1": 0.9})  # nu1 above default mu


def test_pol_prob_keys(tmp_path):
    path = tmp_path / "pol.cfg"
    path.write_text("p_pol_h = 0.4\np_pol_v = 0.2\np_pol_d = 0.2\np_pol_a = 0.2\n")
    source, _, _ = load_config(path)
    assert source.pol_probs == (0.4, 0.2, 0.2, 0.2)
    assert math.isclose(sum(source.pol_probs), 1.0)
