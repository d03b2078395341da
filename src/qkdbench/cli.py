"""Command-line surface: sweeps, simulations, timetag analysis, audits.

Exit codes are a stable contract: 0 success, 2 usage/config error,
3 output I/O failure; malformed input ends with exit code 2 and a
one-line message, printed before anything else.  Every float flag must
be a finite number.  All randomness flows from --seed; when absent a
random seed is drawn and printed so runs stay reproducible.  Output
files, the Alice log included, are written atomically (temp file +
rename) with the mode the umask gives a new file; the text outputs are
``key = value`` lines from one writer.  Sweeps and intensity searches
evaluate their whole grid in one array call of the decoy chain.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import secrets
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import decoy, montecarlo, sidechannel, timetag
from .config import ConfigError, load_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

#: the most attenuations one sweep evaluates
MAX_SWEEP_POINTS = 100_000


def _write_atomic(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp makes 0600; give what open() would
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _kv_text(fields: dict) -> str:
    """``key = value`` lines, the format of every text output.

    A value is written as the ``repr`` of its Python scalar (a numpy
    scalar is converted first, so a float reads ``0.1`` under any numpy
    version); a string is written as it is.
    """
    lines = []
    for key, value in fields.items():
        if isinstance(value, np.generic):
            value = value.item()
        lines.append(f"{key} = {value if isinstance(value, str) else repr(value)}\n")
    return "".join(lines)


def _resolve_seed(args) -> int:
    """--seed, or a random seed that _print_seed shows once the input is accepted."""
    return secrets.randbits(32) if args.seed is None else args.seed


def _print_seed(args, seed: int) -> None:
    if args.seed is None:
        print(f"seed = {seed}  (chosen at random; pass --seed to reproduce)")


def _finite(text: str) -> float:
    """The argparse type of every float flag, and of each item of a number list."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _floats(text: str, what: str, count: int | None = None) -> tuple[float, ...]:
    """Parse a comma-separated list of finite numbers."""
    try:
        values = tuple(map(_finite, text.split(",")))
    except argparse.ArgumentTypeError as exc:
        raise ConfigError(f"{what}: {exc}") from None
    if count is not None and len(values) != count:
        raise ConfigError(f"{what}: expected {count} comma-separated values, got {text!r}")
    return values


def _attenuations(args) -> list[float]:
    if args.atten_min < 0:
        raise ConfigError("--atten-min must be >= 0")
    if args.atten_max < args.atten_min:
        raise ConfigError("--atten-max must be >= --atten-min")
    if args.atten_step <= 0:
        raise ConfigError("--atten-step must be > 0")
    steps = (args.atten_max - args.atten_min) / args.atten_step  # a float: inf rather than a huge int
    if steps + 1 > MAX_SWEEP_POINTS:
        raise ConfigError(f"sweep grid has more than {MAX_SWEEP_POINTS} points")
    return [args.atten_min + i * args.atten_step for i in range(round(steps) + 1)]


def cmd_sweep(args) -> int:
    source, link, proto = load_config(args.config)
    attens = _attenuations(args)
    reports = decoy.sweep(link, attens, source, proto, gain_convention=args.gain_convention)
    if args.format == "csv":
        buf = io.StringIO()
        decoy.write_sweep_csv(reports, buf)
        payload = buf.getvalue()
    else:  # structured text: one key=value block per attenuation
        payload = "\n".join(_kv_text({name: get(r) for name, get, _ in decoy.SWEEP_COLUMNS}) for r in reports)
    _write_atomic(Path(args.out), payload)

    cutoff = next((r.attenuation_db for r in reports if r.qber_cutoff_hit), None)
    if cutoff is None:
        print(f"wrote {len(reports)} rows to {args.out}; QBER cutoff (>{decoy.QBER_CUTOFF}) not reached")
    else:
        print(f"wrote {len(reports)} rows to {args.out}; QBER cutoff (>{decoy.QBER_CUTOFF}) at {cutoff:g} dB")
    return EXIT_OK


def cmd_simulate(args) -> int:
    source, link, proto = load_config(args.config)
    if args.frames < 1:
        raise ConfigError("--frames must be >= 1")
    seed = _resolve_seed(args)
    result = montecarlo.run(
        source, link, proto, args.frames, seed, emit_ttags=args.emit_ttags, phase_ticks=args.phase_ticks
    )
    s = result.summary
    summary = {"frames": s.frames, "simulated_s": s.simulated_s}
    counts = {"sent": s.sent, "detected": s.detected, "sifted": s.sifted, "errors": s.errors}
    for i, label in enumerate(timetag.CLASS_LABELS):
        summary.update({f"{name}_{label}": c[i] for name, c in counts.items()})
        summary.update({f"gain_{label}": s.gain_class(i), f"qber_{label}": s.qber_class(i)})
    out = str(args.out)  # output prefix, suffixes appended
    _write_atomic(Path(out + ".summary.txt"), _kv_text(summary))
    if args.emit_ttags:
        _write_atomic(Path(out + ".ttag"), timetag.encode(result.stream))
        _write_atomic(Path(out + ".alice.csv"), result.alice_log.to_csv())
        sidecar = {
            "period_ticks": int(round(1.0 / source.pulse_rate_hz / timetag.TICK_SECONDS)),
            "phase_ticks": args.phase_ticks,
            "window_ticks": timetag.window_ticks_from_seconds(link.window_s),
            "channels": "0:H 1:V 2:D 3:A",
            "dropped_records": result.dropped_records,
        }
        _write_atomic(Path(out + ".sidecar.txt"), _kv_text(sidecar))

    # delta against the simulator's exact click probability; the paper gain
    # Y0 + 1 - e^(-eta m) counts a frame where both click twice
    obs_model = decoy.channel_observables(source, link, "full-budget")
    exact = 1.0 - montecarlo.outcome_table(source, link)[::4, 0]
    _print_seed(args, seed)
    print(f"frames = {s.frames}, simulated {s.simulated_s:g} s")
    papers = (obs_model.q_mu, obs_model.q_nu1, obs_model.q_nu2)
    for i, (label, q_exact, q_paper) in enumerate(zip(timetag.CLASS_LABELS, exact, papers)):
        q_mc = s.gain_class(i)
        sigma = (q_exact * (1 - q_exact) / max(int(s.sent[i]), 1)) ** 0.5
        delta = (q_mc - q_exact) / sigma if sigma > 0 else float("nan")
        print(f"Q_{label}: mc={q_mc:.6e} exact={q_exact:.6e} delta={delta:+.2f} sigma paper={q_paper:.6e}")
    e_mc = s.qber_class(0)
    print(f"E_signal: mc={e_mc:.6e} model={obs_model.e_mu:.6e}")
    return EXIT_OK


def cmd_analyze_ttags(args) -> int:
    source, link, proto = load_config(args.config)
    if not args.window_ns > 0:
        raise ConfigError(f"--window-ns must be > 0, got {args.window_ns!r}")
    try:
        stream = timetag.load_ttag(args.ttags)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read timetag stream: {exc}") from exc
    if len(stream.detections()) == 0:
        raise ConfigError("no records in timetag stream")
    try:
        with open(args.alice_log) as fh:
            alice = timetag.AliceLog.from_csv(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read alice log: {exc}") from exc
    seed = _resolve_seed(args)

    period = int(round(1.0 / source.pulse_rate_hz / timetag.TICK_SECONDS))
    # clamped in seconds, so a huge window never becomes an infinite tick count
    window = timetag.window_ticks_from_seconds(min(args.window_ns * 1e-9, 1.0 / source.pulse_rate_hz))
    phase = timetag.recover_phase(stream, period)
    gated = timetag.gate(stream, period, phase.phase_ticks, window)
    sifted = timetag.sift(alice, gated, period, seed=seed)

    y0, report = decoy.rate_from_counts(
        np.bincount(alice.code >> 2, minlength=3),
        sifted.detected_per_class,
        sifted.sifted_per_class,
        sifted.errors_per_class,
        source,
        link,
        proto,
    )
    obs, est = report.observables, report.estimates

    duration = len(alice) / source.pulse_rate_hz
    _print_seed(args, seed)
    if phase.low_confidence:
        print(f"warning: low-confidence phase (contrast {phase.contrast:.2f})")
    print(f"records = {len(stream)}, gated = {len(gated.accepted)}, rejected = {gated.rejected}")
    print(f"phase_ticks = {phase.phase_ticks}, window_ticks = {window}, collisions = {sifted.collisions}")
    print(f"sifted_rate_cps = {len(sifted.sifted_bits) / duration:.6e}")
    for i, (label, q) in enumerate(zip(timetag.CLASS_LABELS, (obs.q_mu, obs.q_nu1, obs.q_nu2))):
        print(f"Q_{label} = {q:.6e}  qber_{label} = {sifted.qber_class(i):.6e}")
    print(f"Y0_est = {y0:.6e}")
    print(f"Y1_lower = {est.y1_lower:.6e}  Q1_lower = {est.q1_lower:.6e}  e1_upper = {est.e1_upper:.6e}")
    print(f"lbskr_bps = {report.secure_key_rate_bps:.6e}")
    if args.out:
        fields = {name: getattr(obs, name) for name in ("q_mu", "q_nu1", "q_nu2", "e_mu", "e_nu1")}
        fields.update(y0_est=y0, y1_lower=est.y1_lower, q1_lower=est.q1_lower, e1_upper=est.e1_upper)
        fields.update(rkr_bps=report.raw_key_rate_bps, lbskr_bps=report.secure_key_rate_bps)
        _write_atomic(Path(args.out), _kv_text(fields))
    return EXIT_OK


def cmd_sidechannel(args) -> int:
    if args.synth and args.profiles:
        raise ConfigError("ambiguous input: give either --profiles or --synth, not both")
    if not args.synth and not args.profiles:
        raise ConfigError("need an input: --profiles FILE or --synth")

    if args.profiles:
        try:
            mi = sidechannel.leakage(sidechannel.load_profiles(args.profiles))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"malformed profiles: {exc}") from exc
        temporal, spectral = (mi, 0.0) if args.domain == "temporal" else (0.0, mi)
    else:
        pedestals = _floats(args.pedestals, "--pedestals", 4)
        shifts = tuple(s * 1e-12 for s in _floats(args.shifts_ps, "--shifts-ps", 4))
        profiles = sidechannel.synth_profiles(
            fwhm_s=args.fwhm_ps * 1e-12, tbp=args.tbp, ase_pedestal=pedestals, shifts_s=shifts
        )
        temporal, spectral = map(sidechannel.leakage, profiles)
    try:
        budget = sidechannel.LeakageBudget(temporal=temporal, spectral=spectral, spatial=args.spatial_bits)
    except ValueError as exc:
        raise ConfigError(f"--spatial-bits: {exc}") from exc

    fields = {
        "leakage_temporal_bits_per_pulse": budget.temporal,
        "leakage_spectral_bits_per_pulse": budget.spectral,
        "leakage_spatial_bits_per_pulse": budget.spatial,
        "leakage_total_bits_per_pulse": budget.total,
    }
    shown = dict(fields)
    if args.sweep_csv:
        attenuation_db, rkr, lbskr = _pick_sweep_row(args.sweep_csv, args.attenuation_db)
        adjusted = max(0.0, lbskr - rkr * budget.total)
        fields.update(attenuation_db=attenuation_db, lbskr_bps=lbskr, leakage_adjusted_bps=adjusted)
        shown.update(attenuation_db=f"{attenuation_db:g}", lbskr_bps=f"{lbskr:.6e}")
        shown.update(leakage_adjusted_bps=f"{adjusted:.6e}")
    print(_kv_text(shown), end="")
    if args.out:
        _write_atomic(Path(args.out), _kv_text(fields))
    return EXIT_OK


def _pick_sweep_row(path: str, attenuation_db: float | None) -> tuple[float, float, float]:
    """(attenuation_db, rkr_bps, lbskr_bps) of the row nearest the attenuation (first if None)."""
    try:
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except (OSError, csv.Error, ValueError) as exc:
        raise ConfigError(f"cannot read sweep CSV: {exc}") from exc
    if not rows:
        raise ConfigError("sweep CSV has no rows")
    try:
        if attenuation_db is None:
            row = rows[0]
        else:
            row = min(rows, key=lambda r: abs(float(r["attenuation_db"]) - attenuation_db))
        return float(row["attenuation_db"]), float(row["rkr_bps"]), float(row["lbskr_bps"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed sweep CSV {path}: {exc!r}") from exc


def cmd_optimize(args) -> int:
    source, link, proto = load_config(args.config)
    grid = decoy.GridSpec(
        mu_values=_floats(args.mu_grid, "--mu-grid"),
        nu1_values=_floats(args.nu1_grid, "--nu1-grid"),
    )
    result = decoy.optimize_intensities(
        link, proto, grid, source_template=source, gain_convention=args.gain_convention
    )
    print(f"mu_opt = {result.mu:g}")
    print(f"nu1_opt = {result.nu1:g}")
    print(f"lbskr_bps = {result.secure_key_rate_bps:.6e}")
    if result.all_zero:
        print("note: rate is zero on the whole grid; reported point is the first grid point")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError (one line, exit 2); subparsers inherit it."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qkdbench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="flat key=value config file")
    common.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("sweep", parents=[common], help="attenuation sweep to CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--atten-min", type=_finite, default=0.0)
    p.add_argument("--atten-max", type=_finite, default=40.0)
    p.add_argument("--atten-step", type=_finite, default=1.0)
    p.add_argument("--gain-convention", choices=decoy.GAIN_CONVENTIONS, default="full-budget")
    p.add_argument("--format", choices=["csv", "text"], default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", parents=[common], help="Monte Carlo run; optional .ttag emission")
    p.add_argument("--out", required=True, help="output prefix")
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--emit-ttags", action="store_true")
    p.add_argument("--phase-ticks", type=int, default=37, help="clock phase of emitted ticks")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze-ttags", parents=[common], help="phase recovery, gating, sifting, key rate")
    p.add_argument("--ttags", required=True)
    p.add_argument("--alice-log", required=True)
    p.add_argument("--window-ns", type=_finite, default=1.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze_ttags)

    p = sub.add_parser("sidechannel", help="mutual-information leakage audit")
    p.add_argument("--profiles", default=None, help="per-state profile CSV")
    p.add_argument("--domain", choices=["temporal", "spectral"], default="temporal")
    p.add_argument("--synth", action="store_true", help="synthesize Gaussian profiles")
    p.add_argument("--pedestals", default="0,0,0,0", help="per-state ASE floor, fraction of peak")
    p.add_argument("--shifts-ps", default="0,0,0,0", help="per-state temporal shifts, ps")
    p.add_argument("--fwhm-ps", type=_finite, default=400.0)
    p.add_argument("--tbp", type=_finite, default=0.56)
    p.add_argument("--spatial-bits", type=_finite, default=sidechannel.DEFAULT_SPATIAL_LEAKAGE)
    p.add_argument("--sweep-csv", default=None, help="debit the leakage from a sweep row")
    p.add_argument("--attenuation-db", type=_finite, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sidechannel)

    p = sub.add_parser("optimize", parents=[common], help="grid search over signal/decoy intensities")
    p.add_argument("--mu-grid", default="0.25,0.5,0.75,1.0")
    p.add_argument("--nu1-grid", default="0.05,0.1,0.15,0.2")
    p.add_argument("--gain-convention", choices=decoy.GAIN_CONVENTIONS, default="full-budget")
    p.set_defaults(func=cmd_optimize)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
