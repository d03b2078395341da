"""Command-line surface: sweeps, simulations, timetag analysis, audits.

Exit codes are a stable contract: 0 success, 2 usage/config error,
3 output I/O failure; malformed input ends with exit code 2 and a
one-line message, printed before anything else.  Every float flag must
be a finite number.  All randomness flows from --seed; when absent a
random seed is drawn and printed so runs stay reproducible.  Output
files, the Alice log included, are written atomically (temp file +
rename) with the mode the umask gives a new file; the text outputs are
``key = value`` lines from one writer, and every command prints the
mapping it computes.  Sweeps, written as CSV, and intensity searches
evaluate their whole grid in one array call of the decoy chain.
"""

from __future__ import annotations

import argparse
import math
import os
import secrets
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from . import decoy, montecarlo, sidechannel, timetag
from .config import ConfigError, SourceConfig, load_config

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

#: the most attenuations one sweep evaluates
MAX_SWEEP_POINTS = 100_000


def _write_atomic(path: Path, data) -> None:
    """Write ``data`` to ``path`` through a temp file and a rename.

    ``data`` is text, bytes-like, or a function that writes into the
    open binary temp file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w" if isinstance(data, str) else "wb") as fh:
            if callable(data):
                data(fh)
            else:
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
    import decimal  # only a sweep needs it

    # point i is the double nearest the exact decimal atten_min + i * atten_step of the flags,
    # for every i whose point does not pass the exact decimal atten_max
    with decimal.localcontext(decimal.Context(prec=decimal.MAX_PREC)):
        lo, hi, step = (decimal.Decimal(repr(v)) for v in (args.atten_min, args.atten_max, args.atten_step))
        points = int((hi - lo) // step) + 1
        if points > MAX_SWEEP_POINTS:
            raise ConfigError(f"sweep grid has more than {MAX_SWEEP_POINTS} points")
        return [float(lo + i * step) for i in range(points)]


def cmd_sweep(args) -> int:
    source, link, proto = load_config(args.config)
    reports = decoy.sweep(link, _attenuations(args), source, proto, gain_convention=args.gain_convention)
    columns = reports.columns()
    # the csv module's default dialect: comma-separated, CRLF line ends
    cells = ([format(v, fmt) for v in columns[name]] for name, _, fmt in decoy.SWEEP_COLUMNS)
    _write_atomic(Path(args.out), "".join(",".join(row) + "\r\n" for row in [list(columns), *zip(*cells)]))

    hits = (a for a, e in zip(columns["attenuation_db"], columns["E_mu"]) if e > decoy.QBER_CUTOFF)
    print(_kv_text({"rows": len(reports), "qber_cutoff_db": next(hits, math.nan)}), end="")
    return EXIT_OK


def cmd_simulate(args) -> int:
    source, link, proto = load_config(args.config)
    if args.frames < 1:
        raise ConfigError("--frames must be >= 1")
    period = timetag.period_ticks(source.pulse_rate_hz) if args.emit_ttags else 1
    if args.phase_ticks is not None and not args.emit_ttags:
        raise ConfigError("--phase-ticks applies only with --emit-ttags")
    phase = 37 % period if args.phase_ticks is None else args.phase_ticks  # the default, on the circle of phases
    if not 0 <= phase < period:
        raise ConfigError(f"--phase-ticks must lie in [0, {period}), got {phase}")
    seed = _resolve_seed(args)
    result = montecarlo.run(source, link, proto, args.frames, seed, emit_ttags=args.emit_ttags, phase_ticks=phase)
    counts = result.summary.counts
    # each gain and QBER against the exact mean, in binomial sigmas over its denominator; NaN where sigma is 0
    mc, exact = timetag.ratios(counts), timetag.ratios(montecarlo.expected_tally(source, link))
    sigma = np.sqrt(exact * (1 - exact) / np.maximum(counts[::2], 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        delta = np.where(sigma > 0, (mc - exact) / sigma, np.nan)
    summary = {"frames": args.frames, "simulated_s": args.frames / source.pulse_rate_hz}
    for i, label in enumerate(timetag.CLASS_LABELS):
        summary.update({f"{row}_{label}": c for row, c in zip(("sent", "detected", "sifted", "errors"), counts[:, i])})
        for j, ratio in enumerate(("gain", "qber")):
            summary.update({f"{ratio}_{label}": mc[j, i], f"{ratio}_exact_{label}": exact[j, i],
                            f"{ratio}_delta_{label}": delta[j, i]})
    out = str(args.out)  # output prefix, suffixes appended
    _write_atomic(Path(out + ".summary.txt"), _kv_text(summary))
    if args.emit_ttags:
        _write_atomic(Path(out + ".ttag"), timetag.encode(result.stream))
        _write_atomic(Path(out + ".alice.csv"), result.alice_log.to_csv)
        sidecar = {
            "period_ticks": period,
            "phase_ticks": phase,
            "window_ticks": timetag.window_ticks_from_seconds(link.window_s),
            "channels": "0:H 1:V 2:D 3:A",
            "dropped_records": result.dropped_records,
        }
        _write_atomic(Path(out + ".sidecar.txt"), _kv_text(sidecar))

    _print_seed(args, seed)
    print(_kv_text(summary), end="")
    return EXIT_OK


def cmd_analyze_ttags(args) -> int:
    source, link, proto = load_config(args.config)
    period = timetag.period_ticks(source.pulse_rate_hz)  # checked before the inputs are read
    window = timetag.window_ticks_from_seconds(link.window_s)
    try:
        with warnings.catch_warnings(record=True) as decode_warnings:  # shown as warning: lines below
            warnings.simplefilter("always")
            stream = timetag.decode(Path(args.ttags).read_bytes())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read timetag stream: {exc}") from exc
    if not np.any(stream.channels < 4):
        raise ConfigError("no records in timetag stream")
    try:
        with open(args.alice_log, "rb") as fh:
            alice = timetag.AliceLog.from_csv(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read alice log: {exc}") from exc
    seed = _resolve_seed(args)

    phase = timetag.recover_phase(stream, period)
    gated = timetag.gate(stream, period, phase.phase_ticks, window)
    sifted = timetag.sift(alice, gated, period, seed=seed)
    if sifted.unattributed:
        raise ConfigError(f"alice log covers {len(alice)} frames; {sifted.unattributed} detection records lie outside it")

    y0, report = decoy.rate_from_counts(sifted.counts, source, link, proto)
    obs, est = report.observables, report.estimates

    fields = dict(  # printed and written as they are, one name per number
        records=len(stream), gated=len(gated.accepted), rejected=gated.rejected,
        phase_ticks=phase.phase_ticks, window_ticks=window, collisions=sifted.collisions,
        sifted_rate_cps=sifted.counts[2].sum() / (len(alice) / source.pulse_rate_hz),
        **{name: getattr(obs, name) for name in ("q_mu", "q_nu1", "q_nu2", "e_mu", "e_nu1")},
        e_nu2=sifted.qber_class(2), y0_est=y0, y1_lower=est.y1_lower, q1_lower=est.q1_lower, e1_upper=est.e1_upper,
        rkr_bps=report.raw_key_rate_bps, lbskr_bps=report.secure_key_rate_bps,
    )
    _print_seed(args, seed)
    for caught in decode_warnings:
        print(f"warning: {caught.message}")
    if phase.low_confidence:
        print(f"warning: low-confidence phase (contrast {phase.contrast:.2f})")
    if est.clamped:
        print("warning: a decoy bound (y1_lower or e1_upper) was clamped into its range; lbskr_bps is unreliable")
    print(_kv_text(fields), end="")
    if args.out:
        _write_atomic(Path(args.out), _kv_text(fields))
    return EXIT_OK


def cmd_sidechannel(args) -> int:
    if args.synth and args.profiles:
        raise ConfigError("ambiguous input: give either --profiles or --synth, not both")
    if not args.synth and not args.profiles:
        raise ConfigError("need an input: --profiles FILE or --synth")
    if args.synth and args.domain is not None:
        raise ConfigError("--domain applies only to --profiles")
    for flag, value in (("--pedestals", args.pedestals), ("--shifts-ps", args.shifts_ps)):
        if args.profiles and value is not None:
            raise ConfigError(f"{flag} applies only to --synth")
    config = load_config(args.config) if args.config else None

    if args.profiles:
        try:
            mi = sidechannel.leakage(sidechannel.load_profiles(args.profiles))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"malformed profiles: {exc}") from exc
        temporal, spectral = (0.0, mi) if args.domain == "spectral" else (mi, 0.0)
    else:
        source = config[0] if config else SourceConfig()
        pedestals = (0.0,) * 4 if args.pedestals is None else _floats(args.pedestals, "--pedestals", 4)
        shifts_ps = (0.0,) * 4 if args.shifts_ps is None else _floats(args.shifts_ps, "--shifts-ps", 4)
        shifts = tuple(s * 1e-12 for s in shifts_ps)
        profiles = sidechannel.synth_profiles(
            fwhm_s=source.pulse_fwhm_s, tbp=source.time_bandwidth_product, ase_pedestal=pedestals, shifts_s=shifts
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
    if config:  # debit the leakage from the config's link, at its attenuation
        source, link, proto = config
        report = decoy.evaluate_link(source, link, proto, args.gain_convention)
        fields.update(attenuation_db=link.attenuation_db, lbskr_bps=report.secure_key_rate_bps)
        fields.update(leakage_adjusted_bps=sidechannel.leakage_adjusted_rate(report, budget))
    print(_kv_text(fields), end="")
    if args.out:
        _write_atomic(Path(args.out), _kv_text(fields))
    return EXIT_OK


def cmd_optimize(args) -> int:
    source, link, proto = load_config(args.config)
    grid = decoy.GridSpec(
        mu_values=_floats(args.mu_grid, "--mu-grid"),
        nu1_values=_floats(args.nu1_grid, "--nu1-grid"),
    )
    result = decoy.optimize_intensities(
        link, proto, grid, source_template=source, gain_convention=args.gain_convention
    )
    if result.all_zero:
        print("note: rate is zero on the whole grid; reported point is the first grid point")
    print(_kv_text({"mu_opt": result.mu, "nu1_opt": result.nu1, "lbskr_bps": result.secure_key_rate_bps}), end="")
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
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])  # the commands that draw random numbers
    seeded.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("sweep", parents=[common], help="attenuation sweep to CSV")
    p.add_argument("--out", required=True)
    p.add_argument("--atten-min", type=_finite, default=0.0)
    p.add_argument("--atten-max", type=_finite, default=40.0)
    p.add_argument("--atten-step", type=_finite, default=1.0)
    p.add_argument("--gain-convention", choices=decoy.GAIN_CONVENTIONS, default="full-budget")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate", parents=[seeded], help="Monte Carlo run; optional .ttag emission")
    p.add_argument("--out", required=True, help="output prefix")
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--emit-ttags", action="store_true")
    p.add_argument("--phase-ticks", type=int, default=None, help="clock phase of emitted ticks (default 37 mod period)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze-ttags", parents=[seeded], help="phase recovery, gating, sifting, key rate")
    p.add_argument("--ttags", required=True)
    p.add_argument("--alice-log", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_analyze_ttags)

    p = sub.add_parser("sidechannel", help="mutual-information leakage audit")
    p.add_argument("--profiles", default=None, help="per-state profile CSV")
    p.add_argument("--domain", choices=["temporal", "spectral"], default=None, help="--profiles only (default temporal)")
    p.add_argument("--synth", action="store_true", help="synthesize Gaussian profiles")
    p.add_argument("--config", default=None, help="the device: --synth pulse shape, link to debit the leakage from")
    p.add_argument("--pedestals", default=None, help="--synth only: per-state ASE floor, fraction of peak (default 0)")
    p.add_argument("--shifts-ps", default=None, help="--synth only: per-state temporal shifts, ps (default 0)")
    p.add_argument("--spatial-bits", type=_finite, default=sidechannel.DEFAULT_SPATIAL_LEAKAGE)
    p.add_argument("--gain-convention", choices=decoy.GAIN_CONVENTIONS, default="full-budget")
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
    except (ValueError, MemoryError) as exc:  # ConfigError included; MemoryError: a run too large to hold
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
