"""One benchmark operation, run in a fresh process.

``run_bench.py`` starts this file once per operation:

    python3 bench/workloads.py --workload roundtrip --seed 7 --frames 1000000 \
        --workdir .bench_run/x --result .bench_run/x/result.json --trace 0

The process imports ``qkdbench`` from ``src/`` of the checkout, loads the
benchmark config, runs one operation of the workload, checks its
outputs and writes a JSON result.  Set-up ends when ``qkdbench`` is
imported and the config is loaded; the parent measures it from the
moment it spawned this process.

Workloads drive the package only through interfaces the ROADMAP keeps:
``roundtrip`` goes through CLI flags and finds simulate's Alice log by
its ``run.alice.*`` prefix, and no workload calls ``sweep(max_workers=)``,
``sample_pulse`` or ``replace_config``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate as calibration  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CONFIG = "configs/benchmark6db.cfg"
WORKLOADS = ("roundtrip", "mc-summary", "design-scan")

#: frames per operation; design-scan has no frames
FRAMES = {"roundtrip": 1_000_000, "mc-summary": 10_000_000, "design-scan": 0}

# design-scan inputs: 0-40 dB in 0.1 dB steps, and a 40x40 intensity
# grid of which 1,454 points satisfy 0 < nu1 < mu <= 1
ATTENUATIONS_DB = [i / 10 for i in range(401)]
ANCHOR_INDEX = 60  # 6.0 dB
MU_GRID = tuple(0.025 * k for k in range(1, 41))
NU1_GRID = tuple(0.005 * j for j in range(1, 41))
CONVENTION = "attenuation-only"

# 6 dB benchmark anchor, attenuation-only convention, to the digits stated
ANCHOR_Q_MU = (1.186e-1, 0.5e-4)
ANCHOR_RATE_BPS = (2.90e6, 0.5e4)

# roundtrip: lbskr_bps from analyze-ttags against the analytic full-budget
# rate with the background cut to the 13-of-128-tick software gate.  Over
# 30 seeds at 1e6 frames the relative standard deviation was 8% (mean 3%
# below the model); it scales as 1/sqrt(frames), and the band is 5 of them.
RATE_REL_SD_AT_1E6 = 0.08
RATE_BAND_SD = 5.0
GATE_TICKS, PERIOD_TICKS = 13, 128

# mc-summary: per-class gain within this many standard deviations of the
# simulator's own exact expectation 1 - (1 - Y0) exp(-eta m)
GAIN_SIGMAS = 5.0

#: calibration kernel each workload's times are scaled by (see calibrate.py);
#: roundtrip is ~85% pure-Python Alice-log CSV I/O
CALIBRATION = {"roundtrip": "python", "mc-summary": "numpy", "design-scan": "python"}

#: span names each workload wraps: the public functions it and ``cli`` call
WRAPS = {
    "roundtrip": (
        "config.load_config",
        "montecarlo.run",
        "timetag.encode",
        "timetag.decode",
        "timetag.AliceLog.to_csv",
        "timetag.AliceLog.from_csv",
        "timetag.recover_phase",
        "timetag.gate",
        "timetag.sift",
        "decoy.estimate_background_yield",
        "decoy.decoy_estimates",
        "decoy.key_rate_lower_bound",
    ),
    "mc-summary": ("config.load_config", "montecarlo.run"),
    "design-scan": (
        "config.load_config",
        "decoy.sweep",
        "decoy.optimize_intensities",
        "sidechannel.synth_profiles",
        "sidechannel.leakage",
        "sidechannel.leakage_adjusted_rate",
        "entropy.mi_from_profiles",
    ),
}

#: per-layer time metric -> the spans whose durations it sums
LAYER_TIMES = {
    "config.load_s": ("config.load_config",),
    "montecarlo.run_s": ("montecarlo.run",),
    "timetag.encode_s": ("timetag.encode",),
    "timetag.decode_s": ("timetag.decode",),
    "timetag.alice_write_s": ("timetag.AliceLog.to_csv",),
    "timetag.alice_read_s": ("timetag.AliceLog.from_csv",),
    "timetag.phase_s": ("timetag.recover_phase",),
    "timetag.gate_s": ("timetag.gate",),
    "timetag.sift_s": ("timetag.sift",),
    "decoy.sweep_s": ("decoy.sweep",),
    "decoy.optimize_s": ("decoy.optimize_intensities",),
    "decoy.bounds_s": (
        "decoy.estimate_background_yield",
        "decoy.decoy_estimates",
        "decoy.key_rate_lower_bound",
    ),
    "sidechannel.synth_s": ("sidechannel.synth_profiles",),
    "sidechannel.leakage_s": ("sidechannel.leakage",),
    "entropy.mi_s": ("entropy.mi_from_profiles",),
    "cli.simulate_s": ("cli.simulate",),
    "cli.analyze_s": ("cli.analyze-ttags",),
}

#: derived per-layer metric -> the wrapped spans it needs
LAYER_DERIVED = {
    "montecarlo.frames_per_s": ("montecarlo.run",),
    "montecarlo.records": ("montecarlo.run",),
    "montecarlo.dropped_records": ("montecarlo.run",),
    "timetag.ttag_bytes": (),
    "timetag.alice_bytes": (),
    "timetag.gate_accept_ratio": ("timetag.gate",),
    "timetag.collisions": ("timetag.sift",),
    "decoy.points_per_s": ("decoy.sweep", "decoy.optimize_intensities"),
    "cli.self_s": (),
    "cli.output_bytes_per_frame": (),
}

CLI_SPANS = ("cli.simulate", "cli.analyze-ttags")


class Context:
    """Loaded config plus the tracer of a traced operation (or none)."""

    def __init__(self, config_path: Path, source, link, proto, tracer=None):
        self.config_path = config_path
        self.source, self.link, self.proto = source, link, proto
        self.tracer = tracer

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()


def setup(workload: str, root: Path = ROOT, trace: bool = False) -> Context:
    """Import qkdbench from ``root/src`` and load the benchmark config."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import qkdbench.cli  # noqa: F401  (loads every layer the workloads call)
    from qkdbench import config

    tracer = None
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer, WRAPS[workload])
    source, link, proto = config.load_config(root / CONFIG)
    return Context(root / CONFIG, source, link, proto, tracer)


def _cli(argv: list[str]) -> int:
    from qkdbench import cli

    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects flags this way
        return 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1


def read_keyvalue(path: Path) -> dict[str, str]:
    """A ``key = value`` text file, or a flat JSON object."""
    text = path.read_text()
    if text.lstrip().startswith("{"):
        return {k: str(v) for k, v in json.loads(text).items()}
    pairs = (line.split("=", 1) for line in text.splitlines() if "=" in line)
    return {k.strip(): v.strip() for k, v in pairs}


def _one(workdir: Path, pattern: str) -> Path | None:
    found = sorted(workdir.glob(pattern))
    return found[0] if len(found) == 1 else None


# Each workload is a pair: ``run`` times one operation and returns what
# ``check`` needs; ``check`` returns (failures, exact counts).  The split
# lets the calibration kernel run between the two, right after the work.

# ---------------------------------------------------------------- roundtrip


def run_roundtrip(ctx: Context, seed: int, frames: int, workdir: Path) -> dict:
    prefix = workdir / "run"
    config = str(ctx.config_path)
    t0 = time.perf_counter()
    with ctx.span("cli.simulate"):
        rc_sim = _cli(
            ["simulate", "--config", config, "--frames", str(frames), "--seed", str(seed),
             "--out", str(prefix), "--emit-ttags"]
        )
    alice = _one(workdir, "run.alice.*")
    rc_an = None
    if rc_sim == 0 and alice is not None:
        with ctx.span("cli.analyze-ttags"):
            rc_an = _cli(
                ["analyze-ttags", "--config", config, "--ttags", str(prefix) + ".ttag",
                 "--alice-log", str(alice), "--seed", str(seed), "--out", str(workdir / "analysis.txt")]
            )
    t1 = time.perf_counter()
    return {"op_s": t1 - t0, "end": t1, "items": frames, "frames": frames,
            "outputs": {"workdir": workdir, "rc_sim": rc_sim, "rc_an": rc_an}}


def reference_rate(ctx: Context) -> float:
    """Analytic full-budget rate with the background behind the software gate."""
    from qkdbench import decoy

    gated = dataclasses.replace(ctx.link, background_suppression=GATE_TICKS / PERIOD_TICKS)
    return decoy.evaluate_link(ctx.source, gated, ctx.proto, "full-budget").secure_key_rate_bps


def check_roundtrip(ctx: Context, op: dict) -> tuple[list[str], dict]:
    workdir, rc_sim, rc_an = (op["outputs"][k] for k in ("workdir", "rc_sim", "rc_an"))
    failures: list[str] = []
    counts: dict[str, int] = {}
    if rc_sim != 0:
        return [f"simulate exited {rc_sim}"], counts
    if rc_an is None:
        return ["simulate wrote no single run.alice.* log"], counts
    if rc_an != 0:
        failures.append(f"analyze-ttags exited {rc_an}")

    counts["output_bytes"] = sum(p.stat().st_size for p in workdir.glob("run.*") if p.is_file())
    counts["alice_bytes"] = _one(workdir, "run.alice.*").stat().st_size
    ttag = workdir / "run.ttag"
    summary, sidecar = _one(workdir, "run.summary.*"), _one(workdir, "run.sidecar.*")
    if not ttag.is_file() or summary is None or sidecar is None:
        return failures + ["simulate outputs missing (.ttag, summary or sidecar)"], counts
    counts["ttag_bytes"] = ttag.stat().st_size
    if counts["ttag_bytes"] % 8:
        failures.append(f".ttag size {counts['ttag_bytes']} is not a whole number of records")
    counts["records"] = counts["ttag_bytes"] // 8
    try:
        detected = sum(int(v) for k, v in read_keyvalue(summary).items() if k.startswith("detected_"))
        dropped = int(read_keyvalue(sidecar)["dropped_records"])
    except (KeyError, ValueError) as exc:
        return failures + [f"unreadable summary or sidecar: {exc!r}"], counts
    counts["detected"], counts["dropped_records"] = detected, dropped
    if counts["records"] != detected - dropped:
        failures.append(f".ttag records {counts['records']} != detected {detected} - dropped {dropped}")

    if rc_an == 0:
        try:
            rate = float(read_keyvalue(workdir / "analysis.txt")["lbskr_bps"])
        except (OSError, KeyError, ValueError) as exc:
            return failures + [f"unreadable analyze-ttags output: {exc!r}"], counts
        ref = reference_rate(ctx)
        band = RATE_BAND_SD * RATE_REL_SD_AT_1E6 * math.sqrt(1e6 / op["frames"])
        if not rate > 0:
            failures.append(f"lbskr_bps {rate!r} is not positive")
        elif not abs(rate / ref - 1.0) <= band:
            failures.append(f"lbskr_bps {rate:.6e} outside {band:.0%} of the model's {ref:.6e}")
    return failures, counts


# --------------------------------------------------------------- mc-summary


def run_mc_summary(ctx: Context, seed: int, frames: int, workdir: Path) -> dict:
    from qkdbench import montecarlo

    t0 = time.perf_counter()
    result = montecarlo.run(ctx.source, ctx.link, ctx.proto, frames=frames, seed=seed)
    t1 = time.perf_counter()
    return {"op_s": t1 - t0, "end": t1, "items": frames, "frames": frames,
            "outputs": {"summary": result.summary}}


def check_mc_summary(ctx: Context, op: dict) -> tuple[list[str], dict]:
    summary = op["outputs"]["summary"]
    sent = [int(x) for x in summary.sent]
    detected = [int(x) for x in summary.detected]
    return check_gains(ctx, sent, detected, op["frames"]), {"sent": sent, "detected": detected}


def expected_gains(ctx: Context) -> list[float]:
    """The simulator's exact per-class click probability 1 - (1 - Y0) e^(-eta m).

    A background click and a signal click in one frame merge into one
    detection, so this differs from the paper's Y0 + 1 - e^(-eta m).
    """
    link, source = ctx.link, ctx.source
    eta = 10.0 ** (-(link.attenuation_db + link.setup_loss_db) / 10.0) * link.detector_efficiency
    y0 = link.background_yield * link.suppression(source)
    return [1.0 - (1.0 - y0) * math.exp(-eta * m) for m in (source.mu, source.nu1, source.nu2)]


def check_gains(ctx: Context, sent: list[int], detected: list[int], frames: int) -> list[str]:
    failures = []
    if sum(sent) != frames:
        failures.append(f"sent {sum(sent)} != frames {frames}")
    for i, q in enumerate(expected_gains(ctx)):
        if sent[i] == 0:
            failures.append(f"class {i}: no pulses sent")
            continue
        sigma = math.sqrt(q * (1.0 - q) / sent[i])
        z = (detected[i] / sent[i] - q) / sigma
        if not abs(z) <= GAIN_SIGMAS:
            failures.append(f"class {i}: gain {detected[i] / sent[i]:.6e} is {z:+.1f} sigma from {q:.6e}")
    return failures


# -------------------------------------------------------------- design-scan


def grid_points() -> list[tuple[float, float]]:
    return [(mu, nu1) for mu in MU_GRID for nu1 in NU1_GRID if 0.0 < nu1 < mu <= 1.0]


def run_design_scan(ctx: Context, seed: int, frames: int, workdir: Path) -> dict:
    from qkdbench import decoy, sidechannel

    rng = random.Random(seed)
    pedestals = tuple(rng.uniform(0.0, 0.05) for _ in range(4))
    shifts_s = tuple(rng.uniform(-20e-12, 20e-12) for _ in range(4))
    grid = decoy.GridSpec(mu_values=MU_GRID, nu1_values=NU1_GRID)

    t0 = time.perf_counter()
    reports = decoy.sweep(ctx.link, ATTENUATIONS_DB, ctx.source, ctx.proto, gain_convention=CONVENTION)
    best = decoy.optimize_intensities(
        ctx.link, ctx.proto, grid, source_template=ctx.source, gain_convention=CONVENTION
    )
    temporal, spectral = sidechannel.synth_profiles(
        fwhm_s=ctx.source.pulse_fwhm_s,
        tbp=ctx.source.time_bandwidth_product,
        ase_pedestal=pedestals,
        shifts_s=shifts_s,
    )
    budget = sidechannel.LeakageBudget(
        temporal=sidechannel.leakage(temporal), spectral=sidechannel.leakage(spectral)
    )
    anchor = reports[ANCHOR_INDEX]
    adjusted = sidechannel.leakage_adjusted_rate(anchor, budget)
    t1 = time.perf_counter()
    return {"op_s": t1 - t0, "end": t1, "items": len(ATTENUATIONS_DB) + len(grid_points()), "frames": 0,
            "outputs": {"reports": reports, "best": best, "budget": budget, "adjusted": adjusted}}


def check_design_scan(ctx: Context, op: dict) -> tuple[list[str], dict]:
    from qkdbench import decoy

    reports, best, budget, adjusted = (op["outputs"][k] for k in ("reports", "best", "budget", "adjusted"))
    counts = {"sweep_points": len(ATTENUATIONS_DB), "grid_points": len(grid_points())}
    failures = []
    if len(reports) != len(ATTENUATIONS_DB):
        return [f"sweep returned {len(reports)} points, expected {len(ATTENUATIONS_DB)}"], counts
    anchor = reports[ANCHOR_INDEX]
    (q_ref, q_tol), (r_ref, r_tol) = ANCHOR_Q_MU, ANCHOR_RATE_BPS
    if not abs(anchor.observables.q_mu - q_ref) <= q_tol:
        failures.append(f"6 dB Q_mu {anchor.observables.q_mu:.6e} != {q_ref:.4e}")
    if not abs(anchor.secure_key_rate_bps - r_ref) <= r_tol:
        failures.append(f"6 dB rate {anchor.secure_key_rate_bps:.6e} != {r_ref:.3e}")

    grid_max = max(
        decoy.evaluate_link(
            dataclasses.replace(ctx.source, mu=mu, nu1=nu1, nu2=0.0), ctx.link, ctx.proto, CONVENTION
        ).secure_key_rate_bps
        for mu, nu1 in grid_points()
    )
    if not math.isclose(best.secure_key_rate_bps, grid_max, rel_tol=1e-9, abs_tol=1e-9):
        failures.append(f"optimize rate {best.secure_key_rate_bps!r} != grid maximum {grid_max!r}")

    if not (budget.total >= 0 and math.isfinite(budget.total)):
        failures.append(f"leakage total {budget.total!r} is not a finite non-negative number")
    if not 0.0 <= adjusted <= anchor.secure_key_rate_bps:
        failures.append(f"leakage-adjusted rate {adjusted!r} outside [0, {anchor.secure_key_rate_bps!r}]")
    return failures, counts


OPERATIONS = {
    "roundtrip": (run_roundtrip, check_roundtrip),
    "mc-summary": (run_mc_summary, check_mc_summary),
    "design-scan": (run_design_scan, check_design_scan),
}


def perform(ctx: Context, workload: str, seed: int, frames: int, workdir: Path,
            calibrate: bool = False) -> dict:
    """Run, time and check one operation; optionally time the calibration kernel around it."""
    run, check = OPERATIONS[workload]
    kernel = CALIBRATION[workload]
    cal = [calibration.time_kernel(kernel)] if calibrate else []
    op = run(ctx, seed, frames, workdir)
    if calibrate:
        cal.append(calibration.time_kernel(kernel))
        op["cal_s"] = sum(cal) / len(cal)
        op["scale"] = calibration.REFERENCE_S[kernel] / op["cal_s"]
    op["failures"], op["counts"] = check(ctx, op)
    del op["outputs"]
    return op


# ------------------------------------------------------------------ layers


def layer_metrics(op: dict, span_list: list[dict]) -> dict[str, float]:
    """Per-layer values of one traced operation; absent layers are left out."""
    total = spans.durations(span_list)
    own = spans.self_times(span_list)
    n = spans.counts(span_list)

    def present(names) -> bool:
        return all(spans.available(s) for s in names if s in spans.TARGETS)

    out: dict[str, float] = {}
    for metric, names in LAYER_TIMES.items():
        if present(names):
            out[metric] = sum(total.get(s, 0.0) for s in names)

    def put(metric: str, value: float) -> None:
        if present(LAYER_DERIVED[metric]):
            out[metric] = value

    run_s = total.get("montecarlo.run", 0.0)
    put("montecarlo.frames_per_s", op["frames"] / run_s if run_s else 0.0)
    put("montecarlo.records", n.get("records", 0))
    put("montecarlo.dropped_records", n.get("dropped_records", 0))
    put("timetag.ttag_bytes", op["counts"].get("ttag_bytes", 0))
    put("timetag.alice_bytes", op["counts"].get("alice_bytes", 0))
    gate_in = n.get("gate_in", 0)
    put("timetag.gate_accept_ratio", n.get("gate_accepted", 0) / gate_in if gate_in else 0.0)
    put("timetag.collisions", n.get("collisions", 0))
    scan_s = total.get("decoy.sweep", 0.0) + total.get("decoy.optimize_intensities", 0.0)
    points = op["counts"].get("sweep_points", 0) + op["counts"].get("grid_points", 0)
    put("decoy.points_per_s", points / scan_s if scan_s else 0.0)
    put("cli.self_s", sum(own.get(s, 0.0) for s in CLI_SPANS))
    frames = op["frames"]
    put("cli.output_bytes_per_frame", op["counts"].get("output_bytes", 0) / frames if frames else 0.0)
    return out


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--frames", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = parser.parse_args(argv)

    ctx = setup(args.workload, ROOT, bool(args.trace))
    ready = time.monotonic()
    # set-up is import-bound, so it is scaled by the interpreter kernel
    setup_scale = calibration.REFERENCE_S["python"] / calibration.time_kernel("python")
    op = {} if args.setup_only else perform(ctx, args.workload, args.seed, args.frames, args.workdir, True)

    import numpy

    op.update(
        ready_monotonic=ready,
        setup_scale=setup_scale,
        seed=args.seed,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
    )
    if ctx.tracer is not None:
        # spans start in list order; those of the output checks start after
        # the operation ended, so the operation's spans are a prefix
        kept = [s for s in ctx.tracer.spans if s["start"] <= op["end"]]
        op["layers"] = layer_metrics(op, kept)
        t0 = op["end"] - op["op_s"]
        op["spans"] = [dict(s, start=s["start"] - t0, end=s["end"] - t0) for s in kept]
    args.result.write_text(json.dumps(op))
    return 0


if __name__ == "__main__":
    sys.exit(main())
