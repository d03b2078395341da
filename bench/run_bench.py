"""qkdbench benchmark: one command, three workloads, correctness-checked.

    python3 bench/run_bench.py --workload roundtrip --seed 1 --seconds 30 --trace 0

Runs operations of one workload back to back, each in a fresh child
process (one closed-loop client, one operation at a time), until
``--seconds`` have passed.  Each child checks its outputs; an operation
fails when its process exits non-zero or a check fails.  Set-up-only
children between long operations add samples of the set-up time.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics, each the median over the children run.
With ``--trace 1`` operations alternate between untraced and traced
children; the traced ones give the per-layer metrics (medians) and the
pair gives ``trace.overhead_ratio``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

ROOT = HERE.parent
SCRATCH = ".bench_run"
MIN_OPS = 3
OP_TIMEOUT_S = 150.0
# An untraced run keeps at least one set-up sample per second: after an
# operation it starts set-up-only children until it has.  A roundtrip
# operation takes ~3.5 s; the ~8 set-up times of its operations alone
# made the median set-up time spread by ~10% between 30 s runs.
SETUP_INTERVAL_S = 1.0

#: per-layer metric -> unit
PER_LAYER = {
    **{name: "s" for name in workloads.LAYER_TIMES},
    "montecarlo.frames_per_s": "1/s",
    "montecarlo.records": "count",
    "montecarlo.dropped_records": "count",
    "timetag.ttag_bytes": "B",
    "timetag.alice_bytes": "B",
    "timetag.gate_accept_ratio": "ratio",
    "timetag.collisions": "count",
    "decoy.points_per_s": "1/s",
    "cli.self_s": "s",
    "cli.output_bytes_per_frame": "B/frame",
    "trace.overhead_ratio": "ratio",
}

#: what ``meta`` records of each operation; spans are relative to its start
OP_FIELDS = (
    "seed", "traced", "setup_only", "frames", "items",
    "op_s", "setup_s", "cal_s", "peak_rss_mb", "counts", "spans",
)

ITEM_NAMES = {"roundtrip": "frames", "mc-summary": "frames", "design-scan": "points"}


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("QKDBENCH_THREADS", None)
    env["OMP_NUM_THREADS"] = "1"
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def run_op(workload: str, seed: int, frames: int, trace: bool, index: int, root: Path = ROOT,
           setup_only: bool = False) -> dict:
    """Run one operation (or only its set-up) in a fresh child process."""
    workdir = root / SCRATCH / f"{os.getpid()}-{index}"
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = workdir / "result.json"
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--frames", str(frames),
        "--workdir", str(workdir), "--result", str(result_path), "--trace", str(int(trace)),
    ] + (["--setup-only"] if setup_only else [])
    op = {"seed": seed, "traced": trace, "setup_only": setup_only, "failures": []}
    try:
        with open(workdir / "stderr.txt", "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                cmd, cwd=root, env=child_env(root),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
            )
            status, rusage, timed_out = _wait(proc, OP_TIMEOUT_S)
        op["returncode"] = os.waitstatus_to_exitcode(status)
        op["peak_rss_mb"] = rusage.ru_maxrss * 1024 / 1e6  # Linux reports KiB
        if timed_out:
            op["failures"].append(f"timed out after {OP_TIMEOUT_S:g} s")
        elif op["returncode"] != 0 or not result_path.is_file():
            tail = (workdir / "stderr.txt").read_text(errors="replace").strip().splitlines()[-5:]
            op["failures"].append(f"child exited {op['returncode']}: " + " | ".join(tail))
        else:
            child = json.loads(result_path.read_text())
            op["failures"] += child.pop("failures", [])
            op.update(child)
            op["setup_s"] = child["ready_monotonic"] - spawned
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return op


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap ``proc`` with its resource usage; kill it after ``timeout`` s."""
    killed = threading.Event()

    def kill():
        killed.set()
        proc.kill()

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return status, rusage, killed.is_set()


def measure(workload: str, seed: int, seconds: float, trace: bool, frames: int | None = None,
            root: Path = ROOT) -> list[dict]:
    """Operations back to back until ``seconds`` pass; traced ones alternate.

    Set-up-only children are in the list too, marked ``setup_only``.
    """
    if frames is None:
        frames = workloads.FRAMES[workload]
    ops: list[dict] = []
    start = time.monotonic()
    min_ops = 2 * MIN_OPS if trace else MIN_OPS
    n_ops = 0
    try:
        while n_ops < min_ops or time.monotonic() - start < seconds:
            traced = trace and n_ops % 2 == 1
            ops.append(run_op(workload, seed * 1000 + n_ops, frames, traced, len(ops), root))
            n_ops += 1
            while not trace and len(ops) < min(time.monotonic() - start, seconds) / SETUP_INTERVAL_S:
                ops.append(run_op(workload, seed, 0, False, len(ops), root, setup_only=True))
    finally:
        scratch = root / SCRATCH
        if scratch.is_dir() and not any(scratch.iterdir()):
            scratch.rmdir()
    return ops


def scaled(op: dict, value: float, unit: str) -> float:
    """A time or rate of ``op`` at the reference machine speed (calibrate.py)."""
    if unit == "s":
        return value * op["scale"]
    if unit == "1/s":
        return value / op["scale"]
    return value


def summarize(ops: list[dict], trace: bool) -> dict:
    """The result object: correctness, counts and the metrics asked for."""
    good = [op for op in ops if not op["failures"]]
    plain = [op for op in good if not op["traced"] and not op["setup_only"]]
    traced = [op for op in good if op["traced"]]
    metrics: dict[str, dict] = {}

    def put(name: str, unit: str, values) -> None:
        metrics[name] = {"value": statistics.median(values), "unit": unit}

    if trace:
        if plain and traced:
            for name, unit in PER_LAYER.items():
                if all(name in op["layers"] for op in traced):
                    put(name, unit, [scaled(op, op["layers"][name], unit) for op in traced])
            ratio = statistics.median(scaled(op, op["op_s"], "s") for op in traced) / statistics.median(
                scaled(op, op["op_s"], "s") for op in plain
            )
            metrics["trace.overhead_ratio"] = {"value": ratio, "unit": PER_LAYER["trace.overhead_ratio"]}
    elif plain:
        put("items_per_s", "1/s", [scaled(op, op["items"] / op["op_s"], "1/s") for op in plain])
        put("setup_s", "s", [op["setup_s"] * op["setup_scale"] for op in good])
        put("peak_rss_mb", "MB", [op["peak_rss_mb"] for op in plain])
    failed = len(ops) - len(good)
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def source_id(root: Path) -> str:
    """The git commit when the checkout is a repository, else a digest of src/."""
    if (root / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            )
            return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def report(workload: str, seed: int, ops: list[dict], result: dict, root: Path = ROOT) -> list[str]:
    """Human-readable lines, then the run's metadata as one JSON line."""
    n_setup = sum(op["setup_only"] for op in ops)
    lines = [
        f"workload = {workload}, seed = {seed}, "
        f"operations = {len(ops) - n_setup} (+ {n_setup} set-up-only children)"
    ]
    for op in ops:
        for failure in op["failures"]:
            lines.append(f"FAILED seed {op['seed']}: {failure}")
    lines.append(f"failed_ratio = {result['failed']}/{result['attempted']} children")
    plain = [op for op in ops if not op["failures"] and not op["traced"] and not op["setup_only"]]
    if plain:
        raw = sorted(op["items"] / op["op_s"] for op in plain)
        lines.append(
            f"{ITEM_NAMES[workload]}_per_s = {statistics.median(raw):.6g} wall-clock, "
            f"median of {len(raw)} operations (min {raw[0]:.6g}, max {raw[-1]:.6g}); "
            f"machine speed {statistics.median(1 / op['scale'] for op in plain):.3f} of reference"
        )
    for name, m in result["metrics"].items():
        lines.append(f"{name} = {m['value']:.6g} {m['unit']}")
    first = next((op for op in ops if "python" in op), {})
    meta = {
        "workload": workload,
        "seed": seed,
        "source": source_id(root),
        "python": first.get("python", platform.python_version()),
        "numpy": first.get("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
        "ops": [{k: op[k] for k in OP_FIELDS if k in op} for op in ops],
    }
    lines.append("meta = " + json.dumps(meta))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/qkdbench/__init__.py", workloads.CONFIG) if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a qkdbench checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    ops = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result = summarize(ops, bool(args.trace))
    for line in report(args.workload, args.seed, ops, result):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
