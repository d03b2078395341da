"""Smoke test of the benchmark at tiny sizes.

    PYTHONPATH=src python -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run_bench
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
TINY_FRAMES = {"roundtrip": 200_000, "mc-summary": 200_000, "design-scan": 0}
#: per-layer metrics each workload must move off zero
OWN_LAYERS = {
    "roundtrip": ("cli.simulate_s", "timetag.alice_write_s", "timetag.sift_s", "montecarlo.records",
                  "timetag.ttag_bytes", "cli.output_bytes_per_frame", "timetag.gate_accept_ratio"),
    "mc-summary": ("montecarlo.run_s", "montecarlo.frames_per_s", "montecarlo.records"),
    "design-scan": ("decoy.sweep_s", "decoy.optimize_s", "decoy.points_per_s", "sidechannel.leakage_s",
                    "entropy.mi_s"),
}


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_emitted_with_unit(workload, trace):
    ops = run_bench.measure(workload, seed=1, seconds=0, trace=bool(trace), frames=TINY_FRAMES[workload])
    result = run_bench.summarize(ops, bool(trace))

    assert result["correct"], [op["failures"] for op in ops]
    assert result["failed"] == 0 and result["attempted"] == len(ops) >= run_bench.MIN_OPS
    expected = declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert all(result["metrics"][name]["value"] > 0 for name in OWN_LAYERS[workload])
    assert not (ROOT / run_bench.SCRATCH).exists()


def test_missing_function_leaves_its_metrics_absent(monkeypatch):
    workloads.setup("roundtrip")
    monkeypatch.setitem(spans.TARGETS, "timetag.gate", ("qkdbench.timetag", "gate_removed"))
    assert spans.install(spans.Tracer(), ["timetag.gate"]) == ["timetag.gate"]

    layers = workloads.layer_metrics({"frames": 10, "counts": {}}, [])
    assert "timetag.gate_s" not in layers and "timetag.gate_accept_ratio" not in layers
    assert layers["timetag.sift_s"] == 0.0 and layers["timetag.collisions"] == 0


def test_setup_only_children_fill_long_operations(monkeypatch):
    monkeypatch.setattr(run_bench, "SETUP_INTERVAL_S", 0.1)
    ops = run_bench.measure("design-scan", seed=2, seconds=1.0, trace=False)
    result = run_bench.summarize(ops, trace=False)

    probes = [op for op in ops if op["setup_only"]]
    assert probes and len(ops) >= 10
    assert all("items" not in op and op["setup_s"] > 0 for op in probes)
    assert result["correct"] and result["attempted"] == len(ops)


def _rewrite_rate(path: Path, value: str) -> None:
    lines = [
        f"lbskr_bps = {value}" if line.startswith("lbskr_bps") else line
        for line in path.read_text().splitlines()
    ]
    path.write_text("\n".join(lines) + "\n")


CORRUPTIONS = {
    "negative rate": lambda out: _rewrite_rate(out, "-1.0"),
    "rate 10x too high": lambda out: _rewrite_rate(out, "9.3e6"),
    "truncated output": lambda out: out.write_text("q_mu = 0.04\n"),
}


@pytest.mark.parametrize("corruption", CORRUPTIONS)
def test_corrupted_analysis_counts_as_failed(corruption, tmp_path, monkeypatch):
    from qkdbench import cli

    ctx = workloads.setup("roundtrip")
    original = cli.cmd_analyze_ttags

    def corrupted(args):
        rc = original(args)
        CORRUPTIONS[corruption](Path(args.out))
        return rc

    monkeypatch.setattr(cli, "cmd_analyze_ttags", corrupted)
    op = workloads.perform(ctx, "roundtrip", seed=3, frames=TINY_FRAMES["roundtrip"], workdir=tmp_path)
    op["traced"] = False

    assert op["failures"]
    result = run_bench.summarize([op], trace=False)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)


def test_failed_analysis_exit_counts_as_failed(tmp_path, monkeypatch):
    from qkdbench import cli

    ctx = workloads.setup("roundtrip")
    monkeypatch.setattr(cli, "cmd_analyze_ttags", lambda args: cli.EXIT_IO)
    op = workloads.perform(ctx, "roundtrip", seed=3, frames=TINY_FRAMES["roundtrip"], workdir=tmp_path)
    assert any("analyze-ttags exited 3" in f for f in op["failures"])


def test_gain_check_uses_simulator_expectation():
    ctx = workloads.setup("mc-summary")
    frames = 10_000_000
    sent = [8_000_000, 1_500_000, 500_000]
    exact = [round(q * n) for q, n in zip(workloads.expected_gains(ctx), sent)]
    assert workloads.check_gains(ctx, sent, exact, frames) == []

    # six standard deviations off on the signal class
    sigma = (exact[0] * (1 - exact[0] / sent[0])) ** 0.5
    biased = [exact[0] + round(6 * sigma)] + exact[1:]
    assert workloads.check_gains(ctx, sent, biased, frames)
