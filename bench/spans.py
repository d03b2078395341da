"""In-memory spans around calls into the qkdbench layers.

The benchmark records spans from its own files: it rebinds public
functions of the package to timing wrappers and leaves ``src/``
untouched.  A span has a name, a start, an end and the index of its
parent span; spans stay in memory and are written out with the result
of the operation that produced them.

A wrapped function that the program no longer has is skipped, and the
per-layer metrics that depend on it are reported as absent.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time

#: span name -> (module, attribute path) of the function it wraps
TARGETS = {
    "config.load_config": ("qkdbench.config", "load_config"),
    "montecarlo.run": ("qkdbench.montecarlo", "run"),
    "timetag.encode": ("qkdbench.timetag", "encode"),
    "timetag.decode": ("qkdbench.timetag", "decode"),
    "timetag.AliceLog.to_csv": ("qkdbench.timetag", "AliceLog.to_csv"),
    "timetag.AliceLog.from_csv": ("qkdbench.timetag", "AliceLog.from_csv"),
    "timetag.recover_phase": ("qkdbench.timetag", "recover_phase"),
    "timetag.gate": ("qkdbench.timetag", "gate"),
    "timetag.sift": ("qkdbench.timetag", "sift"),
    "decoy.estimate_background_yield": ("qkdbench.decoy", "estimate_background_yield"),
    "decoy.decoy_estimates": ("qkdbench.decoy", "decoy_estimates"),
    "decoy.key_rate_lower_bound": ("qkdbench.decoy", "key_rate_lower_bound"),
    "decoy.sweep": ("qkdbench.decoy", "sweep"),
    "decoy.optimize_intensities": ("qkdbench.decoy", "optimize_intensities"),
    "sidechannel.synth_profiles": ("qkdbench.sidechannel", "synth_profiles"),
    "sidechannel.leakage": ("qkdbench.sidechannel", "leakage"),
    "sidechannel.leakage_adjusted_rate": ("qkdbench.sidechannel", "leakage_adjusted_rate"),
    "entropy.mi_from_profiles": ("qkdbench.entropy", "mi_from_profiles"),
}


def _montecarlo_counts(args, kwargs, result):
    return {
        "records": int(sum(result.summary.detected)),
        "dropped_records": int(result.dropped_records),
    }


def _gate_counts(args, kwargs, result):
    stream = args[0] if args else kwargs["stream"]
    return {"gate_in": len(stream), "gate_accepted": len(result.accepted)}


def _sift_counts(args, kwargs, result):
    return {"collisions": int(result.collisions)}


#: span name -> function(args, kwargs, result) -> counts recorded on the span
COUNTERS = {
    "montecarlo.run": _montecarlo_counts,
    "timetag.gate": _gate_counts,
    "timetag.sift": _sift_counts,
}


class Tracer:
    """Collects spans of one operation; nesting follows the call stack."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            if counter is not None:
                try:
                    rec["counts"] = counter(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError):
                    pass  # counts are optional; the span itself still stands
            return result

        traced.__wrapped__ = fn
        return traced


def _resolve(name: str):
    """(owner, attribute, raw attribute) of a target, or None when missing."""
    module_name, path = TARGETS[name]
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(attr)
    return None if raw is None else (owner, attr, raw)


def available(name: str) -> bool:
    return _resolve(name) is not None


def install(tracer: Tracer, names) -> list[str]:
    """Rebind each named target to a traced wrapper; return the missing names.

    A module-level function is rebound in every ``qkdbench`` module that
    imported it by name (``cli`` imports ``load_config`` directly), so
    every caller goes through the wrapper.
    """
    missing = []
    for name in names:
        found = _resolve(name)
        if found is None:
            missing.append(name)
            continue
        owner, attr, raw = found
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(tracer.wrap(name, raw.__func__)))
        elif isinstance(owner, type):
            setattr(owner, attr, tracer.wrap(name, raw))
        else:
            wrapped = tracer.wrap(name, raw)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "qkdbench":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)
    return missing


def durations(spans: list[dict]) -> dict[str, float]:
    """Total duration per span name."""
    out: dict[str, float] = {}
    for s in spans:
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"])
    return out


def self_times(spans: list[dict]) -> dict[str, float]:
    """Total self time per span name: duration minus the time children cover.

    Spans come from one thread, so a span's children never overlap and
    the time they cover is the sum of their durations.
    """
    out = durations(spans)
    for s in spans:
        if s["parent"] is not None:
            parent = spans[s["parent"]]["name"]
            out[parent] -= s["end"] - s["start"]
    return out


def counts(spans: list[dict]) -> dict[str, int]:
    """Sum of every count recorded on the spans."""
    out: dict[str, int] = {}
    for s in spans:
        for key, value in s.get("counts", {}).items():
            out[key] = out.get(key, 0) + value
    return out
