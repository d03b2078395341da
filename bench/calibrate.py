"""Machine-speed calibration kernels.

The machine this benchmark was defined on, a 2-vCPU Xeon (2.1 GHz) VM
shared with other tenants, changes speed by 20-40% over tens of seconds,
the same for every process on it.  Wall times of consecutive 20 s runs
of one workload spread by 15-25% (IQR over median), far wider than any
useful regression bound.  So each child times a fixed kernel right
before and right after its operation, and every time the benchmark
reports is scaled by REFERENCE_S / kernel time: the time the operation
would take at the reference speed.

The kernels use neither qkdbench nor any file, so no change to the
program moves them.  Interpreter-bound and array-bound code slow down
differently, so each workload is scaled by the kernel that resembles
it; with that, the spread over ten 30 s runs fell to 2-5% on this
machine.
"""

from __future__ import annotations

import math
import time

#: kernel seconds at the reference speed: the medians, inside benchmark
#: children, on the 2-vCPU Xeon (2.1 GHz) VM where the kernels were tuned
REFERENCE_S = {"python": 0.054, "numpy": 0.074}


def python_kernel() -> None:
    """Interpreter-bound: float math, string formatting, dict updates."""
    table: dict[str, float] = {}
    rows = []
    for i in range(40_000):
        x = math.exp(-i * 1e-5) * (i % 7 + 0.5)
        key = str(i % 997)
        table[key] = table.get(key, 0.0) + x
        rows.append(f"{i},{i & 1},{key}")
    ",".join(rows).split(",")


def numpy_kernel() -> None:
    """Array-bound: Poisson draws and element-wise passes over 8 MB arrays."""
    import numpy as np

    rng = np.random.default_rng(0)
    x = rng.random(1 << 20)
    counts = rng.poisson(x)
    y = np.exp(-x) * counts
    np.bincount(counts, minlength=3)
    np.sort(y)


KERNELS = {"python": python_kernel, "numpy": numpy_kernel}


def time_kernel(name: str) -> float:
    start = time.perf_counter()
    KERNELS[name]()
    return time.perf_counter() - start
