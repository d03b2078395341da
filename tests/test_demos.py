"""Every demo script runs to completion against the package in src/."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
#: sha256 of the stdout of the demos that print a fixed table
STDOUT_DIGESTS = {
    "02_attenuation_sweep.py": "cc2751442c1b240c2ce5e9394f21ba002160f61e21abace3343fc10905afb020",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if demo.name in STDOUT_DIGESTS:
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_DIGESTS[demo.name]
