"""Runs the benchmark's own smoke test (bench/smoke.py) as a tier-1 test.

It runs the tiny variant of every benchmark workload and checks each CSV
against the committed references, so a kernel change that alters output
fails here. It takes about 20 s.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_smoke_passes():
    done = subprocess.run([sys.executable, "bench/smoke.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
