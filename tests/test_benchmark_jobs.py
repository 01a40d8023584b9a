"""Each benchmark workload runs once, untraced, and passes its own checks.

bench/job.py checks every output of a timed job against the recorded
references (report digests, value digests, probe counts, quadrature bands)
and prints the failures.  Running each job here means a change that trips
those checks fails the test suite, before a benchmark run finds it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
JOB = BENCH / "job.py"
ENV = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1",
           OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")


def bench_files():
    return sorted((str(p), p.stat().st_mtime_ns) for p in BENCH.rglob("*"))


def job(*args):
    done = subprocess.run([sys.executable, str(JOB), *map(str, args)],
                          cwd=ROOT, env=ENV, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


@pytest.mark.parametrize("workload", ["exact-sweeps", "expand-cold",
                                      "ho-sweep-n3", "ho-eval-n4"])
def test_workload_passes_its_checks(workload, tmp_path):
    before = bench_files()
    cache = tmp_path / "job.cache"
    if workload == "exact-sweeps":
        job("--fill", cache)
    result = json.loads(job("--workload", workload, "--seed", 5,
                            "--cache", cache).splitlines()[-1])
    assert result["ops"] > 0
    assert result["failed"] == 0 and result["problems"] == [], result
    assert bench_files() == before
