"""The core's speed while a job runs, for the speed-corrected clock.

    python3 bench/speed.py RUNNER_PID   # probe loop; SIGTERM: print, exit

A shared host changes the speed of a core by up to 2x, in spells of
seconds to minutes (other tenants on the same physical core, frequency), so
raw job times spread more between runs than a change worth measuring.  The
runner therefore pins every job to one core and starts this probe on the
same core at the lowest priority (nice 19).  The scheduler slices the probe
between the job's own slices, so the probe runs at the speed the job sees
while taking about 1.5% of the core.

The probe repeats one fixed chunk of work and records, for each chunk, its
end on the system-wide monotonic clock and the CPU seconds it took.  The
mean chunk time over a job's lifetime is the core's speed during that job;
``correction`` turns it into the factor that converts the job's seconds to
reference seconds (seconds at REFERENCE_CHUNK_S per chunk).  A change to
the program does not change the probe's work, so it moves corrected times
as it moves raw ones.  One caveat: the probe shares the core's caches with
the job, so a job that churns more memory also slows the probe a little,
and the correction then hides a little of that job's slowdown.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

# CPU seconds of one chunk on the 2-core host the benchmark was tuned on
# (0.82 ms alone, 0.85-0.9 ms beside a job), so that reference seconds read
# close to seconds there; any fixed value gives the same comparisons
REFERENCE_CHUNK_S = 0.8e-3
STOP_TIMEOUT_S = 30


def chunk(np, x):
    """Interpreter-bound Fraction arithmetic, the kind of work the exact
    workloads do, then numpy array arithmetic, the kind the quadrature
    workloads do."""
    acc = Fraction(0)
    for i in range(1, 101):
        acc += Fraction(i, i * i + 1)
    for _ in range(6):
        acc += float(np.exp(x * 1.5).sum() + np.cos(x).dot(x))
    return acc


def probe(runner: int):
    """Print "ready" after a first chunk, run chunks until SIGTERM or until
    `runner` is no longer the parent, then print [[end, cpu_s], ...] as
    JSON."""
    stop = []
    signal.signal(signal.SIGTERM, lambda *_: stop.append(True))
    import numpy as np
    x = np.linspace(0.0, 1.0, 4096)
    chunk(np, x)
    print("ready", flush=True)
    samples = []
    # a runner killed outright cannot stop the probe: it stops itself
    while not stop and os.getppid() == runner:
        c0 = time.process_time()
        chunk(np, x)
        c1 = time.process_time()
        samples.append((time.monotonic(), c1 - c0))
    if stop:
        json.dump(samples, sys.stdout)


def job_cpu() -> int:
    """The core the jobs and the probe share: the last one this process may
    use, so the runner itself tends to wait on another."""
    return max(os.sched_getaffinity(0))


def pin(cpu: int, nice: int = 0):
    """preexec_fn for a child that runs on `cpu` only, at niceness `nice`."""
    def setup():
        os.sched_setaffinity(0, {cpu})
        if nice:
            os.nice(nice)
    return setup


class SpeedProbe:
    """The probe process on `cpu`; use as a context manager, which stops it
    and waits for it on every way out."""

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.samples = []
        self.proc = None

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(os.getpid())],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            preexec_fn=pin(self.cpu, nice=19))
        self.proc.stdout.readline()
        return self

    def __exit__(self, *exc):
        self.stop()
        return False

    def stop(self):
        if self.proc is None:
            return
        proc, self.proc = self.proc, None
        proc.terminate()
        try:
            out, _ = proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return
        try:
            self.samples = json.loads(out)
        except json.JSONDecodeError:
            self.samples = []

    def chunk_s(self, start: float, end: float):
        """Mean CPU seconds of the chunks that ended in [start, end], or
        None when none did."""
        inside = [cpu for t, cpu in self.samples if start <= t <= end]
        return statistics.fmean(inside) if inside else None


def correction(chunk_s) -> float:
    """Factor from seconds to reference seconds for a core whose chunk took
    chunk_s CPU seconds (1 when the probe saw no chunk, which the runner
    reports as a problem)."""
    return REFERENCE_CHUNK_S / chunk_s if chunk_s else 1.0


if __name__ == "__main__":
    probe(int(sys.argv[1]))
