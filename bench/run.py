"""The omegalab benchmark: four closed-loop workloads, every output checked.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--label LABEL]

Run from the root of a checkout.  For --seconds seconds the runner starts
one job after another, each in a fresh interpreter (bench/job.py), one
process and one thread at a time, all on one core; each job times the
workload's fixed job after import and input generation, then checks every
output.  Times are read on the speed-corrected clock (bench/speed.py): a
probe at the lowest priority on the jobs' core measures the core's speed
during each job, and the job's seconds are scaled to reference seconds
(ho-sweep-n3, which does not follow the probe, keeps the raw clock).
With --trace 0 it prints the end-to-end metrics; with --trace 1 it
alternates untraced and traced jobs and prints the per-layer metrics, the
tracing overhead and the self-time split.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

Each run also writes a labelled JSON record (environment, core speed,
every sample, raw and corrected) to
bench/out/last-<workload>-trace<0|1>.json; --workload all
runs every workload untraced and traced and, with --label, writes
bench/results/BENCH_<label>.json.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_CHUNK_S, SpeedProbe, correction, job_cpu, pin

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
RESULTS = BENCH / "results"
JOB = BENCH / "job.py"

WORKLOADS = ("exact-sweeps", "expand-cold", "ho-sweep-n3", "ho-eval-n4")
OP_NAMES = {"exact-sweeps": "probes", "expand-cold": "expansions",
            "ho-sweep-n3": "probes", "ho-eval-n4": "evaluations"}
END_TO_END = (("ops_per_s", "ops/s"), ("wall_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB"))
# the workloads whose job time follows the speed probe, so their times are
# read on the speed-corrected clock; ho-sweep-n3's batched numpy quadrature
# barely slows when the probe does, so it keeps the raw clock (README, "The
# speed-corrected clock")
CORRECTED = ("exact-sweeps", "expand-cold", "ho-eval-n4")

# set-up repeats for the exact-sweeps cache fill, and the fewest untraced
# (and, with --trace 1, traced) jobs a run makes however short --seconds is
FILLS = 3
MIN_JOBS = 3
MIN_TRACED_JOBS = 2
JOB_TIMEOUT_S = 120


def layer_unit(name: str) -> str:
    if name.endswith("_s") or ".self_s" in name:
        return "s"
    if name.endswith(("_ratio", "_share", "coverage", "max_rel_err")):
        return "ratio"
    if name.endswith("max_err_estimate"):
        return "abs"
    if name == "heckman_opdam.nodes":
        return "nodes-computed"
    return "count"


def git_commit() -> str:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode or len(lines) != 2 or Path(lines[0]) != ROOT:
        return "unknown"
    return lines[1]


def environment(numpy_version: str) -> dict:
    return {"python": platform.python_version(), "numpy": numpy_version,
            "commit": git_commit(), "nproc": os.cpu_count(),
            "platform": platform.platform()}


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


# one thread per job: no native thread pool competes with the job
JOB_ENV = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


def fill_cache(path: Path, cpu: int) -> dict:
    """Run the cache fill in its own process on `cpu`; its window on the
    monotonic clock."""
    start = time.monotonic()
    subprocess.run([sys.executable, str(JOB), "--fill", str(path)],
                   cwd=ROOT, check=True, timeout=JOB_TIMEOUT_S, env=JOB_ENV,
                   stdout=subprocess.DEVNULL, preexec_fn=pin(cpu))
    return {"start": start, "end": time.monotonic()}


def run_job(workload, seed, sample, traced, cache, cpu) -> dict:
    """One job in a fresh interpreter on `cpu`; adds setup_s, the seconds
    from process start until the job's inputs were ready, and the job's
    window on the monotonic clock."""
    cmd = [sys.executable, str(JOB), "--workload", workload, "--seed",
           str(seed), "--sample", str(sample), "--cache", str(cache)]
    if traced:
        cmd.append("--trace")
    start = time.monotonic()
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S, env=JOB_ENV,
                              preexec_fn=pin(cpu))
    except subprocess.TimeoutExpired:
        return {"error": f"job timed out after {JOB_TIMEOUT_S} s"}
    end = time.monotonic()
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if done.returncode or "error" in result:
        sys.stderr.write(done.stderr)
        return {"error": result.get("error")
                or f"job exited with code {done.returncode}"}
    result["setup_s"] = result.pop("ready") - start
    result.update(start=start, end=end)
    return result


def correct_times(job: dict, probe: SpeedProbe, problems: list,
                  corrected: bool):
    """Scale the job's times to reference seconds by the core's speed during
    the job, when the workload is `corrected`; the raw values stay under
    raw_*."""
    chunk_s = probe.chunk_s(job["start"], job["end"])
    if chunk_s is None:
        problems.append("the speed probe ran no chunk during a job")
    job["chunk_s"] = chunk_s
    job["factor"] = factor = correction(chunk_s) if corrected else 1.0
    for key in ("wall_s", "setup_s"):
        job["raw_" + key] = job[key]
        job[key] *= factor
    if "times" in job:
        job["times"] = {name: value * factor if layer_unit(name) == "s"
                        else value for name, value in job["times"].items()}
        job["split"] = {name: value * factor
                        for name, value in job["split"].items()}


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Jobs back to back for `seconds`; returns the run's record."""
    OUT.mkdir(parents=True, exist_ok=True)
    cpu = job_cpu()
    with SpeedProbe(cpu) as probe:
        problems, fills, jobs = timed_jobs(workload, seed, seconds, trace,
                                           cpu)
    bad_fill = bool(problems)
    for fill in fills:
        fill["chunk_s"] = chunk_s = probe.chunk_s(fill["start"], fill["end"])
        if chunk_s is None:
            problems.append("the speed probe ran no chunk during a fill")
        fill["raw_s"] = fill["end"] - fill["start"]
        fill["s"] = fill["raw_s"] * (correction(chunk_s)
                                     if workload in CORRECTED else 1.0)

    attempted = failed = 0
    for job in jobs:
        if "error" in job:
            problems.append(job["error"])
            continue
        correct_times(job, probe, problems, workload in CORRECTED)
        attempted += job["ops"]
        failed += job["failed"]
        problems += job["problems"]
    ok_jobs = [j for j in jobs if "error" not in j]
    if len(ok_jobs) < len(jobs):
        # a job that crashed failed every operation of its fixed job
        per_job = max((j["ops"] for j in ok_jobs), default=1)
        attempted += per_job * (len(jobs) - len(ok_jobs))
        failed += per_job * (len(jobs) - len(ok_jobs))
    if bad_fill:
        # every probe read expansions from a cache that is not the reference
        failed = attempted
    chunks = [j["chunk_s"] for j in ok_jobs if j["chunk_s"]]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "op": OP_NAMES[workload],
        "environment": environment(next(
            (j["numpy"] for j in ok_jobs), "unknown")),
        "cpu": cpu,
        "clock": "corrected" if workload in CORRECTED else "raw",
        "chunk_s": statistics.median(chunks) if chunks else None,
        "fills": fills,
        "jobs": jobs,
        "attempted": max(attempted, 1), "failed": failed,
        "problems": problems,
    }
    plain = [j for j in ok_jobs if not j["traced"]]
    traced_jobs = [j for j in ok_jobs if j["traced"]]
    if plain:
        record["end_to_end"] = end_to_end(plain, fills)
    if trace and traced_jobs and plain:
        record["per_layer"], record["split"] = per_layer(traced_jobs, plain,
                                                         problems)
    record["correct"] = not problems and failed == 0 and bool(plain) \
        and (not trace or bool(traced_jobs))
    return record


def timed_jobs(workload, seed, seconds, trace, cpu):
    """The cache fills (exact-sweeps only), then jobs back to back for
    `seconds`, all on `cpu`; returns (problems, fills, jobs)."""
    problems = []
    fills = []
    cache = OUT / f"{workload}.cache"
    if workload == "exact-sweeps":
        from job import cache_digest, load_references
        expected = load_references()["exact-sweeps"]["fill"]
        for i in range(FILLS):
            try:
                fills.append(fill_cache(cache, cpu))
            except (subprocess.CalledProcessError,
                    subprocess.TimeoutExpired) as exc:
                problems.append(f"cache fill {i}: {exc}")
                continue
            if cache_digest(cache) != expected:
                problems.append(f"cache fill {i}: records differ from the "
                                f"reference")

    jobs = []
    start = time.monotonic()
    while True:
        traced = trace and len(jobs) % 2 == 1
        job = run_job(workload, seed, len(jobs), traced, cache, cpu)
        job["traced"] = traced
        jobs.append(job)
        traced_count = sum(j["traced"] for j in jobs)
        if trace:
            done = min(traced_count, len(jobs) - traced_count) \
                >= MIN_TRACED_JOBS
        else:
            done = len(jobs) >= MIN_JOBS
        if done and time.monotonic() - start >= seconds:
            break
    return problems, fills, jobs


def end_to_end(jobs: list, fills: list) -> dict:
    """Medians over jobs on the corrected clock; time metrics also carry
    the median on the raw clock."""
    metrics = {
        "ops_per_s": [j["ops"] / j["wall_s"] for j in jobs],
        "wall_s": [j["wall_s"] for j in jobs],
        "setup_s": [j["setup_s"] for j in jobs],
        "peak_rss_mb": [j["peak_rss_mb"] for j in jobs]}
    raw = {
        "ops_per_s": [j["ops"] / j["raw_wall_s"] for j in jobs],
        "wall_s": [j["raw_wall_s"] for j in jobs],
        "setup_s": [j["raw_setup_s"] for j in jobs]}
    out = {}
    for name, unit in END_TO_END:
        q1, med, q3 = quartiles(metrics[name])
        out[name] = {"value": med, "unit": unit, "q1": q1, "q3": q3,
                     "samples": len(metrics[name])}
        if name in raw:
            out[name]["raw"] = statistics.median(raw[name])
    if fills:
        # the workload that reads a cache also pays for filling it
        setup = out["setup_s"]
        setup["value"] += statistics.median(f["s"] for f in fills)
        setup["raw"] += statistics.median(f["raw_s"] for f in fills)
        setup["fill_samples"] = len(fills)
        del setup["q1"], setup["q3"]
    return out


def per_layer(traced: list, plain: list, problems: list):
    """Counts from the first traced job (every traced job must repeat them
    exactly), times as medians over traced jobs, overhead against the
    untraced jobs of the same run."""
    counts = traced[0]["counts"]
    for job in traced[1:]:
        if job["counts"] != counts:
            differing = sorted(k for k in counts
                               if job["counts"].get(k) != counts[k])
            problems.append(f"traced jobs disagree on counts: {differing}")
    metrics = dict(counts)
    for name in traced[0]["times"]:
        metrics[name] = statistics.median(j["times"][name] for j in traced)
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - statistics.median(j["wall_s"]
                                                       for j in plain))
    split = {name: statistics.median(j["split"].get(name, 0.0)
                                     for j in traced)
             for name in traced[0]["split"]}
    return metrics, split


def print_record(record: dict):
    w = record["workload"]
    print(f"{w}: seed {record['seed']}, {record['seconds']} s, trace "
          f"{record['trace']}, {len(record['jobs'])} jobs, 1 process and 1 "
          f"thread, closed loop")
    if record["clock"] == "corrected":
        print("  times on the speed-corrected clock (reference seconds); raw "
              "seconds in brackets")
    else:
        print("  times on the raw clock (this workload does not follow the "
              "speed probe)")
    for name, m in record.get("end_to_end", {}).items():
        unit = (f"{record['op']}/s" if name == "ops_per_s" else m["unit"])
        spread = (f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}" if "q1" in m
                  else f"  (fills n={m['fill_samples']})")
        raw = (f"  [raw {m['raw']:.6g}]"
               if "raw" in m and record["clock"] == "corrected" else "")
        print(f"  {name:<12} {m['value']:.6g} {unit}{spread}  "
              f"n={m['samples']}{raw}")
    rate = record["failed"] / record["attempted"]
    print(f"  {'error_rate':<12} {rate:.6g}  ({record['failed']} of "
          f"{record['attempted']} {record['op']} failed)")
    if record["chunk_s"]:
        print(f"  core speed   {1e3 * record['chunk_s']:.6g} ms per probe "
              f"chunk on cpu {record['cpu']} (median over jobs; reference "
              f"{1e3 * REFERENCE_CHUNK_S:g} ms)")
    if "per_layer" in record:
        wall = record["per_layer"]["trace.wall_s"]
        print("  self time by span (median over traced jobs):")
        for name, t in sorted(record["split"].items(), key=lambda kv: -kv[1]):
            if t > 0:
                print(f"    {name:<36} {t:9.4f} s  {100 * t / wall:5.1f}%")
        for name, value in record["per_layer"].items():
            print(f"  {name:<40} {value:.6g} {layer_unit(name)}")
    for problem in record["problems"][:20]:
        print(f"  FAILED: {problem}")


def result_line(record: dict) -> str:
    if record["trace"]:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in record.get("per_layer", {}).items()}
    else:
        metrics = {name: {"value": m["value"], "unit": m["unit"]}
                   for name, m in record.get("end_to_end", {}).items()}
    return json.dumps({"correct": record["correct"],
                       "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="omegalab benchmark: four closed-loop workloads")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", help="write bench/results/BENCH_<label>.json "
                                        "(with --workload all)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "omegalab" / "__init__.py").is_file():
        print(f"error: no omegalab sources under {ROOT / 'src'}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))

    if args.workload == "all":
        records = []
        for workload in WORKLOADS:
            for trace in (False, True):
                record = run_workload(workload, args.seed, args.seconds,
                                      trace)
                print_record(record)
                records.append(record)
        if args.label:
            RESULTS.mkdir(parents=True, exist_ok=True)
            path = RESULTS / f"BENCH_{args.label}.json"
            path.write_text(json.dumps({"label": args.label,
                                        "records": records}, indent=1)
                            + "\n", encoding="utf-8")
            print(f"wrote {path.relative_to(ROOT)}")
        return 0 if all(r["correct"] for r in records) else 1

    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    path = OUT / f"last-{args.workload}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print_record(record)
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
