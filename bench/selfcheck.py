"""Tracer self-check: counts repeat exactly and match an independent counter.

    python3 bench/selfcheck.py

Runs a small input of every workload's kind (exact sweeps reading a cache,
expansions missing it, a lattice-only hunt, an HO sweep and a direct n=4
``ho_eval``) twice, each time in a fresh interpreter with the tracer
installed and ``cProfile`` enabled.  cProfile counts calls of the original
functions by their code objects, independently of the wrappers.  The check
fails (exit 1) unless both traced runs give identical counts and every
traced count equals the number of calls cProfile saw.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction

from job import OUT, import_omegalab

THETA = Fraction(1, 2)
Q, T = Fraction(1, 2), Fraction(1, 3)
N, WEIGHT = 3, 4

# traced count -> (source file, function) whose cProfile call count it must
# equal; for the generator enumerate_pairs cProfile counts every resumption,
# which is one per pair plus the final one per call
PROFILE_MATCH = {
    "sympoly.poly_eval.calls": ("sympoly.py", "poly_eval"),
    "jack.omega_eval.calls": ("jack.py", "omega_jack_eval"),
    "macdonald.omega_eval.calls": ("macdonald.py", "omega_mac_eval"),
    "jack.expand.calls": ("jack.py", "jack_expand"),
    "macdonald.expand.calls": ("macdonald.py", "macdonald_expand"),
    "jack.rows.built": ("jack.py", "_apply_jack_op"),
    "macdonald.rows.built": ("macdonald.py", "_apply_macdonald_op"),
    "eigensolve.solves": ("eigensolve.py", "solve_eigen_expansion"),
    "cache.fetch.calls": ("cache.py", "fetch"),
    "cache.put.calls": ("cache.py", "put"),
    "cache.misses": ("cache.py", "put"),
    "heckman_opdam.ho_eval.calls": ("heckman_opdam.py", "ho_eval"),
    "heckman_opdam.ho_error_estimate.calls":
        ("heckman_opdam.py", "ho_error_estimate"),
    "partitions.pairs+calls": ("partitions.py", "enumerate_pairs"),
}


def fill(path):
    ol = import_omegalab()
    from omegalab.partitions import partitions_of
    ol.activate(ol.ExpansionCache(path))
    mp = ol.MacdonaldParams(Q, T, N)
    for w in range(WEIGHT + 1):
        for lam in partitions_of(w, N):
            ol.jack_expand(lam, THETA)
            ol.macdonald_expand(lam, mp)
    ol.activate(None)


def small_job(ol):
    """Every layer once, on inputs small enough for a quick check."""
    mp = ol.MacdonaldParams(Q, T, N)
    ol.check_schur_convexity("jack", N, WEIGHT, samples=3, seed=1,
                             theta=THETA)
    ol.jack_expand((4, 1, 0), THETA)            # not in the cache: a miss
    ol.check_log_convexity("macdonald-lattice", N, WEIGHT, q=Q, t=T,
                           label_bound=1)
    ol.hunt_violation(Q, T, n=N, max_weight=WEIGHT, lattice_only=True,
                      label_bound=1)
    ol.macdonald_expand((3, 2, 0), mp)          # a miss
    cfg = ol.QuadratureConfig(4)
    ol.check_schur_convexity("heckman-opdam", N, 2, samples=1, seed=1,
                             k=0.5, cfg=cfg)
    params = ol.HOParams(2, 4)
    ol.ho_eval(params, (2.0, 1.0, 0.0, -1.0), (0.6, 0.2, -0.1, -0.7), cfg)


def traced(cache_copy) -> dict:
    import cProfile
    import pstats
    import time

    from tracer import Tracer, layer_metrics
    ol = import_omegalab()
    tracer = Tracer("selfcheck")
    tracer.install(ol)
    profile = cProfile.Profile()
    start = time.perf_counter()
    profile.enable()
    ol.activate(ol.ExpansionCache(cache_copy))
    small_job(ol)
    ol.activate(None)
    profile.disable()
    wall = time.perf_counter() - start
    tracer.uninstall()
    counts, _, _ = layer_metrics(tracer, wall, [], [])
    seen = {}
    for (path, _, func), row in pstats.Stats(profile).stats.items():
        for file, name in PROFILE_MATCH.values():
            if func == name and path.endswith(f"omegalab/{file}"):
                seen[f"{file}:{name}"] = row[1]
    return {"counts": counts, "profile": seen}


def main(argv) -> int:
    if len(argv) == 3 and argv[1] == "--fill":
        fill(argv[2])
        return 0
    if len(argv) == 3 and argv[1] == "--traced":
        print(json.dumps(traced(argv[2])))
        return 0

    OUT.mkdir(parents=True, exist_ok=True)
    base = OUT / "selfcheck.cache"
    base.unlink(missing_ok=True)
    subprocess.run([sys.executable, __file__, "--fill", str(base)],
                   check=True)
    runs = []
    for i in range(2):
        copy = OUT / f"selfcheck-{i}.cache"
        shutil.copyfile(base, copy)
        done = subprocess.run([sys.executable, __file__, "--traced",
                               str(copy)], check=True, capture_output=True,
                              text=True)
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]))

    problems = []
    first, second = runs[0]["counts"], runs[1]["counts"]
    for name in first:
        if first[name] != second[name]:
            problems.append(f"{name}: {first[name]} then {second[name]}")
    for run in runs:
        counts = dict(run["counts"])
        counts["partitions.pairs+calls"] = (
            counts["partitions.pairs"]
            + counts["partitions.enumerate_pairs.calls"])
        for name, (file, func) in PROFILE_MATCH.items():
            expected = run["profile"].get(f"{file}:{func}", 0)
            if counts[name] != expected:
                problems.append(f"{name}: traced {counts[name]}, cProfile "
                                f"saw {expected} calls of {func}")
    for name, value in first.items():
        print(f"{name:<40} {value}")
    if problems:
        for problem in problems:
            print(f"FAILED: {problem}")
        return 1
    print(f"selfcheck passed: 2 traced runs repeat {len(first)} counts; "
          f"{len(PROFILE_MATCH)} match cProfile")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
