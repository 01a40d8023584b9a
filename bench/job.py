"""One timed run of one workload, in a fresh interpreter.

    python3 bench/job.py --workload NAME --seed N [--trace] [--cache PATH]
    python3 bench/job.py --fill PATH

A run imports omegalab from the checkout's ``src/``, builds the workload's
inputs from the seed, times the workload's fixed job, and only then checks
every output.  It prints one JSON line with the timings, the operation
counts, the failures and, when traced, the per-layer metrics.  Starting a
fresh interpreter per run means the package's module memos and quadrature
tables start cold without the benchmark reading or clearing private state.

``--fill`` writes the expansion cache that the exact-sweeps job reads; the
benchmark runs it as a set-up process of its own.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
OUT = BENCH / "out"
REFERENCES = BENCH / "references.json"

# exact-sweeps: Jack order sweeps over criterion 03's finite nonzero
# parameters, then the Macdonald-lattice sweeps and a lattice-only hunt
JACK_THETAS = (Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2),
               Fraction(5))
JACK_N, JACK_WEIGHT, JACK_SAMPLES = 4, 6, 10
LATTICE_N, LATTICE_WEIGHT, LATTICE_LABELS = 4, 6, 2
MAC_Q, MAC_T = Fraction(1, 2), Fraction(1, 3)
# the Jack sample points, and so the recorded reports, are one of this many
# variants; the variant is the seed modulo this number
REFERENCE_VARIANTS = 32

# expand-cold
COLD_JACK_N, COLD_JACK_WEIGHT, COLD_THETA = 5, 8, Fraction(2, 3)
COLD_MAC_N, COLD_MAC_WEIGHT = 4, 7

# ho-sweep-n3 and ho-eval-n4
HO_SWEEP_N, HO_SWEEP_WEIGHT, HO_SWEEP_SAMPLES, HO_SWEEP_NODES = 3, 3, 2, 24
HO_SWEEP_KS = (0.5, 2.0)
HO_EVAL_N, HO_EVAL_NODES = 4, 8
HO_EVAL_KS = (0.5, 1.0, 2.0)
HO_EVAL_SHAPES = ((2, 1, 0, 0), (1, 1, 0, 0))
# criterion 09's bands: relative gap to the exact Jack side
HO_BAND_HALF, HO_BAND_INT = 1e-3, 1e-6

WORKLOADS = ("exact-sweeps", "expand-cold", "ho-sweep-n3", "ho-eval-n4")


def import_omegalab():
    """The package from this checkout's src/, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import omegalab
    if Path(omegalab.__file__).resolve().parent != src / "omegalab":
        raise ImportError(f"omegalab imported from {omegalab.__file__}, "
                          f"not from {src}")
    return omegalab


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digest(report) -> str:
    """sha256 of a sweep report's JSON with the timing field removed."""
    body = dict(report.to_json())
    del body["elapsed_ms"]
    return digest(json.dumps(body))


def cache_digest(path) -> str:
    """sha256 of a cache file's records in sorted order, header excluded."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return digest("\n".join(sorted(line for line in lines[1:] if line)))


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def band(k: float) -> float:
    return HO_BAND_HALF if k < 1 else HO_BAND_INT


def sweep_summary(report, per_probe: int) -> dict:
    """Probe counts of one sweep; per_probe shape values per probe."""
    probes = report.pairs_checked * report.samples
    return {"probes": probes, "skipped": report.skipped,
            "near_misses": report.near_misses,
            "requested": per_probe * (probes - report.skipped)}


class Outcome:
    """What a job hands to its checks: ops attempted, sweep summaries, and
    the values to verify."""

    def __init__(self):
        self.ops = 0
        self.reports = []       # sweep_summary dicts, for the lab metrics
        self.values = {}        # workload-specific outputs
        self.failed = 0
        self.problems = []
        self.rel_errs = []

    def fail(self, count: int, problem: str):
        self.failed += count
        self.problems.append(problem)


# -- exact-sweeps --------------------------------------------------------------

def fill_cache(ol, path):
    """Every expansion the exact-sweeps job reads, written to a new cache."""
    from omegalab.partitions import partitions_of
    if os.path.exists(path):
        os.remove(path)
    ol.activate(ol.ExpansionCache(path))
    for theta in JACK_THETAS:
        for w in range(JACK_WEIGHT + 1):
            for lam in partitions_of(w, JACK_N):
                ol.jack_expand(lam, theta)
    mp = ol.MacdonaldParams(MAC_Q, MAC_T, LATTICE_N)
    for w in range(LATTICE_WEIGHT + 1):
        for lam in partitions_of(w, LATTICE_N):
            ol.macdonald_expand(lam, mp)
    ol.activate(None)


def inputs_exact(seed):
    return {"variant": seed % REFERENCE_VARIANTS}


def run_exact(ol, inp, out: Outcome, cache_path):
    ol.activate(ol.ExpansionCache(cache_path))
    try:
        reports = {}
        for theta in JACK_THETAS:
            reports[f"jack theta={theta}"] = (ol.check_schur_convexity(
                "jack", JACK_N, JACK_WEIGHT, samples=JACK_SAMPLES,
                seed=inp["variant"], theta=theta), 2)
        lattice = dict(q=MAC_Q, t=MAC_T, label_bound=LATTICE_LABELS)
        reports["lattice order"] = (ol.check_schur_convexity(
            "macdonald-lattice", LATTICE_N, LATTICE_WEIGHT, **lattice), 2)
        reports["lattice logconvex"] = (ol.check_log_convexity(
            "macdonald-lattice", LATTICE_N, LATTICE_WEIGHT, **lattice), 3)
        witness, probes = ol.hunt_violation(
            MAC_Q, MAC_T, n=LATTICE_N, max_weight=LATTICE_WEIGHT,
            lattice_only=True, label_bound=LATTICE_LABELS)
    finally:
        ol.activate(None)
    out.values = {"reports": reports, "witness": witness, "probes": probes}
    for report, per_probe in reports.values():
        out.reports.append(sweep_summary(report, per_probe))
    out.reports.append({"probes": probes, "skipped": 0, "near_misses": 0,
                        "requested": 2 * probes})
    out.ops = sum(r["probes"] - r["skipped"] for r in out.reports)


def exact_values(ol, variant) -> dict:
    """sha256 of exact family values, computed after the timed section:
    every Jack shape of the sweeps at the variant's first sample point for
    each theta, and every lattice shape at three lattice points.  Sweep
    reports carry no values, so this is what pins the evaluation itself."""
    from omegalab.partitions import partitions_of
    shapes = [lam for w in range(JACK_WEIGHT + 1)
              for lam in partitions_of(w, JACK_N)]
    x = tuple(sorted(ol.RationalSampler(variant, 0, 10).point(0, JACK_N),
                     reverse=True))
    jack = [ol.omega_jack_eval(lam, theta, x)
            for theta in JACK_THETAS for lam in shapes]
    mp = ol.MacdonaldParams(MAC_Q, MAC_T, LATTICE_N)
    lattice = [ol.omega_mac_eval(lam, mp, ol.lattice_point(label, mp).coords)
               for label in ((0, 0, 0, 0), (1, 0, 0, 0), (2, 2, 1, 0))
               for lam in shapes]
    return {"jack values": digest(" ".join(map(str, jack))),
            "lattice values": digest(" ".join(map(str, lattice)))}


def check_exact(ol, inp, out: Outcome, refs):
    ref = refs["exact-sweeps"]
    jack_refs = ref["jack"][str(inp["variant"])]
    values = exact_values(ol, inp["variant"])
    for name, (report, _) in out.values["reports"].items():
        probes = report.pairs_checked * report.samples
        if report.violations:
            out.fail(len(report.violations),
                     f"{name}: {len(report.violations)} violations")
        expected = (jack_refs[name] if name.startswith("jack")
                    else ref[name])
        if report_digest(report) != expected:
            out.fail(probes, f"{name}: report differs from the reference")
        family = "jack" if name.startswith("jack") else "lattice"
        expected = (jack_refs if family == "jack" else ref)[f"{family} values"]
        if values[f"{family} values"] != expected:
            out.fail(probes, f"{name}: {family} values differ from the "
                             f"reference")
    if out.values["witness"] is not None:
        out.fail(1, f"lattice hunt found {out.values['witness']!r}")
    if out.values["probes"] != ref["hunt probes"]:
        out.fail(out.values["probes"],
                 f"lattice hunt spent {out.values['probes']} probes, "
                 f"expected {ref['hunt probes']}")


# -- expand-cold -----------------------------------------------------------------

def cold_keys():
    """(family, partition) for every expansion of the job, in fixed order."""
    from omegalab.partitions import partitions_of
    keys = [("jack", lam)
            for lam in partitions_of(COLD_JACK_WEIGHT, COLD_JACK_N)]
    keys += [("macdonald", lam)
             for lam in partitions_of(COLD_MAC_WEIGHT, COLD_MAC_N)]
    return keys


def inputs_cold(seed):
    keys = cold_keys()
    random.Random(seed).shuffle(keys)
    return {"order": keys}


def run_cold(ol, inp, out: Outcome, cache_path):
    if os.path.exists(cache_path):
        os.remove(cache_path)
    mp = ol.MacdonaldParams(MAC_Q, MAC_T, COLD_MAC_N)
    ol.activate(ol.ExpansionCache(cache_path))
    try:
        polys = {}
        for family, lam in inp["order"]:
            if family == "jack":
                polys[(family, lam)] = ol.jack_expand(lam, COLD_THETA)
            else:
                polys[(family, lam)] = ol.macdonald_expand(lam, mp)
    finally:
        ol.activate(None)
    out.values = {"polys": polys, "cache": cache_path}
    out.ops = len(polys)


def check_cold(ol, inp, out: Outcome, refs):
    from omegalab.cache import cache_key
    from omegalab.partitions import majorizes
    ref = refs["expand-cold"]
    stored = ol.ExpansionCache(out.values["cache"])
    # a cache that is not what was written fails every expansion it holds
    if len(stored) != len(out.values["polys"]):
        out.fail(out.ops, f"cache holds {len(stored)} records, expected "
                          f"{len(out.values['polys'])}")
    for (family, lam), poly in out.values["polys"].items():
        name = f"{family} {','.join(map(str, lam))}"
        body = ol.serialize_poly(poly)
        problems = []
        params = ({"theta": COLD_THETA} if family == "jack"
                  else {"q": MAC_Q, "t": MAC_T})
        if stored.get(cache_key(family, len(lam), lam, **params)) != poly:
            problems.append("cache record differs from the expansion")
        if digest(body) != ref[name]:
            problems.append("serialization differs from the reference")
        if poly.coefficient(lam) != 1:
            problems.append("not monic")
        if any(sum(nu) != sum(lam) or not majorizes(lam, nu)
               for nu in poly.terms):
            problems.append("support leaves the dominance ideal")
        if problems:
            out.fail(1, f"{name}: " + "; ".join(problems))
    if cache_digest(out.values["cache"]) != ref["cache file"]:
        out.fail(out.ops, "written cache records differ from the reference")


# -- ho-sweep-n3 -----------------------------------------------------------------

def inputs_ho_sweep(seed):
    return {"seed": seed}


def run_ho_sweep(ol, inp, out: Outcome, cache_path):
    cfg = ol.QuadratureConfig(HO_SWEEP_NODES)
    reports = []
    for k in HO_SWEEP_KS:
        for sweep, per_probe in ((ol.check_schur_convexity, 2),
                                 (ol.check_log_convexity, 3)):
            report = sweep("heckman-opdam", HO_SWEEP_N, HO_SWEEP_WEIGHT,
                           samples=HO_SWEEP_SAMPLES, seed=inp["seed"], k=k,
                           cfg=cfg)
            reports.append((k, report))
            out.reports.append(sweep_summary(report, per_probe))
    out.values = {"reports": reports}
    out.ops = sum(r["probes"] - r["skipped"] for r in out.reports)


def sweep_points(ol, seed):
    """The sweep's sample points: seeded rationals in [0, 10]^n, sorted
    decreasing and floated, as the lab draws them for this family."""
    sampler = ol.RationalSampler(seed, 0, 10)
    return [tuple(float(v) for v in sorted(sampler.point(i, HO_SWEEP_N),
                                           reverse=True))
            for i in range(HO_SWEEP_SAMPLES)]


def check_ho_sweep(ol, inp, out: Outcome, refs):
    from omegalab.partitions import partitions_of
    for k, report in out.values["reports"]:
        if report.violations:
            out.fail(len(report.violations),
                     f"{report.command} k={k}: "
                     f"{len(report.violations)} violations")
    cfg = ol.QuadratureConfig(HO_SWEEP_NODES)
    shapes = [lam for w in range(HO_SWEEP_WEIGHT + 1)
              for lam in partitions_of(w, HO_SWEEP_N)]
    for k in HO_SWEEP_KS:
        params = ol.HOParams(k, HO_SWEEP_N)
        for x in sweep_points(ol, inp["seed"]):
            for lam in shapes:
                gap = ol.ho_jack_consistency(lam, params, x, cfg)
                out.rel_errs.append(gap)
                if not gap <= band(k):
                    out.fail(1, f"k={k} lam={lam} x={x}: gap {gap:.3e} "
                                f"outside {band(k):.0e}")


# -- ho-eval-n4 --------------------------------------------------------------------

def inputs_ho_eval(seed):
    """Per k: a shape (alternating between the two) and a seeded point in
    [-1, 1]^4 with coordinates at least 0.05 apart."""
    rng = random.Random(seed)
    calls = []
    for i, k in enumerate(HO_EVAL_KS):
        while True:
            x = sorted((round(rng.uniform(-1, 1), 3)
                        for _ in range(HO_EVAL_N)), reverse=True)
            if all(a - b >= 0.05 for a, b in zip(x, x[1:])):
                break
        calls.append((k, HO_EVAL_SHAPES[(seed + i) % 2], tuple(x)))
    return {"seed": seed, "calls": calls}


def run_ho_eval(ol, inp, out: Outcome, cache_path):
    cfg = ol.QuadratureConfig(HO_EVAL_NODES)
    values = []
    for k, lam, x in inp["calls"]:
        params = ol.HOParams(k, HO_EVAL_N)
        s = tuple(float(li + Fraction(k) * r)
                  for li, r in zip(lam, params.rho))
        values.append(ol.ho_eval(params, s, x, cfg))
    out.values = {"values": values}
    out.ops = len(values)


def check_ho_eval(ol, inp, out: Outcome, refs):
    """Each timed value against the exact Jack side, computed as
    ho_jack_consistency computes it; one of the three calls, chosen by the
    seed, also goes through ho_jack_consistency itself."""
    cfg = ol.QuadratureConfig(HO_EVAL_NODES)
    for i, ((k, lam, x), value) in enumerate(zip(inp["calls"],
                                                 out.values["values"])):
        p = ol.jack_expand(lam, Fraction(k))
        y = [math.exp(v) for v in x]
        jack_side = (ol.poly_eval_float(p, y)
                     / float(p.eval((Fraction(1),) * HO_EVAL_N)))
        gap = abs(value - jack_side) / jack_side
        out.rel_errs.append(gap)
        if not gap <= band(k):
            out.fail(1, f"k={k} lam={lam} x={x}: gap {gap:.3e} outside "
                        f"{band(k):.0e}")
        if i == inp["seed"] % len(inp["calls"]):
            checked = ol.ho_jack_consistency(
                lam, ol.HOParams(k, HO_EVAL_N), x, cfg)
            if not checked <= band(k):
                out.fail(1, f"k={k} lam={lam} x={x}: ho_jack_consistency "
                            f"gap {checked:.3e} outside {band(k):.0e}")


JOBS = {
    "exact-sweeps": (inputs_exact, run_exact, check_exact),
    "expand-cold": (inputs_cold, run_cold, check_cold),
    "ho-sweep-n3": (inputs_ho_sweep, run_ho_sweep, check_ho_sweep),
    "ho-eval-n4": (inputs_ho_eval, run_ho_eval, check_ho_eval),
}


def run_job(workload: str, seed: int, sample: int, traced: bool,
            cache_path: str) -> dict:
    ol = import_omegalab()
    import numpy
    make_inputs, run, check = JOBS[workload]
    inp = make_inputs(seed)
    tracer = None
    if traced:
        from tracer import Tracer
        tracer = Tracer(f"{workload}:seed={seed}:sample={sample}")
        tracer.install(ol)
    out = Outcome()
    ready = time.monotonic()
    t0 = time.perf_counter()
    try:
        run(ol, inp, out, cache_path)
        wall = time.perf_counter() - t0
    finally:
        if tracer:
            tracer.uninstall()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    check(ol, inp, out, load_references())
    result = {"ready": ready, "wall_s": wall, "ops": out.ops,
              "failed": min(out.failed, out.ops), "problems": out.problems,
              "peak_rss_mb": peak_kib / 1024.0,
              "numpy": numpy.__version__}
    if tracer:
        from tracer import layer_metrics
        counts, times, split = layer_metrics(tracer, wall, out.reports,
                                             out.rel_errs)
        result.update(counts=counts, times=times, split=split)
        spans = OUT / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        tracer.write(spans / f"{workload}-{sample}.jsonl")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sample", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--cache", default=str(OUT / "job.cache"))
    parser.add_argument("--fill", metavar="PATH")
    args = parser.parse_args(argv)
    if args.fill:
        fill_cache(import_omegalab(), args.fill)
        return 0
    if not args.workload:
        parser.error("need --workload or --fill")
    try:
        result = run_job(args.workload, args.seed, args.sample, args.trace,
                         args.cache)
    except Exception:
        traceback.print_exc()
        print(json.dumps({"error": traceback.format_exc().splitlines()[-1]}))
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
