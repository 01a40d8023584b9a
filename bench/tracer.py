"""Outside-in span tracer for the omegalab benchmark.

Wrappers are installed from the benchmark's side, where each caller looks a
function up: the package binds names with ``from .x import f``, so patching
the defining module alone would miss callers that hold their own binding.
Nothing under ``src/`` is edited and no private function is patched; the
operator rows are timed by wrapping the ``apply_to_monomial`` callback that
each eigen-solve receives.

Every wrapped call records one span: name, start, end, parent span and run
id, plus a small ``meta`` dict with the arguments the layer metrics need.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter, defaultdict

# family-value spans whose self time is exact evaluation work
OMEGA_SPANS = ("jack.omega_eval", "macdonald.omega_eval")
SWEEP_SPAN = "lab.sweep"

# integrand nodes per interlacing dimension and panel count of the
# endpoint-substitution rule (two panels per dimension)
PANELS = {"endpoint-substitution": 2, "plain-gauss": 1}


class Tracer:
    """Collects spans for one run; install() patches, uninstall() restores."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.metas: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str, meta: dict) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.metas.append(meta)
        self.ends.append(math.nan)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _close(self, index: int):
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, meta=None, result_meta=None):
        """fn wrapped in a span; meta(args, kwargs) and result_meta(result)
        fill the span's meta dict outside the timed interval."""
        tracer = self

        def traced(*args, **kwargs):
            info = meta(args, kwargs) if meta else {}
            index = tracer._open(name, info)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if result_meta:
                info.update(result_meta(result))
            return result
        return traced

    def patch(self, owner, attr: str, name: str, meta=None, result_meta=None,
              wrapper=None):
        """Replace owner.attr by a traced version, remembering the original."""
        original = getattr(owner, attr)
        traced = (wrapper(original) if wrapper
                  else self.wrap(name, original, meta, result_meta))
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- installation --------------------------------------------------------

    def install(self, ol):
        """Wrap the public layer entry points of the imported package ol."""
        from omegalab import (cache, heckman_opdam, jack, lab, macdonald,
                              sympoly)

        # lab: sweeps as the benchmark calls them, family values as the
        # sweep drivers look them up
        for attr in ("check_schur_convexity", "check_log_convexity",
                     "hunt_violation"):
            self.patch(ol, attr, SWEEP_SPAN)
        self.patch(lab, "omega_jack_eval", "jack.omega_eval",
                   meta=lambda a, k: {"norm": (1,) * len(a[2])})
        self.patch(lab, "omega_mac_eval", "macdonald.omega_eval",
                   meta=lambda a, k: {"norm": a[1].t_delta()})
        self.patch(lab, "enumerate_pairs", "partitions.enumerate_pairs",
                   wrapper=self._eager_pairs)

        # quadrature: the lab's value and estimate calls, the estimate's two
        # inner calls, and direct calls through the package namespace
        for owner in (lab, heckman_opdam, ol):
            self.patch(owner, "ho_eval", "heckman_opdam.ho_eval",
                       meta=_ho_meta)
        self.patch(lab, "ho_error_estimate",
                   "heckman_opdam.ho_error_estimate",
                   result_meta=lambda r: {"estimate": r})

        # expansions, as the evaluators and the benchmark look them up
        for owner in (jack, ol):
            self.patch(owner, "jack_expand", "jack.expand")
        for owner in (macdonald, ol):
            self.patch(owner, "macdonald_expand", "macdonald.expand")
        for module, family in ((jack, "jack"), (macdonald, "macdonald")):
            self.patch(module, "solve_eigen_expansion", "eigensolve.solve",
                       wrapper=lambda fn, family=family:
                       self._traced_solve(fn, family))

        # exact evaluation and the cache
        self.patch(sympoly, "poly_eval", "sympoly.poly_eval",
                   meta=lambda a, k: {"x": a[1]})
        self.patch(cache, "fetch", "cache.fetch", wrapper=self._traced_fetch)
        self.patch(cache.ExpansionCache, "put", "cache.put")
        self.patch(ol, "ExpansionCache", "cache.load",
                   result_meta=lambda c: {"records": len(c)})

    def _eager_pairs(self, fn):
        """enumerate_pairs is a generator: the span times consuming it."""
        def traced(*args, **kwargs):
            index = self._open("partitions.enumerate_pairs", {})
            try:
                pairs = list(fn(*args, **kwargs))
            finally:
                self._close(index)
            self.metas[index]["pairs"] = len(pairs)
            return iter(pairs)
        return traced

    def _traced_solve(self, fn, family: str):
        rows_name = f"{family}.rows"

        def traced(lam, n, apply_to_monomial, eigenvalue, label=""):
            def row(nu):
                index = self._open(rows_name, {"key": (n, label, tuple(nu))})
                try:
                    return apply_to_monomial(nu)
                finally:
                    self._close(index)

            index = self._open("eigensolve.solve",
                               {"family": family, "lam": tuple(lam), "n": n})
            try:
                return fn(lam, n, row, eigenvalue, label=label)
            finally:
                self._close(index)
        return traced

    def _traced_fetch(self, fn):
        def traced(family, n, lam, compute, **params):
            info = {"miss": False}

            def counted():
                info["miss"] = True
                return compute()

            index = self._open("cache.fetch", info)
            try:
                return fn(family, n, lam, counted, **params)
            finally:
                self._close(index)
        return traced

    # -- output --------------------------------------------------------------

    def write(self, path):
        """One JSON object per span: run, id, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "run": self.run_id, "span": i, "name": name,
                    "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i]}) + "\n")

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[i] - self.starts[i]
        return own


def _ho_meta(args, kwargs):
    params, s, x = args[0], args[1], args[2]
    cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
    nodes = cfg.nodes_per_dimension if cfg is not None else 64
    rule = cfg.singularity_rule if cfg is not None else "endpoint-substitution"
    x = tuple(float(v) for v in x)
    # closed forms (k = 0, one variable, uniform x) integrate nothing
    quadrature = params.k != 0 and params.n > 1 and len(set(x)) > 1
    return {"n": params.n, "key": (params.k, tuple(float(v) for v in s),
                                   x, nodes),
            "nodes": nodes if quadrature else 0, "panels": PANELS[rule]}


def integrand_nodes(n: int, nodes: int, panels: int) -> int:
    """Integrand evaluations of one recursive quadrature call, computed.

    Each of the n(n-1)/2 nested interlacing integrals uses panels * nodes
    Gauss points, so one n-variable call evaluates the integrand at
    (panels * nodes) ** (n(n-1)/2) points.
    """
    return (panels * nodes) ** (n * (n - 1) // 2)


def layer_metrics(tr: Tracer, wall: float, reports: list, ho_rel_errs):
    """(counts, times) for the per-layer metrics of one traced run.

    counts must repeat exactly between runs of the same input; times are
    seconds.  reports are the sweep summaries the job returned.
    """
    self_t = tr.self_times()
    calls = Counter(tr.names)
    own = defaultdict(float)
    for name, t in zip(tr.names, self_t):
        own[name] += t

    # exact evaluation: one normalizer evaluation per family value at most
    normalizer = 0
    seen_norm = set()
    for i, name in enumerate(tr.names):
        if name != "sympoly.poly_eval":
            continue
        parent = tr.parents[i]
        if parent < 0 or tr.names[parent] not in OMEGA_SPANS \
                or parent in seen_norm:
            continue
        x = tr.metas[i]["x"]
        if tuple(x) == tuple(tr.metas[parent]["norm"]):
            seen_norm.add(parent)
            normalizer += 1

    rows_keys = {"jack": set(), "macdonald": set()}
    for i, name in enumerate(tr.names):
        if name in ("jack.rows", "macdonald.rows"):
            rows_keys[name.split(".")[0]].add(tr.metas[i]["key"])

    ideal = 0
    if calls["eigensolve.solve"]:
        from omegalab.eigensolve import dominance_ideal
        ideal = sum(len(dominance_ideal(tr.metas[i]["lam"], tr.metas[i]["n"]))
                    for i, name in enumerate(tr.names)
                    if name == "eigensolve.solve")

    fetch_idx = [i for i, n in enumerate(tr.names) if n == "cache.fetch"]
    misses = sum(1 for i in fetch_idx if tr.metas[i]["miss"])
    load_idx = [i for i, n in enumerate(tr.names) if n == "cache.load"]

    ho_idx = [i for i, n in enumerate(tr.names)
              if n == "heckman_opdam.ho_eval"]
    keys_seen = set()
    dups = 0
    nodes = 0
    ho_self = {3: 0.0, 4: 0.0}
    for i in ho_idx:
        meta = tr.metas[i]
        if meta["key"] in keys_seen:
            dups += 1
        keys_seen.add(meta["key"])
        nodes += integrand_nodes(meta["n"], meta["nodes"], meta["panels"])
        if meta["n"] in ho_self:
            ho_self[meta["n"]] += self_t[i]
    estimates = [tr.metas[i]["estimate"] for i, n in enumerate(tr.names)
                 if n == "heckman_opdam.ho_error_estimate"]

    pair_counts = [tr.metas[i]["pairs"] for i, n in enumerate(tr.names)
                   if n == "partitions.enumerate_pairs"]

    probes = sum(r["probes"] for r in reports)
    requested = sum(r["requested"] for r in reports)
    family_evals = (calls["jack.omega_eval"] + calls["macdonald.omega_eval"]
                    + calls["heckman_opdam.ho_error_estimate"])
    expand_calls = calls["jack.expand"] + calls["macdonald.expand"]
    rows_built = calls["jack.rows"] + calls["macdonald.rows"]
    rows_distinct = len(rows_keys["jack"]) + len(rows_keys["macdonald"])
    poly_calls = calls["sympoly.poly_eval"]

    top = sum(tr.ends[i] - tr.starts[i] for i, p in enumerate(tr.parents)
              if p < 0)

    counts = {
        "sympoly.poly_eval.calls": poly_calls,
        "sympoly.normalizer_evals": normalizer,
        "sympoly.normalizer_share": _ratio(normalizer, poly_calls),
        "jack.omega_eval.calls": calls["jack.omega_eval"],
        "macdonald.omega_eval.calls": calls["macdonald.omega_eval"],
        "jack.expand.calls": calls["jack.expand"],
        "macdonald.expand.calls": calls["macdonald.expand"],
        "expand.memo_hit_ratio": (_ratio(expand_calls - len(fetch_idx),
                                         expand_calls)),
        "jack.rows.built": calls["jack.rows"],
        "jack.rows.distinct": len(rows_keys["jack"]),
        "macdonald.rows.built": calls["macdonald.rows"],
        "macdonald.rows.distinct": len(rows_keys["macdonald"]),
        "rows.useful_ratio": _ratio(rows_distinct, rows_built),
        "eigensolve.solves": calls["eigensolve.solve"],
        "eigensolve.ideal_size": ideal,
        "partitions.enumerate_pairs.calls": len(pair_counts),
        "partitions.pairs": sum(pair_counts),
        "cache.records_loaded": sum(tr.metas[i]["records"]
                                    for i in load_idx),
        "cache.fetch.calls": len(fetch_idx),
        "cache.disk_hits": len(fetch_idx) - misses,
        "cache.misses": misses,
        "cache.put.calls": calls["cache.put"],
        "heckman_opdam.ho_eval.calls": len(ho_idx),
        "heckman_opdam.ho_error_estimate.calls":
            calls["heckman_opdam.ho_error_estimate"],
        "heckman_opdam.nodes": nodes,
        "heckman_opdam.dup_eval_ratio": _ratio(dups, len(ho_idx)),
        "heckman_opdam.max_err_estimate": max(estimates, default=0.0),
        "heckman_opdam.max_rel_err": max(ho_rel_errs, default=0.0),
        "lab.probes": probes,
        "lab.skipped": sum(r["skipped"] for r in reports),
        "lab.near_misses": sum(r["near_misses"] for r in reports),
        "lab.memo_hit_ratio": (1.0 - family_evals / requested
                               if requested else 0.0),
    }
    times = {
        "sympoly.poly_eval.self_s": own["sympoly.poly_eval"],
        "jack.omega_eval.self_s": own["jack.omega_eval"],
        "macdonald.omega_eval.self_s": own["macdonald.omega_eval"],
        "jack.rows.self_s": own["jack.rows"],
        "macdonald.rows.self_s": own["macdonald.rows"],
        "eigensolve.solve.self_s": own["eigensolve.solve"],
        "partitions.enumerate_pairs.self_s":
            own["partitions.enumerate_pairs"],
        "cache.load_s": sum(tr.ends[i] - tr.starts[i] for i in load_idx),
        "cache.put.self_s": own["cache.put"],
        "heckman_opdam.ho_eval.self_s.n3": ho_self[3],
        "heckman_opdam.ho_eval.self_s.n4": ho_self[4],
        "lab.sweep.self_s": own[SWEEP_SPAN],
        "trace.coverage": top / wall if wall > 0 else 0.0,
        "trace.wall_s": wall,
    }
    split = {name: own[name] for name in sorted(own)}
    return counts, times, split


def _ratio(num, den) -> float:
    return num / den if den else 0.0
