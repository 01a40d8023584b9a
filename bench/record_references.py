"""Record the exact outputs the benchmark's correctness gate compares with.

    python3 bench/record_references.py

Writes bench/references.json: sha256 digests of every exact sweep report
(timing field removed) and of the exact family values at fixed points, for
each of the REFERENCE_VARIANTS seed variants; the lattice-only hunt's probe
count; and digests of each expand-cold expansion as serialize_poly prints
it and of the cache files the two exact workloads write.  Exact outputs
must stay byte-identical across performance work, so re-recording is only
right when a change is meant to alter an exact output, and that change
must say so.
"""

from __future__ import annotations

import json
import sys

from job import (OUT, REFERENCE_VARIANTS, REFERENCES, Outcome, cache_digest,
                 digest, exact_values, fill_cache, import_omegalab,
                 inputs_cold, report_digest, run_cold, run_exact)


def main() -> int:
    ol = import_omegalab()
    OUT.mkdir(parents=True, exist_ok=True)
    fill = OUT / "references-fill.cache"
    fill_cache(ol, fill)
    exact = {"fill": cache_digest(fill), "jack": {}}
    for variant in range(REFERENCE_VARIANTS):
        out = Outcome()
        run_exact(ol, {"variant": variant}, out, fill)
        digests = {}
        for name, (report, _) in out.values["reports"].items():
            if report.violations:
                raise SystemExit(f"variant {variant} {name}: violations; "
                                 f"refusing to record")
            if name.startswith("jack"):
                digests[name] = report_digest(report)
            else:
                exact[name] = report_digest(report)
        values = exact_values(ol, variant)
        digests["jack values"] = values["jack values"]
        exact["lattice values"] = values["lattice values"]
        exact["jack"][str(variant)] = digests
        if out.values["witness"] is not None:
            raise SystemExit("lattice hunt found a witness; refusing to record")
        exact["hunt probes"] = out.values["probes"]
        print(f"variant {variant} recorded", file=sys.stderr)

    out = Outcome()
    cache = OUT / "references-cold.cache"
    run_cold(ol, inputs_cold(0), out, str(cache))
    cold = {f"{family} {','.join(map(str, lam))}":
            digest(ol.serialize_poly(poly))
            for (family, lam), poly in sorted(out.values["polys"].items())}
    cold["cache file"] = cache_digest(cache)

    refs = {"exact-sweeps": exact, "expand-cold": cold}
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
    fill.unlink()
    cache.unlink()
    return 0


if __name__ == "__main__":
    sys.exit(main())
