"""One-line faults in the package, each with the tests expected to catch it.

    python3 tools/mutants.py            # run every fault
    python3 tools/mutants.py NAME ...   # run the named faults
    python3 tools/mutants.py --list     # list the faults

Run from anywhere; the script finds the checkout it sits in.  For each
fault it copies src/, tests/ and pyproject.toml to a fresh temporary
directory, replaces the one line of one module that the fault names, and
runs the fault's tests there with `python -m pytest -x -q`.  A fault that
its tests pass survives.  A fault whose line is not found exactly once, or
whose tests do not run (pytest exits with neither 0 nor 1), is reported as
stale: the list has fallen behind the code.  The script prints one line per
fault, then the survivors and the stale faults, and exits 1 if there is
either.

It is not part of the test suite: each fault costs one pytest start and
its tests, and the whole list takes a few minutes on one core.  It runs the
faults one after another, in one process each.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Fault(NamedTuple):
    name: str
    module: str        # path under src/omegalab
    line: str          # a substring found on exactly one line of the module
    replacement: str   # what that substring becomes
    tests: tuple       # pytest node ids expected to fail under the fault


LAB = "tests/test_lab.py::"
FAULTS = (
    # exact comparison, noise floor and the determinant's bound
    Fault("below-or-equal", "lab.py",
          "return lhs[0] * rhs[1] < rhs[0] * lhs[1]",
          "return lhs[0] * rhs[1] <= rhs[0] * lhs[1]",
          (LAB + "test_pair_comparison_is_the_fraction_comparison",)),
    Fault("noise-floor-1e-9", "lab.py",
          "NOISE_FLOOR = 1e-12", "NOISE_FLOOR = 1e-9",
          (LAB + "test_near_tie_reports_match_pinned_digest",)),
    Fault("determinant-bound-1e-9", "heckman_opdam.py",
          "DETERMINANT_BOUND = 1e-13", "DETERMINANT_BOUND = 1e-9",
          ("tests/test_heckman_opdam.py",)),
    # certification of hunt witnesses
    Fault("certify-through-memo", "lab.py",
          "return poly_eval_fresh(p, x) / denom",
          "return macdonald.omega_mac_eval(lam, mp, x)",
          (LAB + "test_certification_reads_no_memo_entry",)),
    Fault("certify-through-memo-polynomial", "lab.py",
          "p = macdonald._expand_uncached(lam.parts, mp)",
          "p = macdonald.macdonald_expand(lam.parts, mp)",
          (LAB + "test_certification_reads_no_row_table",)),
    Fault("skip-hunt-certification", "lab.py",
          "if _certified_omega(p, mp, x) != value:", "if False:",
          (LAB + "test_hunt_withholds_uncertified_witness_under_"
           "optimization",)),
    # work ceiling, cache misfit check, operator rows and eigenvalues
    Fault("node-term-ceiling-x4", "heckman_opdam.py",
          "MAX_NODE_TERMS = 2 ** 32", "MAX_NODE_TERMS = 2 ** 34",
          ("tests/test_heckman_opdam.py::"
           "test_work_ceilings_refuse_before_any_node_is_built",)),
    Fault("drop-pass-work-check", "heckman_opdam.py",
          "_check_work(params, len(rest), cfg)", "pass",
          ("tests/test_heckman_opdam.py::"
           "test_work_ceilings_refuse_before_any_node_is_built",)),
    Fault("drop-m-lambda-misfit", "cache.py",
          "if poly.terms.get(lam) != 1:", "if False:",
          ("tests/test_cache.py::"
           "test_disk_record_that_misfits_its_key_is_recomputed",)),
    Fault("wrong-jack-row-entry", "jack.py",
          "count += a - b", "count += a - b + 1",
          ("tests/test_jack.py",)),
    Fault("wrong-macdonald-eigenvalue-n5", "macdonald.py",
          "tn ** (n - 1 - i) * td ** i",
          "tn ** (n - 1 - i) * td ** (i + (n >= 5))",
          ("tests/test_macdonald.py",)),
    Fault("jack-diagonal-over-the-numerator", "jack.py",
          "row = {nu: den * sum(p * (p - 1) for p in nu)",
          "row = {nu: num * sum(p * (p - 1) for p in nu)",
          ("tests/test_jack.py",)),
    # the fraction-free back-substitution and the singleton-ideal shortcut
    Fault("drop-pending-rescale", "eigensolve.py",
          "pending[mu] *= g", "pass",
          ("tests/test_eigensolve.py::"
           "test_integer_solve_is_the_fraction_back_substitution",)),
    Fault("dominance-minimum-too-wide", "eigensolve.py",
          "lam[0] - lam[-1] <= 1", "lam[0] - lam[-1] <= 2",
          ("tests/test_eigensolve.py::"
           "test_the_dominance_minimum_is_the_balanced_partition",)),
    # the Heckman-Opdam sweep's three tolerance lines, each loosened
    Fault("order-band-100x", "lab.py",
          "return 10 * (el + er)", "return 100 * (el + er)",
          (LAB + "test_order_band_is_ten_times_the_summed_estimates",)),
    Fault("midpoint-band-100x", "lab.py",
          "return 10 * (el * abs(vm)", "return 100 * (el * abs(vm)",
          (LAB + "test_midpoint_band_propagates_the_estimates",)),
    Fault("noise-gate-doubled", "lab.py",
          "if gap > noise:", "if gap > 2 * noise:",
          (LAB + "test_noise_gate_is_the_noise_floor",)),
    # named ceilings, each moved so that it admits more work
    Fault("node-ceiling-x4", "heckman_opdam.py",
          "MAX_NODES = 1024", "MAX_NODES = 4096",
          ("tests/test_cli.py::"
           "test_sweep_node_ceiling_names_the_error_estimate",)),
    Fault("permutation-ceiling-x8", "heckman_opdam.py",
          "MAX_PERMUTATION_TERMS = 2 ** 26", "MAX_PERMUTATION_TERMS = 2 ** 29",
          ("tests/test_heckman_opdam.py::"
           "test_refusals_quote_bounded_counts",)),
    Fault("determinant-variables-x4", "heckman_opdam.py",
          "DETERMINANT_MAX_VARIABLES = 32\n",
          "DETERMINANT_MAX_VARIABLES = 128\n",
          ("tests/test_heckman_opdam.py::"
           "test_determinant_takes_at_most_32_variables",)),
    Fault("multiplicity-floor-lowered", "heckman_opdam.py",
          "MIN_POSITIVE_K = 1e-10", "MIN_POSITIVE_K = 1e-14",
          ("tests/test_heckman_opdam.py::"
           "test_multiplicity_below_the_floor_is_refused",)),
    Fault("witness-ceiling-x4", "lab.py",
          "PARAMETER_CEILING = 1 << 60", "PARAMETER_CEILING = 1 << 62",
          (LAB + "test_witness_search_gives_up_past_two_to_the_sixtieth",)),
    Fault("variable-ceiling-x4", "lab.py",
          "MAX_VARIABLES = 100", "MAX_VARIABLES = 400",
          ("tests/test_cli.py::test_hostile_arguments_exit_two",)),
    Fault("row-ceiling-x4", "macdonald.py",
          "MAX_ROW_STEPS = 1 << 28", "MAX_ROW_STEPS = 1 << 30",
          ("tests/test_macdonald.py::"
           "test_the_row_ceiling_is_two_to_the_twenty_eighth",)),
    # the cover rules the exact sweeps check first
    Fault("drop-two-apart-cover", "partitions.py",
          "if j > i + 1 and lam[i] != lam[j] + 2:", "if j > i + 1:",
          ("tests/test_partitions.py::"
           "test_order_covers_are_the_transitive_reduction_of_the_pairs",
           LAB + "test_one_broken_cover_lists_every_violating_pair")),
    Fault("drop-weak-cross-weight-cover", "partitions.py",
          "below.append(tuple(mu))", "pass",
          ("tests/test_partitions.py::"
           "test_order_covers_are_the_transitive_reduction_of_the_pairs",
           LAB + "test_one_broken_cover_lists_every_violating_pair")),
    # a cache record's keys are checked once, in parse_poly
    Fault("parse-poly-unchecked-keys", "sympoly.py",
          "poly.terms = {_exponent_key(key, n): c",
          "poly.terms = {key: c",
          ("tests/test_cache.py::"
           "test_record_with_a_bad_exponent_is_skipped",)),
)


def apply(fault: Fault, src: Path):
    """Write the fault into the copy under src; False if its line is not
    found exactly once."""
    path = src / "omegalab" / fault.module
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    hits = [i for i, text in enumerate(lines) if fault.line in text]
    if len(hits) != 1:
        return False
    lines[hits[0]] = lines[hits[0]].replace(fault.line, fault.replacement)
    path.write_text("".join(lines), encoding="utf-8")
    return True


def run(fault: Fault) -> str:
    """'caught', 'survived' or 'stale'."""
    with tempfile.TemporaryDirectory(prefix="omegalab-mutant-") as tmp:
        copy = Path(tmp)
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        if not apply(fault, copy / "src"):
            return "stale"
        env = dict(os.environ, PYTHONPATH=str(copy / "src"),
                   PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *fault.tests],
            cwd=copy, env=env, capture_output=True, text=True)
    return {0: "survived", 1: "caught"}.get(done.returncode, "stale")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("names", nargs="*", help="faults to run (default all)")
    parser.add_argument("--list", action="store_true",
                        help="list the faults and their tests")
    args = parser.parse_args(argv)
    known = {f.name: f for f in FAULTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown fault(s): {', '.join(unknown)}")
    faults = [known[name] for name in args.names] or list(FAULTS)
    if args.list:
        for f in faults:
            print(f"{f.name}: {f.module}: {f.line!r} -> {f.replacement!r}; "
                  f"{' '.join(f.tests)}")
        return 0
    outcomes = {}
    for f in faults:
        outcomes[f.name] = run(f)
        print(f"{outcomes[f.name]:8s} {f.name}", flush=True)
    survivors = [n for n, o in outcomes.items() if o == "survived"]
    stale = [n for n, o in outcomes.items() if o == "stale"]
    print(f"{len(faults)} faults: {len(faults) - len(survivors) - len(stale)} "
          f"caught; survivors: {', '.join(survivors) or 'none'}; "
          f"stale: {', '.join(stale) or 'none'}")
    return 1 if survivors or stale else 0


if __name__ == "__main__":
    sys.exit(main())
