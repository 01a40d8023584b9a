"""Sweep drivers, witness construction, and the targeted parameter hunt."""

import hashlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import omegalab
from omegalab import cache, heckman_opdam, lab, macdonald, sympoly
from omegalab.classical import muirhead_eval
from omegalab.errors import (CertificationError, DegeneracyError, DomainError,
                             ParameterError)
from omegalab.heckman_opdam import QuadratureConfig
from omegalab.jack import JackParam, omega_jack_eval
from omegalab.lab import (FAMILIES, NOISE_FLOOR, WITNESS_FAMILIES, Witness,
                          _make_family, _sample_points,
                          check_log_convexity, check_schur_convexity,
                          check_weak_majorization, find_witness, hunt_report,
                          hunt_violation)
from omegalab.macdonald import MacdonaldParams, lattice_point, omega_mac_eval
from omegalab.partitions import (Partition, enumerate_pairs, majorizes,
                                 order_covers, partitions_of,
                                 weakly_majorizes)

Q13 = dict(q=Fraction(1, 2), t=Fraction(1, 3))

REPORT_KEYS = ["command", "family", "params", "n", "max_weight", "seed",
               "pairs_checked", "samples", "violations", "near_misses",
               "skipped", "elapsed_ms", "version"]


def test_family_registry():
    assert set(WITNESS_FAMILIES) <= set(FAMILIES)
    assert "heckman-opdam" in FAMILIES
    assert "heckman-opdam" not in WITNESS_FAMILIES


def test_muirhead_sweep_passes():
    report = check_schur_convexity("muirhead", 3, 4, samples=25, seed=7)
    assert report.passed
    assert report.pairs_checked > 0
    assert report.samples == 25
    assert report.near_misses == 0 and report.skipped == 0


def test_powersum_sweeps_pass():
    assert check_schur_convexity("powersum", 3, 4, samples=20, seed=1).passed
    report = check_log_convexity("powersum", 3, 5, samples=20, seed=1)
    assert report.passed
    assert report.command == "check logconvex"


def test_jack_sweep_passes_across_theta():
    for theta in (0, Fraction(1, 2), 2, "inf"):
        report = check_schur_convexity("jack", 3, 4, samples=15, seed=3,
                                       theta=theta)
        assert report.passed, theta


def test_lattice_sweep_passes():
    report = check_schur_convexity("macdonald-lattice", 2, 4, label_bound=2,
                                   **Q13)
    assert report.passed
    # the sample count is the number of lattice labels with entries in [0, 2]:
    # (0,0), (1,0), (1,1), (2,0), (2,1), (2,2)
    assert report.samples == 6
    assert report.params["label_bound"] == 2


def test_lattice_points_satisfy_inequality_exactly():
    # spot-check the sweep's meaning at one lattice point by hand
    mp = MacdonaldParams(**Q13, n=2)
    x = lattice_point((2, 0), mp).coords
    lhs = omega_mac_eval((2, 0), mp, x)
    rhs = omega_mac_eval((1, 1), mp, x)
    assert lhs >= rhs


def test_heckman_opdam_sweep_smoke():
    report = check_schur_convexity("heckman-opdam", 2, 3, samples=4, seed=5,
                                   k=1)
    assert report.passed
    assert report.params["x_low"] == 0


def test_heckman_opdam_sweep_out_of_range_raises():
    # a probe value that is nan or inf compares false both ways and used to
    # pass as no violation; at x_high = 400 some F values pass 1e308
    with pytest.raises(DegeneracyError):
        check_schur_convexity("heckman-opdam", 2, 2, samples=2, seed=1,
                              k=0.05, x_high=400, cfg=QuadratureConfig(8))
    # at x_high = 200 the two-variable values at k = 0.01 were nan, and
    # are finite now
    report = check_schur_convexity("heckman-opdam", 2, 2, samples=6, seed=1,
                                   k=0.01, x_high=200)
    assert report.passed and report.skipped == 0


def test_heckman_opdam_sweep_out_of_range_raises_under_optimization():
    out, err = run_optimized("""
        from omegalab import errors, lab
        from omegalab.heckman_opdam import QuadratureConfig

        try:
            print("returned", lab.check_schur_convexity(
                "heckman-opdam", 2, 2, samples=2, seed=1, k=0.05,
                x_high=400, cfg=QuadratureConfig(8)))
        except errors.OmegalabError as e:
            print(type(e).__name__)
    """)
    assert out == ["DegeneracyError"], err


def test_weak_majorization_sweep_and_necessity():
    for theta in (0, 1, "inf"):
        report = check_weak_majorization(theta, 2, 4, samples=20, seed=2)
        assert report.passed, theta
    # scaling below the all-ones point breaks weak monotonicity:
    # the containment (1,0) >= (0,0) gives 1/2 < 1 at x = (1/2, 1/2)
    assert weakly_majorizes((1, 0), (0, 0))
    value = omega_jack_eval((1, 0), 1, (Fraction(1, 2), Fraction(1, 2)))
    assert value == Fraction(1, 2) < 1
    with pytest.raises(DomainError):
        check_weak_majorization(1, 2, 4, x_low=Fraction(1, 2))


def test_report_schema_and_determinism():
    first = check_schur_convexity("muirhead", 3, 4, samples=10, seed=11)
    second = check_schur_convexity("muirhead", 3, 4, samples=10, seed=11)
    a, b = first.to_json(), second.to_json()
    assert list(a) == REPORT_KEYS
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert json.dumps(a) == json.dumps(b)
    # exact sweep parameters travel as strings
    assert a["params"]["x_low"] == "0"


# small sweeps covering every family under both statements, the weak
# sweep, Heckman-Opdam at n = 2, 3 and k = 1/2, 2, and an all-tied
# Heckman-Opdam sweep (min_gap wider than the sample box)
DIGEST_SWEEPS = [
    (sweep, args, kwargs)
    for sweep in (check_schur_convexity, check_log_convexity)
    for args, kwargs in [
        (("muirhead", 3, 4), dict(samples=6, seed=1)),
        (("powersum", 3, 4), dict(samples=6, seed=2)),
        (("jack", 3, 4), dict(samples=5, seed=3, theta=Fraction(1, 2))),
        (("jack", 2, 4), dict(samples=5, seed=4, theta="inf")),
        (("macdonald-lattice", 2, 4), dict(label_bound=2, **Q13)),
        (("macdonald-lattice", 3, 3), dict(label_bound=1, a=2, **Q13)),
        (("heckman-opdam", 2, 3), dict(samples=3, seed=5, k=Fraction(1, 2),
                                       cfg=QuadratureConfig(8))),
        (("heckman-opdam", 2, 3), dict(samples=3, seed=6, k=2,
                                       cfg=QuadratureConfig(8))),
        (("heckman-opdam", 3, 2), dict(samples=2, seed=7, k=Fraction(1, 2),
                                       cfg=QuadratureConfig(4))),
        (("heckman-opdam", 3, 2), dict(samples=2, seed=8, k=2,
                                       cfg=QuadratureConfig(4))),
        (("heckman-opdam", 2, 3), dict(samples=4, seed=0, k=2,
                                       cfg=QuadratureConfig(4, min_gap=100.0))),
    ]
] + [
    (check_weak_majorization, (1, 2, 4), dict(samples=6, seed=2)),
    (check_weak_majorization, (Fraction(2, 3), 3, 3), dict(samples=4, seed=9)),
]

# sha256 of the DIGEST_SWEEPS reports, recorded before the three sweeps
# shared one driver; a change to any count, parameter or key order moves it
REPORT_DIGEST = ("88182e6e46ec19221902bda4092b7ef7"
                 "bc98621f5b7076e1493668ad3333927a")


# near-tie Heckman-Opdam sweeps: 4 and 5 nodes, sample boxes as narrow as
# 10^-6 and min_gap 1e-12, so some order pairs land above the noise floor
# and read the error estimate
NEAR_TIE_SWEEPS = [
    (sweep, ("heckman-opdam", n, 4),
     dict(samples=4, seed=n + nodes, k=k, x_high=x_high,
          cfg=QuadratureConfig(nodes, min_gap=1e-12)))
    for sweep in (check_schur_convexity, check_log_convexity)
    for n in (2, 3)
    for k in (Fraction(1, 20), Fraction(1, 4), Fraction(1, 2), Fraction(3, 2),
              2, 6)
    for x_high in (Fraction(1, 1000), Fraction(1, 10 ** 6), 60)
    for nodes in (4, 5)
]

# sha256 of the NEAR_TIE_SWEEPS reports, recorded while every probe still
# computed the error estimate at every point
NEAR_TIE_DIGEST = ("4d3f823921460d7ab194324416d0b917"
                   "5b6c317e08ebbdb3f1ee8a3f93728c6b")


def sweep_reports(sweeps) -> list:
    reports = []
    for sweep, args, kwargs in sweeps:
        data = sweep(*args, **kwargs).to_json()
        # timing varies run to run; the version is not a sweep result
        del data["elapsed_ms"], data["version"]
        reports.append(data)
    return reports


def digest(reports) -> str:
    return hashlib.sha256(json.dumps(reports).encode()).hexdigest()


def test_sweep_reports_match_pinned_digest():
    assert digest(sweep_reports(DIGEST_SWEEPS)) == REPORT_DIGEST


def test_near_tie_reports_match_pinned_digest():
    reports = sweep_reports(NEAR_TIE_SWEEPS)
    assert sum(r["near_misses"] for r in reports) == 37
    assert digest(reports) == NEAR_TIE_DIGEST


def test_tied_points_are_skipped_and_counted():
    # min_gap wider than the sample box ties every point: each probe is
    # skipped and counted, and none is compared
    cfg = QuadratureConfig(4, min_gap=100.0)
    order = check_schur_convexity("heckman-opdam", 2, 3, samples=4, seed=0,
                                  k=2, cfg=cfg)
    assert order.skipped == order.pairs_checked * order.samples == 8
    midpoints = check_log_convexity("heckman-opdam", 2, 3, samples=4, seed=0,
                                    k=2, cfg=cfg)
    assert midpoints.skipped == midpoints.pairs_checked * 4 == 32
    for report in (order, midpoints):
        assert report.passed and report.near_misses == 0


def count_passes(monkeypatch) -> list:
    """Patch heckman_opdam._ho_pass to log (nodes, vectors summed) per
    quadrature pass, and return the log."""
    calls = []
    original = heckman_opdam._ho_pass

    def counted(params, closed, x, cfg):
        calls.append((cfg.nodes_per_dimension, closed[0].count(None)))
        return original(params, closed, x, cfg)

    monkeypatch.setattr(heckman_opdam, "_ho_pass", counted)
    return calls


def test_heckman_opdam_probe_defers_the_error_estimate(monkeypatch):
    # one probe runs the quadrature once at m nodes, for every shape at
    # once, and its gap function once at 2m; each value and gap is the
    # one-at-a-time one
    cfg = QuadratureConfig(8)
    x = (1.5, 0.25)
    shapes = [Partition((2, 1)), Partition((1, 0)), Partition((3, 0))]
    hop = heckman_opdam.HOParams(2, 2)
    expected = []
    for lam in shapes:
        s = tuple(p + 2 * r for p, r in zip(lam.parts, (0.5, -0.5)))
        expected.append((heckman_opdam.ho_eval(hop, s, x, cfg),
                         heckman_opdam.ho_error_estimate(hop, s, x, cfg)))
    calls = count_passes(monkeypatch)
    values, gaps = _make_family("heckman-opdam", 2, k=2, cfg=cfg).probe(
        shapes, x)
    assert calls == [(8, 3)]
    assert list(zip(values, gaps())) == expected
    assert calls == [(8, 3), (16, 3)]


def test_clean_sweep_makes_no_error_estimate_pass(monkeypatch):
    # five shapes at each of two n=3 points: no pair's gap passes the noise
    # floor, so each point takes one m-node pass and no 2m-node pass
    calls = count_passes(monkeypatch)
    report = check_schur_convexity("heckman-opdam", 3, 3, samples=2, seed=0,
                                   k=2, cfg=QuadratureConfig(4))
    assert report.pairs_checked == 4 and report.passed
    assert report.near_misses == 0
    assert calls == [(4, 5)] * 2


def test_error_estimate_pass_runs_once_where_a_pair_reads_it(monkeypatch):
    # nine shapes at each of four points; five pairs at the first point
    # pass the noise floor (each a near-miss) and share one 2m-node pass
    # over all nine shapes, and the other points take none
    calls = count_passes(monkeypatch)
    report = check_schur_convexity(
        "heckman-opdam", 3, 4, samples=4, seed=7, k=Fraction(1, 20),
        x_high=Fraction(1, 10 ** 6), cfg=QuadratureConfig(4, min_gap=1e-12))
    assert report.passed and report.near_misses == 5
    assert calls == [(4, 9), (8, 9), (4, 9), (4, 9), (4, 9)]


def test_n4_order_sweep_passes_without_an_error_estimate_pass(monkeypatch):
    calls = count_passes(monkeypatch)
    report = check_schur_convexity("heckman-opdam", 4, 3, samples=2, seed=0,
                                   k=2, cfg=QuadratureConfig(8))
    assert report.pairs_checked == 4 and report.passed
    assert calls == [(8, 5)] * 2
    # at k = 1/2 every box might be near: the estimate's 2m pass would sum
    # 5 * 32^6 node terms, past the ceiling, but no point reads its
    # estimates, so each takes one 8-node pass and none is refused
    calls.clear()
    report = check_schur_convexity("heckman-opdam", 4, 3, samples=2, seed=0,
                                   k=Fraction(1, 2), cfg=QuadratureConfig(8))
    assert report.pairs_checked == 4 and report.passed
    assert report.near_misses == 0
    assert calls == [(8, 5)] * 2


def test_n4_midpoint_sweep_passes_without_an_error_estimate_pass(
        monkeypatch):
    # the midpoint sweep's 2m pass would sum 7 * 32^6 node terms at k = 1/2,
    # past the ceiling; no point reads its estimates, so none is refused
    calls = count_passes(monkeypatch)
    report = check_log_convexity("heckman-opdam", 4, 3, samples=2, seed=0,
                                 k=Fraction(1, 2), cfg=QuadratureConfig(8))
    assert report.passed and report.near_misses == 0
    assert calls == [(8, 7)] * 2


def test_n4_sweep_that_reads_its_estimates_is_refused_at_its_first_point(
        monkeypatch):
    # a negative noise floor passes every gap to the band, so each point
    # reads its estimates: the first one's 2m pass, 5 * 32^6 node terms at
    # 16 nodes, is refused before any 16-node table is built, after that
    # point's one 8-node pass
    calls = count_passes(monkeypatch)
    monkeypatch.setattr(lab, "NOISE_FLOOR", -1.0)
    built = heckman_opdam._unit_panels, heckman_opdam._power_panels

    def unbuilt_at_16(builder):
        def table(m, k):
            assert m != 16, "a 16-node table was built"
            return builder(m, k)
        return table

    monkeypatch.setattr(heckman_opdam, "_unit_panels",
                        unbuilt_at_16(built[0]))
    monkeypatch.setattr(heckman_opdam, "_power_panels",
                        unbuilt_at_16(built[1]))
    with pytest.raises(ParameterError) as caught:
        check_schur_convexity("heckman-opdam", 4, 3, samples=2, seed=0,
                              k=Fraction(1, 2), cfg=QuadratureConfig(8))
    assert "5368709120 node terms" in str(caught.value)
    assert "with 16 nodes per panel" in str(caught.value)
    assert calls == [(8, 5), (16, 5)]


def test_sweep_lists_violations_pair_by_pair_point_by_point(monkeypatch):
    # minus the sum of squared parts is strictly Schur-concave, so every
    # (pair, point) of a Jack sweep violates; the family looks its
    # evaluator up in lab at call time
    class Concave:
        def __init__(self, theta):
            self.theta = JackParam(theta)

        def at(self, x):
            return lambda lam: (-sum(p * p for p in lam.parts), 1)

    monkeypatch.setattr(lab, "JackValues", Concave)
    report = check_schur_convexity("jack", 3, 4, samples=3, seed=5, theta=1)
    pairs = list(enumerate_pairs(3, 4, "same-weight-comparable"))
    points = _sample_points(3, 3, 0, 10, 5, as_float=False)
    assert len(pairs) > 1 and len(set(points)) == 3
    assert ([(w.lam, w.mu, w.x) for w in report.violations]
            == [(lam, mu, x) for lam, mu in pairs for x in points])
    assert report.near_misses == report.skipped == 0


def squares_but(broken_x, broken_lam, broken_value):
    """Stub exact values: the sum of squared parts, which is strictly
    Schur-convex and increasing on partitions, so it passes every order and
    weak pair, except broken_value for broken_lam at broken_x."""
    def value(lam, x):
        if x == broken_x and lam.parts == broken_lam:
            return broken_value, 1
        return sum(p * p for p in lam.parts), 1
    return value


@pytest.mark.parametrize("mode, cover, broken_value, violating", [
    # the cover (2,2,0) -> (2,1,1) fails, and so does the pair
    # (3,1,0) -> (2,1,1), which is not a cover
    ("same-weight-comparable", ((2, 2, 0), (2, 1, 1)), 11, 2),
    # a cover that moves a box past a row: lambda_i = lambda_j + 2
    ("same-weight-comparable", ((2, 1, 0), (1, 1, 1)), 6, 1),
    # the weak cover (2,1,1) -> (2,1,0) across weights fails, and no other
    # pair
    ("weak-comparable", ((2, 1, 1), (2, 1, 0)), 7, 1),
])
def test_one_broken_cover_lists_every_violating_pair(mode, cover,
                                                     broken_value, violating,
                                                     monkeypatch):
    # a sweep compares only the covers at a point where all pass, and every
    # pair where one fails: the violations are those of the pair loop
    points = _sample_points(3, 3, 1, 10, 5, as_float=False)
    value = squares_but(points[1], cover[1], broken_value)

    class Stub:
        def __init__(self, theta):
            self.theta = JackParam(theta)

        def at(self, x):
            return lambda lam: value(lam, x)

    monkeypatch.setattr(lab, "JackValues", Stub)
    if mode == "weak-comparable":
        report = check_weak_majorization(1, 3, 4, samples=3, seed=5)
    else:
        report = check_schur_convexity("jack", 3, 4, samples=3, seed=5,
                                       theta=1, x_low=1)

    def below(lam, mu, x):
        return Fraction(*value(lam, x)) < Fraction(*value(mu, x))

    covers, count = order_covers(3, 4, mode)
    assert ([(lam.parts, mu.parts, x) for lam, mu in covers for x in points
             if below(lam, mu, x)] == [(*cover, points[1])])
    pairs = list(enumerate_pairs(3, 4, mode))
    expected = [(lam, mu, x) for lam, mu in pairs for x in points
                if below(lam, mu, x)]
    assert len(expected) == violating
    assert ([(w.lam, w.mu, w.x, w.lhs, w.rhs) for w in report.violations]
            == [(lam, mu, x, Fraction(*value(lam, x)),
                 Fraction(*value(mu, x))) for lam, mu, x in expected])
    assert report.pairs_checked == count == len(pairs)


# exact values as the evaluators hand them over: v / s through _form_sum,
# the value v of m_(1) at a one-variable point over a scale s, which is
# never 0 but may be negative (a Macdonald normalizer may be)
EXACT = st.fractions(min_value=-4, max_value=4, max_denominator=6)
SCALE = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


def exact_pair(v, s):
    X, d = sympoly._cleared((v,))
    pair = sympoly._form_sum(sympoly._cleared_form({(1,): Fraction(1)}),
                             X, d, s)
    assert pair[1] > 0
    return pair


@settings(deadline=None, max_examples=300)
@given(st.lists(st.tuples(EXACT, SCALE), min_size=3, max_size=3),
       st.sampled_from([(0, 1, 2), (0, 0, 0), (0, 1, 0), (0, 0, 1)]))
def test_pair_comparison_is_the_fraction_comparison(values, repeat):
    # repeat copies values so that equal sides come up: (0, 0, 0) makes
    # both order sides and all three midpoint values equal
    values = [values[i] for i in repeat]
    pairs = [exact_pair(v, s) for v, s in values]
    fractions = [v / s for v, s in values]
    assert [Fraction(*p) for p in pairs] == fractions
    for stmt, shapes, lhs_value, rhs_value in (
            (lab._SCHUR, 2, fractions[0], fractions[1]),
            (lab._LOGCONVEX, 3, fractions[0] * fractions[1],
             fractions[2] * fractions[2])):
        lhs, rhs = stmt.pair_sides(pairs[:shapes])
        assert lab._below(lhs, rhs) == (lhs_value < rhs_value)
        # a witness carries the sides as the Fraction products
        assert (Fraction(*lhs), Fraction(*rhs)) == (lhs_value, rhs_value)


def test_witness_json_carries_values_past_the_digit_limit():
    # str() refuses integers of more than 4300 digits
    big = Fraction(10 ** 5000 + 1, 3 ** 18860)
    w = Witness("jack", {"theta": 1}, (1, 1), (2, 0), (big, 1), big, -big)
    data = w.to_json()
    assert len(data["lhs"]) > 9000 + 5000
    assert sympoly._parse_rational(data["lhs"]) == big
    assert sympoly._parse_rational(data["rhs"]) == -big
    assert data["x"][1] == "1"


def test_witness_examples():
    w = find_witness((1, 1, 0), (2, 0, 0), "muirhead")
    assert w.margin > 0
    assert muirhead_eval(w.lam, w.x) == w.lhs < w.rhs == muirhead_eval(w.mu, w.x)
    w = find_witness((1, 1), (2, 0), "jack", theta=1)
    assert w.lhs < w.rhs
    assert omega_jack_eval((1, 1), 1, w.x) == w.lhs
    w = find_witness((1, 1), (2, 0), "macdonald-lattice", **Q13)
    assert w.lhs < w.rhs
    assert "label" in w.params


def test_witness_json_shape():
    w = find_witness((1, 1), (2, 0), "muirhead")
    assert list(w.to_json()) == ["lambda", "mu", "x", "lhs", "rhs"]
    assert w.to_json()["lambda"] == [1, 1]


def test_witness_rejects_comparable_or_mismatched():
    with pytest.raises(DomainError):
        find_witness((2, 0), (1, 1), "muirhead")  # majorizing pair
    with pytest.raises(DomainError):
        find_witness((2, 0), (1, 0), "muirhead")  # unequal weights
    with pytest.raises(ParameterError):
        find_witness((1, 1), (2, 0), "nonsense")


def test_witness_complete_on_small_range():
    # every incomparable ordered pair must get a certified witness
    found = 0
    for w in range(1, 7):
        shapes = [Partition(p) for p in partitions_of(w, 3)]
        for lam in shapes:
            for mu in shapes:
                if lam.parts == mu.parts or majorizes(lam, mu) \
                        or majorizes(mu, lam):
                    continue
                for family, kw in (("muirhead", {}),
                                   ("jack", {"theta": Fraction(1, 2)}),
                                   ("macdonald-lattice", Q13)):
                    wit = find_witness(lam, mu, family, **kw)
                    assert wit.margin > 0, (lam, mu, family)
                found += 1
    assert found == 2  # (4,1,1) vs (3,3,0) in both orders, nothing below


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10 ** 6))
def test_witness_soundness_muirhead(seed_like):
    # re-verify a fixed witness exactly, independent of construction details
    w = find_witness((3, 3, 0), (4, 1, 1), "muirhead")
    assert muirhead_eval((3, 3, 0), w.x) < muirhead_eval((4, 1, 1), w.x)


def test_hunt_finds_violation_at_generic_parameters():
    witness, probes = hunt_violation(Fraction(1, 2), Fraction(1, 3), n=2,
                                     max_weight=6, budget=1000, seed=0)
    assert witness is not None
    assert probes <= 1000
    assert witness.lam.parts != witness.mu.parts
    assert majorizes(witness.lam, witness.mu)
    # independent exact re-verification of the reported failure
    mp = MacdonaldParams(witness.params["q"], witness.params["t"], 2,
                         a=witness.params["a"])
    lhs = omega_mac_eval(witness.lam, mp, witness.x)
    rhs = omega_mac_eval(witness.mu, mp, witness.x)
    assert lhs == witness.lhs and rhs == witness.rhs
    assert lhs < rhs


def test_hunt_withholds_uncertified_witness_under_optimization():
    # python -O strips asserts; the certification check must survive it
    out, err = run_optimized("""
        from fractions import Fraction
        from omegalab import errors, lab
        lab._certified_omega = lambda lam, mp, x: Fraction(-1)
        try:
            witness, _ = lab.hunt_violation(Fraction(1, 2), Fraction(1, 3),
                                            n=2, max_weight=6, budget=1000)
        except errors.OmegalabError as e:
            print(type(e).__name__)
        else:
            print("returned", witness.lam, witness.mu)
    """)
    assert out == ["CertificationError"], err


def run_optimized(script, timeout=300):
    """Standard output of script run under python -O, split into words."""
    src = os.path.dirname(os.path.dirname(omegalab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-O", "-c", textwrap.dedent(script)],
                          env=env, capture_output=True, text=True,
                          timeout=timeout)
    return proc.stdout.split(), proc.stderr


def test_zero_normalizers_raise_under_optimization():
    # each expansion is replaced by one that vanishes at its normalization
    # point: (1,...,1) for Jack, t^delta = (1/3, 1) for Macdonald
    out, err = run_optimized("""
        from fractions import Fraction
        from omegalab import errors, jack, lab, macdonald
        from omegalab.partitions import Partition
        from omegalab.sympoly import SymmetricPolynomial

        def vanishing(*terms):
            poly = SymmetricPolynomial(2, dict(terms))
            return lambda *args, **kwargs: poly

        jack.solve_eigen_expansion = vanishing(((2, 0), 1), ((1, 1), -2))
        macdonald.solve_eigen_expansion = vanishing(
            ((2, 0), 1), ((1, 1), Fraction(-10, 3)))
        mp = macdonald.MacdonaldParams(Fraction(1, 2), Fraction(1, 3), 2)
        x = (Fraction(2), Fraction(1, 2))
        for call in (lambda: jack.omega_jack_eval((2, 0), Fraction(1, 2), x),
                     lambda: macdonald.omega_mac_eval((2, 0), mp, x),
                     lambda: lab._certified_omega(Partition((2, 0)), mp, x)):
            try:
                print("returned", call())
            except errors.OmegalabError as e:
                print(type(e).__name__)
    """)
    assert out == ["DegeneracyError"] * 3, err


def test_broken_operator_rows_raise_under_optimization():
    # a row that leaves the dominance ideal of (2, 0), then one whose
    # diagonal is not the eigenvalue, then a shape that is not a partition
    out, err = run_optimized("""
        from fractions import Fraction
        from omegalab import errors
        from omegalab.eigensolve import dominance_ideal, solve_eigen_expansion

        def eigenvalue(nu):
            return Fraction(nu[0])

        for row in (lambda nu: {nu: eigenvalue(nu), (2, 1): Fraction(1)},
                    lambda nu: {nu: eigenvalue(nu) + 1}):
            try:
                print("returned", solve_eigen_expansion((2, 0), 2, row,
                                                        eigenvalue))
            except errors.OmegalabError as e:
                print(type(e).__name__)
        try:
            print("returned", dominance_ideal((1, 2), 2))
        except errors.OmegalabError as e:
            print(type(e).__name__)
    """)
    assert out == ["OperatorRowError", "OperatorRowError", "DomainError"], err


def test_certification_reads_no_shared_table(monkeypatch):
    # inflate m_(1,1) in the shared table of the first lattice point: the
    # lattice-only hunt, which finds nothing on sound values, now sees
    # Omega_(2,0) < Omega_(1,1) there, and certification must refuse it
    mp = MacdonaldParams(Fraction(2, 5), Fraction(3, 7), 2)
    X, _ = sympoly._cleared(lattice_point((0, 0), mp).coords)
    monkeypatch.setattr(sympoly, "_MONOMIAL_MEMO", {X: {(1, 1): 10 ** 9}})
    monkeypatch.setattr(sympoly, "_memo_entries", 0)
    with pytest.raises(CertificationError):
        hunt_violation(mp.q, mp.t, n=2, max_weight=2, lattice_only=True,
                       label_bound=2)


def test_certification_reads_no_memo_entry(monkeypatch):
    # shrink the memo's normalizer of P_(1,1) a billion times: the
    # lattice-only hunt, which finds nothing on sound values, now sees
    # Omega_(2,0) < Omega_(1,1), and certification must refuse it
    mp = MacdonaldParams(Fraction(2, 5), Fraction(3, 7), 2)
    monkeypatch.setattr(cache, "_MEMO", {})
    macdonald._normalized((1, 1), mp)
    entry = cache._MEMO[("macdonald", mp.key(), (1, 1))]
    entry[1] /= 10 ** 9
    with pytest.raises(CertificationError):
        hunt_violation(mp.q, mp.t, n=2, max_weight=2, lattice_only=True,
                       label_bound=2)


def test_certification_reads_no_row_table(monkeypatch):
    # scale the m_(1,1) entry of the shared (2,0) operator row by -10^9: the
    # lattice-only hunt, which finds nothing on sound rows, now solves a
    # P_(2,0) with Omega_(2,0) < Omega_(1,1), and certification, which
    # builds its rows afresh, must refuse it
    mp = MacdonaldParams(Fraction(2, 5), Fraction(3, 7), 2)
    monkeypatch.setattr(cache, "_MEMO", {})
    row = macdonald._apply_macdonald_op((2, 0), 2, mp.q, mp.t)
    row[(1, 1)] *= -10 ** 9
    table = cache._memoized(("macdonald rows", mp.key(), 2), dict)[0]
    table[(2, 0)] = row
    with pytest.raises(CertificationError):
        hunt_violation(mp.q, mp.t, n=2, max_weight=2, lattice_only=True,
                       label_bound=2)


def test_last_soundness_checks_raise_under_optimization():
    # a non-monic interpolation solve behind binomial_check, a lattice
    # scale k = 0 for the limit probe (a ZeroDivisionError once asserts
    # are stripped), a ragged linear system (silently truncated by zip),
    # limit-probe labels that increase, and a negative sampler counter
    out, err = run_optimized("""
        import math
        from fractions import Fraction
        from omegalab import eigensolve, errors, jack, macdonald, sampling

        solve = macdonald.solve_linear_system
        macdonald.solve_linear_system = lambda m, r: [2 * v
                                                      for v in solve(m, r)]
        mp = macdonald.MacdonaldParams(Fraction(1, 2), Fraction(1, 3), 2)

        def increasing_labels():
            jack._floor_scaled_log = lambda k, ratio: -math.floor(ratio)
            return jack.jack_limit_probe((2, 1), 1, (4, 1), (1,))

        for call in (lambda: macdonald.binomial_check((1, 0), mp, (2, 1)),
                     lambda: jack.jack_limit_probe((2, 1), 1, (4, 1), (0,)),
                     lambda: eigensolve.solve_linear_system([[1, 2], [3]],
                                                            [1, 1]),
                     lambda: eigensolve.solve_linear_system([[1, 2], [3, 4]],
                                                            [1]),
                     increasing_labels,
                     lambda: sampling.raw_draw(0, -1)):
            try:
                print("returned", call())
            except errors.OmegalabError as e:
                print(type(e).__name__)
    """)
    assert out == ["DegeneracyError", "DomainError", "DimensionMismatchError",
                   "DimensionMismatchError", "DegeneracyError",
                   "DomainError"], err


@pytest.mark.parametrize("err", [1e-9, 0.0])
def test_midpoint_gap_past_the_noise_floor_reads_the_estimates(err,
                                                              monkeypatch):
    # the quadrature is log-convex in s, so no real sweep's midpoint gap
    # passes the noise floor.  Values exp(-1e-9 |s|^2) break log-convexity
    # by a relative 5e-10 |lam - mu|^2: inside the band 10 (el |vm| + em |vl|
    # + 2 ec |vc|) = 4e-8 at err 1e-9, past it at err 0.  Each point takes
    # its estimates once
    reads = []

    def fake(hop, svecs, x, cfg):
        def gaps():
            reads.append(x)
            return [err] * len(svecs)
        return [math.exp(-1e-9 * sum(v * v for v in s)) for s in svecs], gaps

    monkeypatch.setattr(lab, "_ho_eval_lazy", fake)
    report = check_log_convexity("heckman-opdam", 2, 2, samples=3, seed=1,
                                 k=2)
    unequal = sum(lam != mu for lam, mu in
                  enumerate_pairs(2, 2, "midpoint-integral"))
    assert unequal > 0 and len(set(reads)) == len(reads) == 3
    if err:
        assert report.passed and report.near_misses == 3 * unequal
    else:
        assert len(report.violations) == 3 * unequal
        assert report.near_misses == 0


def stub_quadrature(monkeypatch, values, errs):
    """Stub the Heckman-Opdam family at n = 2, k = 2: shape lam has value
    values.get(lam, 1.0) and error estimate errs.get(lam, 0.0).  Returns
    the log of points at which the estimates were read."""
    reads = []

    def shape(s):
        # s = lam + k rho with k rho = (1, -1)
        return round(s[0] - 1), round(s[1] + 1)

    def fake(hop, svecs, x, cfg):
        def gaps():
            reads.append(x)
            return [errs.get(shape(s), 0.0) for s in svecs]
        return [values.get(shape(s), 1.0) for s in svecs], gaps

    monkeypatch.setattr(lab, "_ho_eval_lazy", fake)
    return reads


# each floating bound from both sides: a factor of the bound just inside it
# and just past it
@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_order_band_is_ten_times_the_summed_estimates(factor, monkeypatch):
    # the one order pair at n = 2, max_weight 2 is (2,0) -> (1,1): its gap
    # is factor * 10 * (el + er), a near miss inside the band and a
    # violation past it
    el, er = 3e-7, 7e-7
    gap = factor * 10 * (el + er)
    reads = stub_quadrature(monkeypatch, {(1, 1): 1.0 + gap},
                            {(2, 0): el, (1, 1): er})
    report = check_schur_convexity("heckman-opdam", 2, 2, samples=3, seed=1,
                                   k=2)
    assert report.pairs_checked == 1 and len(reads) == 3
    if factor < 1:
        assert report.passed and report.near_misses == 3
    else:
        assert len(report.violations) == 3 and report.near_misses == 0


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_midpoint_band_propagates_the_estimates(factor, monkeypatch):
    # the one midpoint pair with lambda != mu at n = 2, max_weight 2 is
    # (2,0), (0,0) with midpoint (1,0); its gap vc^2 - vl vm is factor times
    # the band 10 (el |vm| + em |vl| + 2 ec |vc|), each estimate scaled by
    # the other side's value
    vl, vm, vc = 2.0, 3.0, 2.45
    gap = vc * vc - vl * vm
    unit = 10 * (1 * vm + 2 * vl + 2 * 4 * vc)
    el, em, ec = (c * gap / (factor * unit) for c in (1, 2, 4))
    reads = stub_quadrature(monkeypatch,
                            {(2, 0): vl, (0, 0): vm, (1, 0): vc},
                            {(2, 0): el, (0, 0): em, (1, 0): ec})
    report = check_log_convexity("heckman-opdam", 2, 2, samples=3, seed=1,
                                 k=2)
    assert len(reads) == 3
    if factor < 1:
        assert report.passed and report.near_misses == 3
    else:
        assert ([(w.lam.parts, w.mu.parts) for w in report.violations]
                == [((2, 0), (0, 0))] * 3)
        assert report.near_misses == 0


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_noise_gate_is_the_noise_floor(factor, monkeypatch):
    # with no error estimate the band is the noise floor alone: a gap of
    # factor * NOISE_FLOOR * (|lhs| + |rhs|) passes unread inside it, and
    # past it reads the estimates and is a violation
    ratio = factor * NOISE_FLOOR
    gap = 2 * ratio / (1 - ratio)
    reads = stub_quadrature(monkeypatch, {(1, 1): 1.0 + gap}, {})
    report = check_schur_convexity("heckman-opdam", 2, 2, samples=3, seed=1,
                                   k=2)
    assert report.near_misses == 0
    if factor < 1:
        assert report.passed and reads == []
    else:
        assert len(report.violations) == 3 and len(reads) == 3


def test_exact_identities_are_not_near_misses():
    # shifting lambda along (1,1) multiplies F by exp(c * sum(x)), so
    # F_(2,2) * F_(0,0) = F_(1,1)^2 exactly; quadrature lands the identity
    # on the positive side at some sample points, by a few ulps
    cfg = QuadratureConfig(24)
    fam = _make_family("heckman-opdam", 2, k=2, cfg=cfg)
    gaps = []
    for x in _sample_points(10, 2, 0, 10, 0, as_float=True):
        top, bottom, mid = (fam.probe([Partition(lam)], x)[0][0]
                            for lam in ((2, 2), (0, 0), (1, 1)))
        gaps.append((mid * mid - top * bottom) / (mid * mid))
    assert 0 < max(gaps) <= NOISE_FLOOR
    report = check_log_convexity("heckman-opdam", 2, 4, samples=10, seed=0,
                                 k=2, cfg=cfg)
    assert report.passed and report.near_misses == 0


def test_witness_search_gives_up_past_two_to_the_sixtieth():
    # the powersum ray never separates (3,3,0) from (4,1,1): the search
    # doubles T from 1 and stops at PARAMETER_CEILING = 2^60
    with pytest.raises(DomainError,
                       match="no ray separation below 1152921504606846976 "):
        find_witness((3, 3, 0), (4, 1, 1), "powersum")


def test_hunt_on_lattice_finds_nothing():
    witness, probes = hunt_violation(Fraction(1, 2), Fraction(1, 3), n=2,
                                     max_weight=4, budget=10 ** 4, seed=0,
                                     lattice_only=True, label_bound=2)
    assert witness is None
    assert 0 < probes <= 10 ** 4


@pytest.mark.parametrize("n, bound", [(2, 3), (3, 2)])
def test_lattice_hunt_probes_the_lattice_sweep_points(n, bound):
    # with no witness the lattice-only hunt probes every (pair, point) of
    # the lattice order sweep once: the two read one point set
    witness, probes = hunt_violation(n=n, max_weight=5, budget=10 ** 6,
                                     lattice_only=True, label_bound=bound,
                                     **Q13)
    report = check_schur_convexity("macdonald-lattice", n, 5,
                                   label_bound=bound, **Q13)
    assert witness is None and report.passed
    assert probes == report.pairs_checked * report.samples > 0


def test_lattice_hunt_with_one_broken_cover_probes_as_the_pair_loop(
        monkeypatch):
    # stub lattice values break the cover (2,2,0) -> (2,1,1) at the last of
    # four lattice points; at each budget the hunt returns what probing pair by
    # pair returns: budgets that end in the middle of an earlier point, in
    # the broken point before and just after its first violating pair, and
    # one that reaches the witness
    mp = MacdonaldParams(**Q13, n=3)
    points = lab._lattice_points(mp, 1)
    value = squares_but(points[3], (2, 1, 1), 11)

    class Stub:
        def __init__(self, params):
            self.params = params

        def at(self, x):
            return lambda lam: value(lam, x)

    monkeypatch.setattr(lab, "MacdonaldValues", Stub)
    monkeypatch.setattr(lab, "_certified_omega",
                        lambda lam, mp, x: Fraction(*value(lam, x)))
    pairs = list(enumerate_pairs(3, 4, "same-weight-comparable"))

    def pair_by_pair(budget):
        probes = 0
        for x in points:
            for lam, mu in pairs:
                if probes >= budget:
                    return None, probes
                probes += 1
                if Fraction(*value(lam, x)) < Fraction(*value(mu, x)):
                    return (lam, mu, x), probes
        return None, probes

    first = next(i for i, (lam, mu) in enumerate(pairs)
                 if Fraction(*value(lam, points[3]))
                 < Fraction(*value(mu, points[3])))
    hit = 3 * len(pairs) + first + 1
    for budget in (len(pairs) + 3, hit - 1, hit, 10 ** 6):
        expected = pair_by_pair(budget)
        witness, probes = hunt_violation(n=3, max_weight=4, budget=budget,
                                         lattice_only=True, label_bound=1,
                                         **Q13)
        found = witness and (witness.lam, witness.mu, witness.x)
        assert (found, probes) == expected
    # the first violating pair in pair order is not the broken cover
    assert expected == ((Partition((3, 1, 0)), Partition((2, 1, 1)),
                         points[3]), hit)


def test_hunt_without_q_is_a_parameter_error():
    with pytest.raises(ParameterError, match="needs q and t"):
        hunt_violation(None, Fraction(1, 3))


def test_hunt_without_pairs_returns():
    # the off-lattice point stream never ends and, with no pair to compare,
    # no probe spends the budget; a subprocess bounds a hang
    out, err = run_optimized("""
        from fractions import Fraction
        from omegalab.lab import hunt_violation
        print(hunt_violation(Fraction(1, 2), Fraction(1, 3), n=2,
                             max_weight=1, budget=10))
    """, timeout=60)
    assert out == ["(None,", "0)"], err


def test_off_lattice_hunt_solves_only_the_shapes_it_probes(monkeypatch):
    # the hunt evaluates a shape only when a pair first needs it: at n=4,
    # max_weight 8 its first probe is a violation, so two expansions are
    # solved and two re-derived to certify it, out of 51 shapes
    monkeypatch.setattr(cache, "_MEMO", {})
    solved = []
    original = macdonald._expand_uncached

    def counted(lam, params, rows=None):
        solved.append(lam)
        return original(lam, params, rows)

    monkeypatch.setattr(macdonald, "_expand_uncached", counted)
    witness, probes = hunt_violation(Fraction(1, 2), Fraction(1, 3), n=4,
                                     max_weight=8)
    assert witness is not None and probes == 1
    assert solved == [witness.lam.parts, witness.mu.parts] * 2


def test_hunt_respects_budget():
    witness, probes = hunt_violation(Fraction(1, 2), Fraction(1, 3), n=2,
                                     max_weight=6, budget=0, seed=0)
    assert witness is None and probes == 0


def test_hunt_report_schema():
    report = hunt_report(Fraction(1, 2), Fraction(1, 3), n=2, max_weight=6,
                         budget=500, seed=0)
    data = report.to_json()
    assert list(data) == REPORT_KEYS
    assert data["command"] == "hunt"
    assert data["params"]["mode"] == "off-lattice"
    assert not report.passed


def test_hunt_report_enumerates_pairs_once(monkeypatch):
    calls = []
    original = lab.enumerate_pairs

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(lab, "enumerate_pairs", counted)
    report = hunt_report(Fraction(1, 2), Fraction(1, 3), n=2, max_weight=6,
                         budget=50)
    assert calls == [(2, 6, "same-weight-comparable")]
    assert report.samples == len(list(original(2, 6,
                                               "same-weight-comparable")))


def test_unknown_family_rejected():
    with pytest.raises(ParameterError):
        check_schur_convexity("schur-weyl", 2, 3)


def test_missing_parameters_rejected():
    with pytest.raises(ParameterError):
        check_schur_convexity("jack", 2, 3)  # no theta
    with pytest.raises(ParameterError):
        check_schur_convexity("macdonald-lattice", 2, 3, q=Fraction(1, 2))
    with pytest.raises(ParameterError):
        check_schur_convexity("heckman-opdam", 2, 3)  # no k


def test_negative_sample_window_rejected():
    with pytest.raises(DomainError):
        check_schur_convexity("muirhead", 2, 3, x_low=-1)


def load_benchmark_tracer():
    """bench/tracer.py as a module of its own, read from the checkout."""
    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "bench", "tracer.py")
    spec = importlib.util.spec_from_file_location("benchmark_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_wraps_and_restores_the_package():
    # the benchmark's tracer patches names the package must keep (lab's own
    # ho_eval binding among them) and reads each config it sees; a traced
    # run must work and leave every patched attribute as it found it
    tracer = load_benchmark_tracer().Tracer("test")
    try:
        tracer.install(omegalab)
        patched = list(tracer._patched)
        omegalab.ho_eval(omegalab.HOParams(1.5, 3), (1.3, 0.2, -0.9),
                         (0.9, 0.3, -0.6), QuadratureConfig(8))
        omegalab.check_schur_convexity("heckman-opdam", 2, 2, samples=2,
                                       seed=1, k=1, cfg=QuadratureConfig(8))
    finally:
        tracer.uninstall()
    assert tracer.names == ["heckman_opdam.ho_eval", "lab.sweep",
                            "partitions.enumerate_pairs"]
    assert tracer.metas[0]["n"] == 3 and tracer.metas[0]["nodes"] == 8
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, (owner, attr)
