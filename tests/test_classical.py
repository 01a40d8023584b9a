"""Classical bases: monomial means, elementary, power sums."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from omegalab import classical, lab
from omegalab.classical import (MuirheadValues, expand_classical,
                                muirhead_eval, muirhead_gap, powersum_compare,
                                powersum_eval)
from omegalab.errors import DomainError
from omegalab.partitions import Partition, enumerate_pairs, partitions_of


def nonneg_points(n, hi=6):
    coords = st.fractions(min_value=0, max_value=hi, max_denominator=12)
    return st.tuples(*[coords] * n)


def test_expand_monomial_is_trivial():
    p = expand_classical("monomial", (2, 1), 2)
    assert p.coefficient((2, 1)) == 1
    assert len(p.terms) == 1


def test_expand_elementary():
    # e_2 in three variables is m_(1,1,0)
    p = expand_classical("elementary", (2,), 3)
    assert p.coefficient((1, 1, 0)) == 1
    assert len(p.terms) == 1
    # e_(2,1) = e_2 e_1 = m_(2,1,0) + 3 m_(1,1,1)
    p = expand_classical("elementary", (2, 1), 3)
    assert p.coefficient((2, 1, 0)) == 1
    assert p.coefficient((1, 1, 1)) == 3


def test_elementary_degree_above_dimension_rejected():
    with pytest.raises(DomainError):
        expand_classical("elementary", (3,), 2)


def test_expand_powersum():
    # p_(1,1) = (x + y)^2 = m_(2,0) + 2 m_(1,1)
    p = expand_classical("powersum", (1, 1), 2)
    assert p.coefficient((2, 0)) == 1
    assert p.coefficient((1, 1)) == 2
    # each zero part contributes a constant factor p_0 = n
    p = expand_classical("powersum", (2, 0, 0), 3)
    assert p.coefficient((2, 0, 0)) == 9


def test_expand_rejects_unknown_family():
    with pytest.raises(DomainError):
        expand_classical("schur", (1,), 1)


def test_muirhead_eval_examples():
    # (x^2 + y^2)/2 and xy at (4, 1)
    assert muirhead_eval((2, 0), (4, 1)) == Fraction(17, 2)
    assert muirhead_eval((1, 1), (4, 1)) == 4
    # normalization: value 1 at the all-ones point
    assert muirhead_eval((3, 1, 0), (1, 1, 1)) == 1


@given(nonneg_points(2))
def test_muirhead_two_variable_inequality(x):
    # (x^2 + y^2)/2 >= xy, the simplest comparable pair
    assert muirhead_eval((2, 0), x) >= muirhead_eval((1, 1), x)


@given(st.sampled_from(list(enumerate_pairs(3, 5, "same-weight-comparable"))),
       nonneg_points(3))
def test_muirhead_theorem_on_comparable_pairs(pair, x):
    lam, mu = pair
    assert muirhead_eval(lam, x) >= muirhead_eval(mu, x)


@given(nonneg_points(4, hi=5))
def test_muirhead_values_are_the_muirhead_means(x):
    omega = MuirheadValues().at(x)
    for w in range(6):
        for lam in partitions_of(w, 4):
            num, den = omega(lam)
            assert den > 0 and Fraction(num, den) == muirhead_eval(lam, x)


def test_a_muirhead_sweep_builds_each_shape_once(monkeypatch):
    # one orbit size per distinct shape, not one per (shape, point)
    sizes = []
    orbit_size = classical.orbit_size

    def counted(lam):
        sizes.append(tuple(lam))
        return orbit_size(lam)

    monkeypatch.setattr(classical, "orbit_size", counted)
    report = lab.check_schur_convexity("muirhead", 4, 6, samples=10, seed=3)
    assert report.samples == 10 and report.passed
    shapes = {p for pair in enumerate_pairs(4, 6, "same-weight-comparable")
              for p in pair}
    assert len(sizes) == len(set(sizes)) == len(shapes) == 25


def test_muirhead_gap_sign():
    assert muirhead_gap((2, 0), (1, 1), (4, 1)) == Fraction(9, 2)
    assert muirhead_gap((2, 0), (1, 1), (1, 1)) == 0


def test_powersum_eval_matches_expansion():
    x = (Fraction(3, 2), Fraction(1, 3), Fraction(2))
    for lam in ((2, 1, 0), (3, 0, 0), (1, 1, 1)):
        expanded = expand_classical("powersum", lam, 3).eval(x)
        assert powersum_eval(lam, x) == expanded


def test_powersum_zero_part_contributes_n():
    # the label is padded to the point's length first
    assert powersum_eval((0,), (5, 7)) == 4
    assert powersum_eval((2, 0), (2, 1)) == 5 * 2


def test_powersum_compare():
    lhs, rhs, sign = powersum_compare((2, 0), (1, 1), (2, 1))
    assert (lhs, rhs, sign) == (10, 9, "+")
    assert powersum_compare((1, 1), (1, 1), (2, 1))[2] == "="


@given(st.sampled_from(list(enumerate_pairs(2, 6, "same-weight-comparable"))),
       nonneg_points(2))
def test_powersum_majorization_monotonicity(pair, x):
    lam, mu = pair
    assert powersum_eval(lam, x) >= powersum_eval(mu, x)
