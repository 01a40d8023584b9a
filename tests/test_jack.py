"""Jack expansions across the full parameter range, including both
degenerate endpoints and the lattice-scaling limit probe."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from omegalab.classical import expand_classical
from omegalab.errors import DomainError, ParameterError
from omegalab.jack import (JackParam, _apply_jack_op, _jack_scale,
                           jack_expand, jack_limit_probe, omega_jack_eval)
from omegalab.partitions import Partition

THETAS = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(2),
          Fraction(5)]


def rational_row(nu, n, theta):
    """The operator's row on m_nu: the integer row over its scale."""
    scale = _jack_scale(theta)
    return {mu: Fraction(c, scale)
            for mu, c in _apply_jack_op(nu, n, theta).items()}


def test_param_validation():
    assert JackParam("inf").is_infinite
    assert JackParam("oo").is_infinite
    assert JackParam(math.inf).is_infinite
    assert JackParam(Fraction(1, 2)).theta == Fraction(1, 2)
    assert JackParam(JackParam(2)) == JackParam(2)
    with pytest.raises(ParameterError):
        JackParam(Fraction(-1, 2))


def test_mixing_coefficient_formula():
    # In two variables the operator sends m_20 to
    # (2 + 4 theta) m_20 + 4 theta m_11 and fixes m_11 up to its eigenvalue
    # 2 theta, so triangularity forces
    # c = 4 theta / ((2 + 4 theta) - 2 theta) = 2 theta / (theta + 1).
    for theta in THETAS:
        row = rational_row((2, 0), 2, theta)
        assert row[(2, 0)] == 2 + 4 * theta
        assert row[(1, 1)] == 4 * theta
        assert rational_row((1, 1), 2, theta) == {(1, 1): 2 * theta}
        p = jack_expand((2, 0), theta)
        assert p.coefficient((1, 1)) == 2 * theta / (theta + 1)


def test_theta_one_is_schur():
    # Kostka numbers: s_(2,1) over three variables is m_21 + 2 m_111
    p = jack_expand((2, 1, 0), 1)
    assert p.coefficient((2, 1, 0)) == 1
    assert p.coefficient((1, 1, 1)) == 2
    # s_(2,0) = m_2 + m_11 = h_2
    assert jack_expand((2, 0), 1).coefficient((1, 1)) == 1


def test_theta_zero_is_monomial():
    p = jack_expand((3, 1, 0), 0)
    assert p.terms == {(3, 1, 0): 1}
    assert omega_jack_eval((2, 0), 0, (3, 1)) == Fraction(10, 2)


def test_infinite_theta_is_conjugate_elementary():
    # e_(2,1) over three variables, normalized at the all-ones point
    lam = Partition((2, 1, 0))
    e = expand_classical("elementary", lam.conjugate(2), 3)
    x = (Fraction(3), Fraction(2), Fraction(1, 2))
    expected = e.eval(x) / e.eval((Fraction(1),) * 3)
    assert omega_jack_eval(lam, "inf", x) == expected
    with pytest.raises(DomainError):
        jack_expand((2, 0), "inf")


def test_infinite_theta_tall_column():
    # lambda_1 > n: the conjugate has more parts than variables, which is
    # fine since every conjugate part is at most n; here e_(1,1,1,1) = e_1^4
    x = (Fraction(3), Fraction(2), Fraction(1))
    value = omega_jack_eval((4, 0, 0), "inf", x)
    assert value == (Fraction(6, 3)) ** 4


def test_normalization_at_ones():
    for theta in (0, Fraction(1, 2), 1, 2, "inf"):
        assert omega_jack_eval((2, 1, 0), theta, (1, 1, 1)) == 1


@settings(deadline=None, max_examples=15)
@given(st.fractions(min_value=Fraction(1, 8), max_value=8,
                    max_denominator=8))
def test_eigenfunction_property(theta):
    lam = (2, 1, 0)
    p = jack_expand(lam, theta)
    image = {}
    for key, coeff in p.terms.items():
        for nu, c in rational_row(key, 3, theta).items():
            image[nu] = image.get(nu, Fraction(0)) + coeff * c
    eig = (sum(v * (v - 1) for v in lam)
           + 2 * theta * sum((3 - 1 - i) * lam[i] for i in range(3)))
    for key, coeff in p.terms.items():
        assert image.get(key, Fraction(0)) == eig * coeff


def test_coefficient_nonnegativity_sample():
    for theta in (Fraction(1, 3), Fraction(1, 2), 1, 2, 5):
        for lam in ((3, 0, 0), (2, 1, 0), (2, 2, 0), (3, 1, 0), (2, 1, 1)):
            p = jack_expand(lam, theta)
            for key, coeff in p.terms.items():
                assert coeff >= 0, (theta, lam, key, coeff)


def test_eigenvalue_collision_shape():
    # (4, 2, 0) sits above shapes whose theta = 0 eigenvalues collide;
    # the deformed solve must still come back triangular and monic
    for theta in (Fraction(1, 2), 1, 2):
        p = jack_expand((4, 2, 0), theta)
        assert p.coefficient((4, 2, 0)) == 1
        for key, coeff in p.terms.items():
            assert sum(key) == 6
            assert coeff >= 0


def test_limit_probe_gap_shrinks():
    rows = jack_limit_probe((2, 1), 1, (4, 1), (10, 100))
    gaps = {k: gap for k, _, _, gap in rows}
    assert gaps[100] < gaps[10]
    jack_value = rows[0][2]
    assert rows[0][1] != jack_value  # finite scale really is off the limit


def test_limit_probe_rejects_bad_input():
    with pytest.raises(DomainError):
        jack_limit_probe((2, 1), "inf", (4, 1), (10,))
    with pytest.raises(DomainError):
        jack_limit_probe((2, 1), 1, (1, 4), (10,))
    with pytest.raises(DomainError):
        jack_limit_probe((2, 1), 0, (4, 1), (10,))
    with pytest.raises(DomainError):
        jack_limit_probe((2, 1), 1, (4, 1), (10, 0))


def test_eval_rejects_negative_coordinates():
    with pytest.raises(DomainError):
        omega_jack_eval((2, 0), 1, (3, -1))


def test_normalizer_is_evaluated_once_per_expansion(monkeypatch):
    # every normalizer is evaluated once per memo entry, however often it is
    # used: Jack at (1,...,1) for theta = 0, 1/2 and infinity, Macdonald at
    # t^delta, and the interpolation polynomial S_mu at its node z(mu).
    # Point values are sums of the cleared forms kept in the entries, so
    # the normalizers are the only polynomial evaluations
    from omegalab import cache, macdonald, sympoly
    monkeypatch.setattr(cache, "_MEMO", {})
    seen = []
    evaluate = sympoly.poly_eval

    def counted(p, x):
        seen.append((p, tuple(x)))
        return evaluate(p, x)

    monkeypatch.setattr(sympoly, "poly_eval", counted)
    ones = (Fraction(1),) * 3
    points = ((3, 2, 1), (Fraction(1, 2), Fraction(1, 3), 0), (5, 5, 4))
    shapes = ((2, 1, 0), (1, 1, 1))

    def reference(lam, theta):
        if theta == "inf":
            conj = Partition(lam).conjugate(lam[0])
            return expand_classical("elementary", conj, 3)
        return jack_expand(lam, theta)

    for theta in (0, Fraction(1, 2), "inf"):
        for x in points:
            for lam in shapes:
                value = omega_jack_eval(lam, theta, x)
                p = reference(lam, theta)
                assert value == evaluate(p, x) / evaluate(p, ones)
    assert [x for _, x in seen].count(ones) == 3 * len(shapes)
    assert len(seen) == 3 * len(shapes)

    mp = macdonald.MacdonaldParams(Fraction(1, 2), Fraction(1, 3), 3)
    seen.clear()
    for x in points:
        for lam in shapes:
            macdonald.omega_mac_eval(lam, mp, x)
    assert [x for _, x in seen].count(mp.t_delta()) == len(shapes)
    assert len(seen) == len(shapes)

    # S_lambda is evaluated at z(lambda) by every binomial_check of lambda,
    # so only the shapes strictly inside lambda are counted
    lam = (2, 1, 0)
    inside = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0))
    seen.clear()
    for mu in inside:
        for _ in range(2):
            macdonald.shifted_macdonald(mu, mp)
    for x in points:
        assert macdonald.binomial_check(lam, mp, x) == 0
    for mu in inside:
        s, _ = macdonald._interpolation_monic(mu, mp)
        node = macdonald.interpolation_node(mu, mp)
        assert sum(1 for p, x in seen if p is s and x == node) == 1
