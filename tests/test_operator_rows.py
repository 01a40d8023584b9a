"""Jack and Macdonald operator rows against the operators' definitions.

The eigen-solve uses the same row functions it is solved with, so an
eigenfunction check there cannot catch a wrong row.  Here each operator is
applied to m_nu from its definition at exact rational points with distinct
coordinates, and compared with sum_mu row[mu] m_mu at those points, each
integer row taken over its scale.
"""

import math
import random
from fractions import Fraction

import pytest

from omegalab.jack import _apply_jack_op, _jack_scale
from omegalab.macdonald import _apply_macdonald_op, _mac_scale
from omegalab.partitions import partitions_of
from omegalab.sympoly import distinct_permutations, monomial_eval


def distinct_points(n, count, seed):
    """count rational points, each with n distinct coordinates."""
    rng = random.Random(seed)
    points = []
    while len(points) < count:
        x = tuple(Fraction(rng.randint(1, 40), rng.randint(1, 7))
                  for _ in range(n))
        if len(set(x)) == n:
            points.append(x)
    return points


def jack_operator(nu, x, theta):
    """sum_i x_i^2 d_i^2 m_nu + 2 theta sum_{i<j} (x_i^2 d_i - x_j^2 d_j)
    m_nu / (x_i - x_j) at x, from the derivatives of each monomial."""
    n = len(x)
    second = Fraction(0)
    first = [Fraction(0)] * n        # x_i^2 d_i m_nu
    for eta in distinct_permutations(nu):
        power = math.prod(v ** e for v, e in zip(x, eta))
        for i in range(n):
            second += eta[i] * (eta[i] - 1) * power
            first[i] += eta[i] * power * x[i]
    return second + 2 * theta * sum(
        (first[i] - first[j]) / (x[i] - x[j])
        for i in range(n) for j in range(i + 1, n))


def macdonald_operator(nu, x, q, t):
    """sum_i prod_{j != i} (t x_i - x_j)/(x_i - x_j) m_nu(x with x_i -> q x_i)."""
    n = len(x)
    total = Fraction(0)
    for i in range(n):
        shifted = x[:i] + (q * x[i],) + x[i + 1:]
        value = sum(math.prod(v ** e for v, e in zip(shifted, eta))
                    for eta in distinct_permutations(nu))
        total += value * math.prod((t * x[i] - x[j]) / (x[i] - x[j])
                                   for j in range(n) if j != i)
    return total


# each row function's scale: its rows are the operator's times this
SCALES = {
    _apply_jack_op: lambda nu, n, theta: _jack_scale(theta),
    _apply_macdonald_op: lambda nu, n, q, t: _mac_scale(n, sum(nu), q, t),
}


@pytest.mark.parametrize("row_of, operator, params", [
    (_apply_jack_op, jack_operator, (Fraction(0),)),
    (_apply_jack_op, jack_operator, (Fraction(2, 3),)),
    (_apply_jack_op, jack_operator, (Fraction(5),)),
    (_apply_macdonald_op, macdonald_operator, (Fraction(1, 2), Fraction(1, 3))),
    (_apply_macdonald_op, macdonald_operator, (Fraction(2, 3), Fraction(3, 7))),
])
def test_rows_match_the_operator_definition(row_of, operator, params):
    # more points than shapes of the weight, so a wrong row cannot agree
    # at all of them by accident; a row with one entry changed must fail
    for n in range(1, 5):
        for w in range(7):
            shapes = list(partitions_of(w, n))
            points = distinct_points(n, len(shapes) + 1, seed=10 * n + w)
            for nu in shapes:
                scale = SCALES[row_of](nu, n, *params)
                row = {mu: Fraction(c, scale)
                       for mu, c in row_of(nu, n, *params).items()}

                def agrees(row):
                    return all(operator(nu, x, *params) == sum(
                        c * monomial_eval(mu, x) for mu, c in row.items())
                        for x in points)

                assert agrees(row), (n, nu, params, row)
                below = [mu for mu in row if mu != nu]
                if below:
                    assert not agrees({**row, below[-1]: row[below[-1]] + 1})
