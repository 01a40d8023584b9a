"""Exact linear-algebra kernels: triangular eigenfunction solves and dense
Gaussian elimination over rationals.

Both polynomial families built here (Macdonald and Jack) are characterized
as eigenfunctions of an operator that lowers in the dominance order: applied
to a monomial symmetric polynomial m_nu it returns eigenvalue(nu) * m_nu
plus terms supported strictly below nu.  The eigenfunction with leading term
m_lambda is then found by back-substitution along any linear extension of
dominance restricted to the ideal {nu : nu dominated by lambda, |nu|=|lambda|};
lexicographic-descending order is such an extension.  The families pass
integer rows and eigenvalues, each over one scale per row table, and the
back-substitution is fraction-free: integer pending sums over one running
denominator, one Fraction per coefficient.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Callable, Sequence

from .errors import (DegeneracyError, DimensionMismatchError, DomainError,
                     OperatorRowError)
from .partitions import partition_key, partitions_of
from .sympoly import SymmetricPolynomial


@functools.lru_cache(maxsize=64)
def _block(weight: int, n: int) -> tuple:
    """(nu, prefix sums of nu) for every partition nu of weight with n
    parts, lex-descending.  Shared by every ideal of this (weight, n)."""
    return tuple((nu, tuple(itertools.accumulate(nu)))
                 for nu in partitions_of(weight, n))


def dominance_ideal(lam: Sequence[int], n: int) -> list[tuple]:
    """Partitions of |lam| with n parts dominated by lam, lex-descending.

    lam itself comes first; every later element is strictly below it.  A
    shape that is not a partition (partition_key), or has other than n
    parts, raises DomainError.
    """
    lam = partition_key(lam)
    if len(lam) != n:
        raise DomainError(f"{lam} is not a partition with {n} parts")
    top = tuple(itertools.accumulate(lam))
    return [nu for nu, sums in _block(sum(lam), n)
            if all(s <= b for s, b in zip(sums, top))]


def cached_rows(rows: dict, build: Callable[[tuple], dict]):
    """A row callable that reads rows first and builds (and keeps) a row
    only on a miss, so each nu is built once for all solves sharing rows."""
    def row(nu):
        got = rows.get(nu)
        if got is None:
            got = rows[nu] = build(nu)
        return got
    return row


def is_dominance_minimum(lam: Sequence[int]) -> bool:
    """Whether the dominance ideal of the partition lam is {lam} alone: the
    least partition of a weight on n parts is the balanced one, whose parts
    differ by at most 1."""
    return not lam or lam[0] - lam[-1] <= 1


def solve_eigen_expansion(lam: Sequence[int], n: int,
                          apply_to_monomial: Callable[[tuple], dict],
                          eigenvalue: Callable[[tuple], Fraction],
                          label: str = "") -> SymmetricPolynomial:
    """Back-substitute the triangular eigen system for the leading term m_lam.

    apply_to_monomial(nu) must return the monomial-basis row of the operator
    applied to m_nu as a dict {partition key: coefficient}; the solver only
    reads it, so rows may be shared between solves.  Uniqueness of the
    solution needs eigenvalue(lam) != eigenvalue(nu) for every nu in the
    ideal; collisions raise DegeneracyError.  (Collisions between two
    non-leading ideal members are harmless: back-substitution never divides
    by their difference.)  Every row is checked at every use, shared or not.

    Rows and eigenvalues may be integers or Fractions, and may all carry one
    common scale: c_nu (E_lam - E_nu) = sum_rho c_rho R_rho[nu] is
    homogeneous in (R, E), so the scale cancels.  The solve is
    fraction-free for integer rows (Bareiss, Math. Comp. 22, 1968): the
    pending sums are integer numerators over one running denominator, and
    each coefficient becomes one Fraction.  Fraction rows take the same
    steps with rational pending sums, and give the same coefficients.
    """
    lam = tuple(lam)
    ideal = dominance_ideal(lam, n)
    member = set(ideal)
    where = f" for {label}" if label else ""
    values = {nu: eigenvalue(nu) for nu in ideal}
    e_top = values[lam]
    for nu in ideal[1:]:
        if values[nu] == e_top:
            raise DegeneracyError(
                f"eigenvalue collision between {lam} and {nu}{where}")
    rows = []
    for nu in ideal:
        row = apply_to_monomial(nu)
        # operator stability: the row must stay inside the dominance ideal,
        # with the eigenvalue itself on the diagonal
        outside = [key for key in row if key not in member]
        if outside:
            raise OperatorRowError(
                f"row of {nu} leaves the dominance ideal of {lam} at "
                f"{outside[0]}{where}")
        diagonal = row.get(nu, 0)
        if diagonal != values[nu]:
            raise OperatorRowError(
                f"row of {nu} has diagonal {diagonal}, not the eigenvalue "
                f"{values[nu]}{where}")
        rows.append(row)

    coeffs: dict[tuple, Fraction] = {}
    # pending[mu] / den: sum of c_rho * row_rho[mu] over the solved rho.
    # Each row is scattered once its coefficient is known, and
    # lex-descending order puts every mu below nu after it
    pending: dict[tuple, int] = {}
    den = 1
    for nu, row in zip(ideal, rows):
        if nu == lam:
            p = 1
            coeffs[nu] = Fraction(1)
        else:
            p = pending.pop(nu, 0)
            if not p:
                continue
            g = e_top - values[nu]
            coeffs[nu] = Fraction(p, den * g)
            # c_nu = p / (den g): put the pending sums over den g first
            den *= g
            for mu in pending:
                pending[mu] *= g
        for mu, r in row.items():
            if mu != nu:
                pending[mu] = pending.get(mu, 0) + p * r
    # the keys are the ideal's partitions and the coefficients nonzero
    # Fractions, so the constructor need not check or wrap them again
    poly = SymmetricPolynomial(n)
    poly.terms = coeffs
    return poly


def solve_linear_system(matrix: list[list[Fraction]],
                        rhs: list[Fraction]) -> list[Fraction]:
    """Solve a square exact system by Gaussian elimination with pivoting.

    Raises DegeneracyError when the matrix is singular.
    """
    m = len(matrix)
    if any(len(row) != m for row in matrix) or len(rhs) != m:
        raise DimensionMismatchError(f"linear system is not {m} x {m}")
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])]
           for i, row in enumerate(matrix)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if pivot is None:
            raise DegeneracyError("singular linear system")
        if pivot != col:
            aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][m] for r in range(m)]

