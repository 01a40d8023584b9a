"""Exact linear-algebra kernels: triangular eigenfunction solves and dense
Gaussian elimination over rationals.

Both polynomial families built here (Macdonald and Jack) are characterized
as eigenfunctions of an operator that lowers in the dominance order: applied
to a monomial symmetric polynomial m_nu it returns eigenvalue(nu) * m_nu
plus terms supported strictly below nu.  The eigenfunction with leading term
m_lambda is then found by back-substitution along any linear extension of
dominance restricted to the ideal {nu : nu dominated by lambda, |nu|=|lambda|};
lexicographic-descending order is such an extension.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .errors import (DegeneracyError, DimensionMismatchError, DomainError,
                     OperatorRowError)
from .partitions import majorizes, partitions_of
from .sympoly import SymmetricPolynomial


def dominance_ideal(lam: Sequence[int], n: int) -> list[tuple]:
    """Partitions of |lam| with n parts dominated by lam, lex-descending.

    lam itself comes first; every later element is strictly below it.
    """
    lam = tuple(lam)
    out = [nu for nu in partitions_of(sum(lam), n) if majorizes(lam, nu)]
    if not out or out[0] != lam:
        raise DomainError(f"{lam} is not a partition with {n} parts")
    return out


def solve_eigen_expansion(lam: Sequence[int], n: int,
                          apply_to_monomial: Callable[[tuple], dict],
                          eigenvalue: Callable[[tuple], Fraction],
                          label: str = "") -> SymmetricPolynomial:
    """Back-substitute the triangular eigen system for the leading term m_lam.

    apply_to_monomial(nu) must return the monomial-basis row of the operator
    applied to m_nu as a dict {partition key: coefficient}.  Uniqueness of
    the solution needs eigenvalue(lam) != eigenvalue(nu) for every nu in the
    ideal; collisions raise DegeneracyError.  (Collisions between two
    non-leading ideal members are harmless: back-substitution never divides
    by their difference.)
    """
    lam = tuple(lam)
    ideal = dominance_ideal(lam, n)
    member = set(ideal)
    where = f" for {label}" if label else ""
    e_top = eigenvalue(lam)
    for nu in ideal[1:]:
        if eigenvalue(nu) == e_top:
            raise DegeneracyError(
                f"eigenvalue collision between {lam} and {nu}{where}")

    coeffs: dict[tuple, Fraction] = {}
    rows: dict[tuple, dict] = {}
    for pos, nu in enumerate(ideal):
        if pos == 0:
            coeffs[nu] = Fraction(1)
        else:
            total = Fraction(0)
            for rho, c in coeffs.items():
                total += c * rows[rho].get(nu, Fraction(0))
            coeffs[nu] = total / (e_top - eigenvalue(nu))
        row = apply_to_monomial(nu)
        # operator stability: the row must stay inside the dominance ideal,
        # with the eigenvalue itself on the diagonal
        outside = [key for key in row if key not in member]
        if outside:
            raise OperatorRowError(
                f"row of {nu} leaves the dominance ideal of {lam} at "
                f"{outside[0]}{where}")
        diagonal, expected = row.get(nu, Fraction(0)), eigenvalue(nu)
        if diagonal != expected:
            raise OperatorRowError(
                f"row of {nu} has diagonal {diagonal}, not the eigenvalue "
                f"{expected}{where}")
        rows[nu] = row
    return SymmetricPolynomial(n, coeffs)


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


def as_int_vector(v: Sequence) -> tuple[int, ...]:
    """Coerce to a tuple of exact ints; rejects anything fractional."""
    out = []
    for entry in v:
        i = int(entry)
        if i != entry:
            raise DomainError(f"expected an integer entry, got {entry!r}")
        out.append(i)
    return tuple(out)
