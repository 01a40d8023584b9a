"""Macdonald polynomials at fixed rational parameters.

Provides the monic dominance-triangular expansions P_lambda(x; q, t), their
normalizations Omega_lambda = P_lambda / P_lambda(t^delta), the dominant
q-lattice of evaluation points, shifted (interpolation) Macdonald
polynomials, the binomial-formula identity relating the two, and the
parameter-inversion identity.  Everything is exact rational arithmetic;
the operator rows and eigenvalues of the expansions are integers over one
scale per row table (_mac_scale).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from . import cache
from .eigensolve import (cached_rows, is_dominance_minimum,
                         solve_eigen_expansion, solve_linear_system)
from .errors import (DegeneracyError, DimensionMismatchError, DomainError,
                     ParameterError, count_text)
from .partitions import (as_int_vector, contains, partition_key,
                         partitions_of)
from .sympoly import (FamilyValues, SymmetricPolynomial, _decimal_text,
                      _parse_rational, distinct_permutations, monomial_eval)


def _iroot(m: int, r: int) -> int | None:
    """Exact r-th root of a nonnegative integer, or None."""
    if m < 2:
        return m
    # integer Newton from above: 2^ceil(bits/r) exceeds the root, and the
    # iterates decrease to floor(m^(1/r))
    x = 1 << -(-m.bit_length() // r)
    while True:
        y = ((r - 1) * x + m // x ** (r - 1)) // r
        if y >= x:
            return x if x ** r == m else None
        x = y


def rational_power(q: Fraction, theta: Fraction) -> Fraction:
    """q**theta when it is rational; ParameterError otherwise."""
    # a Fraction, so that q ** -k stays exact
    q = Fraction(_parse_rational(q))
    theta = _parse_rational(theta)
    if q <= 0:
        raise ParameterError("base must be positive")
    base = q ** theta.numerator
    r = theta.denominator
    if r == 1:
        return base
    num = _iroot(base.numerator, r)
    den = _iroot(base.denominator, r)
    if num is None or den is None:
        raise ParameterError(f"{q}**{theta} is not rational")
    return Fraction(num, den)


class MacdonaldParams:
    """Parameter bundle (q, t, a, n) with exact rational entries.

    q and t live in (0,1); a is a positive scale for the lattice.
    """

    __slots__ = ("q", "t", "a", "n")

    def __init__(self, q, t, n: int, a=Fraction(1), _relax=False):
        q, t, a = (Fraction(_parse_rational(v)) for v in (q, t, a))
        if _relax:
            if q <= 0 or t <= 0 or q == 1 or t == 1:
                raise ParameterError("need positive parameters, not equal to 1")
        elif not (0 < q < 1 and 0 < t < 1):
            raise ParameterError(f"need q, t in (0,1); got q={q}, t={t}")
        if a <= 0:
            raise ParameterError(f"need a > 0; got a={a}")
        if n < 1:
            raise ParameterError(f"need n >= 1; got n={n}")
        self.q = q
        self.t = t
        self.a = a
        self.n = int(n)

    @property
    def delta(self) -> tuple[int, ...]:
        return tuple(range(self.n - 1, -1, -1))

    def t_delta(self) -> tuple[Fraction, ...]:
        """The principal specialization point (t^(n-1), ..., t, 1)."""
        return tuple(self.t ** d for d in self.delta)

    def inverted(self) -> "MacdonaldParams":
        """Parameters (1/q, 1/t); only inversion_check may use the result."""
        return MacdonaldParams(1 / self.q, 1 / self.t, self.n, self.a,
                               _relax=True)

    def key(self) -> tuple:
        return (self.n, self.q, self.t)

    def __repr__(self):
        return (f"MacdonaldParams(q={self.q}, t={self.t}, n={self.n}, "
                f"a={self.a})")


def _alternant_terms(nu: tuple, n: int):
    """The terms of a_delta * m_nu at strictly decreasing exponents.

    a_delta * m_nu = sum_w eps(w) sum_{eta in orbit(nu)} x^(eta + w delta);
    yields (kappa, eps(w), eta, w delta) for each term with eta + w delta =
    kappa + delta strictly decreasing.  Those terms alone fix an alternating
    polynomial: its coefficient of a_(kappa+delta) is the one of
    x^(kappa+delta).
    """
    for eta in distinct_permutations(nu):
        # low[i]: the least entry i of a strictly decreasing eta + w delta,
        # given eta alone.  A branch below it cannot be completed; without
        # this cut the walk grew as 2^n even at nu = (2, 0, ..., 0)
        low = list(eta)
        for i in range(n - 2, -1, -1):
            low[i] = max(eta[i], low[i + 1] + 1)
        # place w delta one position at a time, the placed values kept as
        # the bits of used.  Entry i may take only the values v with
        # low[i] <= eta[i] + v < prev (low[i] >= eta[i], so v >= 0), and
        # they are scanned from the top; the sign flips once for each
        # larger value still unplaced, counted from the bits above the scan
        stack = [((), 0, -1, 1)]
        while stack:
            d, used, prev, sign = stack.pop()
            i = len(d)
            if i == n:
                yield (tuple(eta[k] + d[k] - (n - 1 - k) for k in range(n)),
                       sign, eta, d)
                continue
            e = eta[i]
            hi = n - 1 if prev < 0 else min(n - 1, prev - 1 - e)
            lo = low[i] - e
            if hi < lo:
                continue
            above = n - 1 - hi - (used >> (hi + 1)).bit_count()
            for v in range(hi, lo - 1, -1):
                if used >> v & 1:
                    continue
                stack.append((d + (v,), used | 1 << v, e + v,
                              -sign if above % 2 else sign))
                above += 1


# ceiling on the work of the Kostka table of one (n, weight), which the
# first operator row of that weight builds.  It walks each of the
# C(weight + n - 1, n - 1) exponent vectors of that weight once, at about
# n^2 + P steps a vector for the P partitions of the weight with n parts,
# and the rows walk each vector at most once more.  A step took 0.05 to
# 0.17 us from n = 3 (weight 100) through n = 7 (weight 10) to n = 100
# (weight 2 and 3), so 2^28 steps take under a minute
MAX_ROW_STEPS = 1 << 28


@functools.lru_cache(maxsize=32)
def _kostka(n: int, weight: int) -> dict:
    """{kappa: {mu: K_kappa,mu}}, s_kappa in the monomial basis.

    a_delta * m_mu = sum_kappa N_mu,kappa a_(kappa+delta) gives
    m_mu = sum_kappa N_mu,kappa s_kappa, unitriangular in dominance; it is
    inverted one shape at a time, lowest shape first.  Shared by every row
    of this (n, weight); the caller must not modify it.  A table past
    MAX_ROW_STEPS is refused before its walk starts.
    """
    shapes = list(partitions_of(weight, n))
    steps = math.comb(weight + n - 1, n - 1) * (n * n + len(shapes))
    if steps > MAX_ROW_STEPS:
        raise ParameterError(
            f"the operator rows of weight {weight} on {n} variables take "
            f"{count_text(steps)} steps, past the ceiling of {MAX_ROW_STEPS}")
    schur: dict = {}
    for mu in reversed(shapes):
        monomials = {mu: 1}
        for kappa, sign, _, _ in _alternant_terms(mu, n):
            if kappa != mu:
                for rho, k in schur[kappa].items():
                    monomials[rho] = monomials.get(rho, 0) - sign * k
        schur[mu] = {rho: k for rho, k in monomials.items() if k}
    return schur


def _mac_scale(n: int, weight: int, q: Fraction, t: Fraction) -> int:
    """The scale of every Macdonald row and eigenvalue of one weight on n
    variables: b^weight d^(n-1) for q = a/b, t = c/d.  Rows and eigenvalues
    are integers, the rational ones times this."""
    return q.denominator ** weight * t.denominator ** (n - 1)


def _apply_macdonald_op(nu: tuple, n: int, q: Fraction, t: Fraction) -> dict:
    """Monomial-basis row of the Macdonald q-difference operator on m_nu,
    times _mac_scale(n, |nu|, q, t), in integers.

    The operator is D = sum_i A_i(x;t) T_{q,x_i} with A_i = prod_{j != i}
    (t x_i - x_j)/(x_i - x_j), which is also a_delta^-1 sum_w eps(w)
    x^(w delta) sum_i t^((w delta)_i) T_{q,x_i} (Macdonald, Symmetric
    Functions and Hall Polynomials, VI (3.4)).  So a_delta * D m_nu is
    sum_w eps(w) sum_eta (sum_i t^((w delta)_i) q^(eta_i)) x^(eta + w delta),
    whose strictly decreasing exponents kappa + delta give D m_nu in the
    Schur basis; the Kostka numbers take it to monomials.  Over the scale,
    q^e is a^e b^(w-e) and t^k is c^k d^(n-1-k), for w = |nu|: every entry
    of nu is at most w.
    """
    # the table first: its ceiling covers this row's walk too
    weight = sum(nu)
    kostka = _kostka(n, weight)
    qn, qd, tn, td = q.numerator, q.denominator, t.numerator, t.denominator
    qpow = [qn ** e * qd ** (weight - e) for e in range(nu[0] + 1)]
    tpow = [tn ** k * td ** (n - 1 - k) for k in range(n)]
    schur: dict = {}
    for kappa, sign, eta, d in _alternant_terms(nu, n):
        c = sum(tpow[dk] * qpow[ek] for dk, ek in zip(d, eta))
        schur[kappa] = schur.get(kappa, 0) + sign * c
    row: dict = {}
    for kappa, c in schur.items():
        for mu, k in kostka[kappa].items():
            row[mu] = row.get(mu, 0) + c * k
    return {mu: c for mu, c in row.items() if c}


def _mac_eigenvalue(nu: tuple, n: int, q: Fraction, t: Fraction) -> int:
    """sum_i q^(nu_i) t^(n-1-i), times _mac_scale(n, |nu|, q, t), as the
    rows of nu's weight are."""
    qn, qd, tn, td = q.numerator, q.denominator, t.numerator, t.denominator
    weight = sum(nu)
    return sum(qn ** p * qd ** (weight - p) * tn ** (n - 1 - i) * td ** i
               for i, p in enumerate(nu))


def _expand_uncached(lam: tuple, params: MacdonaldParams,
                     rows: dict | None = None) -> SymmetricPolynomial:
    """The eigen-solve for P_lambda, reading and filling rows (nu -> operator
    row of weight |lambda| at params); None builds every row afresh, as
    certification needs."""
    n, q, t = params.n, params.q, params.t
    if is_dominance_minimum(lam):
        return SymmetricPolynomial.monomial(lam, n)
    return solve_eigen_expansion(
        lam, n,
        cached_rows({} if rows is None else rows,
                    lambda nu: _apply_macdonald_op(nu, n, q, t)),
        lambda nu: _mac_eigenvalue(nu, n, q, t),
        label=f"q={_decimal_text(q)}, t={_decimal_text(t)}")


def _source(lam: tuple, params: MacdonaldParams):
    """The memo key of P_lambda and the function that computes it on a
    miss."""
    def solve():
        # one row table per (params, weight), shared by every lambda
        rows = cache._memoized(("macdonald rows", params.key(), sum(lam)),
                               dict)[0]
        return _expand_uncached(lam, params, rows)

    return (("macdonald", params.key(), lam),
            lambda: cache.fetch("macdonald", params.n, lam, solve,
                                q=params.q, t=params.t))


def macdonald_expand(lam, params: MacdonaldParams) -> SymmetricPolynomial:
    """Monic Macdonald polynomial P_lambda(x; q, t) in the monomial basis."""
    return cache._memoized(*_source(partition_key(lam, params.n), params))[0]


def _coerce_point(x, n: int) -> tuple:
    if len(x) != n:
        raise DimensionMismatchError(f"point {tuple(x)} not of length {n}")
    return tuple(map(_parse_rational, x))


def _normalized(lam: tuple, params: MacdonaldParams):
    """(P_lambda, P_lambda(t^delta)) in one memo lookup, for lambda a
    partition key on params.n variables.  DegeneracyError when the
    normalizer is 0."""
    p, denom = cache._memoized(*_source(lam, params), params.t_delta)
    if denom == 0:
        raise DegeneracyError(
            f"P_{lam} vanishes at t^delta for q={params.q}, t={params.t}")
    return p, denom


class MacdonaldValues(FamilyValues):
    """Omega_lambda(x; q, t) for one parameter set, as integer pairs (N, D)
    with D > 0: each point is coerced and checked once in at(x), and each
    shape's kept form and normalizer (_normalized) are looked up once, on
    the first point that asks for the shape."""

    __slots__ = ("params",)

    def __init__(self, params: MacdonaldParams):
        super().__init__()
        self.params = params

    def _point(self, x):
        return _coerce_point(x, self.params.n)

    def _resolve(self, lam, n):
        return _normalized(partition_key(lam, n), self.params)


def omega_mac_eval(lam, params: MacdonaldParams, x) -> Fraction:
    """Omega_lambda(x; q, t) = P_lambda(x) / P_lambda(t^delta), exact; the
    one-shape case of MacdonaldValues, refusing in its order: x, lambda,
    then the normalizer."""
    omega = MacdonaldValues(params).at(x)
    return Fraction(*omega(partition_key(lam, params.n)))


class LatticePoint:
    """A dominant-lattice evaluation point with its integer label."""

    __slots__ = ("mu", "coords")

    def __init__(self, mu: tuple[int, ...], coords: tuple[Fraction, ...]):
        self.mu = mu
        self.coords = coords

    def __eq__(self, other):
        return (isinstance(other, LatticePoint)
                and self.mu == other.mu and self.coords == other.coords)

    def __repr__(self):
        return f"LatticePoint(mu={self.mu}, coords={self.coords})"


def lattice_point(mu, params: MacdonaldParams) -> LatticePoint:
    """Exact coordinates of the lattice point labeled by mu.

    mu is weakly decreasing with integer entries of either sign.  The i-th
    coordinate is a * q^(-mu_i) * t^(i-1): the largest scale factor rides on
    the lowest t-power, so coordinates come out strictly decreasing and the
    point set contains the interpolation grid q^kappa * t^delta.  The
    all-zero label gives a * t^delta as a multiset, and shifting the label
    by c * (1,...,1) rescales the point by q^(-c).
    """
    mu = as_int_vector(mu)
    if len(mu) != params.n:
        raise DimensionMismatchError(f"label {mu} not of length {params.n}")
    if any(mu[i] < mu[i + 1] for i in range(len(mu) - 1)):
        raise DomainError(f"label must be weakly decreasing: {mu}")
    q, t, a = params.q, params.t, params.a
    coords = tuple(a * q ** (-mu[i]) * t ** i for i in range(params.n))
    return LatticePoint(mu, coords)


def inversion_check(lam, params: MacdonaldParams, x):
    """Both sides of Omega_lambda(x; 1/q, 1/t) = t^((n-1)|lambda|) Omega_lambda(x; q, t).

    Returns (lhs, rhs, equal).
    """
    lam = partition_key(lam, params.n)
    x = _coerce_point(x, params.n)
    lhs = omega_mac_eval(lam, params.inverted(), x)
    rhs = params.t ** ((params.n - 1) * sum(lam)) * omega_mac_eval(lam, params, x)
    return lhs, rhs, lhs == rhs


def interpolation_node(kappa, params: MacdonaldParams) -> tuple[Fraction, ...]:
    """The grid point z(kappa) with z_i = q^(kappa_i) * t^(n-i)."""
    kappa = as_int_vector(kappa)
    if len(kappa) != params.n:
        raise DimensionMismatchError(f"node label {kappa} not of length {params.n}")
    q, t, n = params.q, params.t, params.n
    return tuple(q ** kappa[i] * t ** (n - 1 - i) for i in range(n))


def _solve_interpolation(mu: tuple,
                         params: MacdonaldParams) -> SymmetricPolynomial:
    """Leading-monic interpolation polynomial in the shifted variables.

    As a symmetric polynomial S(z) of degree |mu| it vanishes at z(kappa)
    for every partition kappa != mu with |kappa| <= |mu|, and its m_mu
    coefficient is 1.  The weight-|mu| component is then automatically the
    Macdonald polynomial P_mu(z).
    """
    n = params.n
    basis = [nu for w in range(sum(mu) + 1) for nu in partitions_of(w, n)]
    matrix = []
    rhs = []
    for kappa in basis:
        if kappa == mu:
            matrix.append([Fraction(int(nu == mu)) for nu in basis])
            rhs.append(Fraction(1))
        else:
            node = interpolation_node(kappa, params)
            matrix.append([monomial_eval(nu, node) for nu in basis])
            rhs.append(Fraction(0))
    try:
        sol = solve_linear_system(matrix, rhs)
    except DegeneracyError:
        raise DegeneracyError(
            f"singular interpolation system for mu={mu}, q={params.q}, "
            f"t={params.t}") from None
    poly = SymmetricPolynomial(n, dict(zip(basis, sol)))
    if poly.coefficient(mu) != 1:
        raise DegeneracyError(
            f"interpolation solve for mu={mu}, q={params.q}, t={params.t} "
            f"is not monic")
    return poly


def _interpolation_monic(mu: tuple, params: MacdonaldParams):
    """(S_mu, S_mu(z(mu))) in one memo lookup; the caller checks the
    value."""
    return cache._memoized(
        ("interpolation", params.key(), mu),
        lambda: _solve_interpolation(mu, params),
        lambda: interpolation_node(mu, params))


class ShiftedMacdonald:
    """Shifted Macdonald polynomial P*_mu, normalized to P*_mu(q^mu) = 1.

    Represented as a symmetric polynomial in the shifted variables
    z_i = u_i * t^(n-i); eval() applies the shift to its argument,
    eval_shifted() takes the z-variables directly.  It vanishes at
    u = q^kappa for every partition kappa != mu with |kappa| <= |mu|.
    """

    __slots__ = ("mu", "params", "zpoly")

    def __init__(self, mu: tuple, params: MacdonaldParams,
                 zpoly: SymmetricPolynomial):
        self.mu = mu
        self.params = params
        self.zpoly = zpoly

    @property
    def degree(self) -> int:
        return sum(self.mu)

    def eval_shifted(self, z) -> Fraction:
        return self.zpoly.eval(_coerce_point(z, self.params.n))

    def eval(self, u) -> Fraction:
        u = _coerce_point(u, self.params.n)
        t, n = self.params.t, self.params.n
        return self.eval_shifted(tuple(u[i] * t ** (n - 1 - i) for i in range(n)))

    def eval_label(self, kappa) -> Fraction:
        """Value at u = q^kappa, i.e. at the grid point z(kappa)."""
        return self.eval_shifted(interpolation_node(kappa, self.params))

    def __repr__(self):
        return f"ShiftedMacdonald(mu={self.mu}, {self.params!r})"


def shifted_macdonald(mu, params: MacdonaldParams) -> ShiftedMacdonald:
    """The interpolation polynomial P*_mu with P*_mu(q^mu) = 1."""
    mu = partition_key(mu, params.n)
    monic, norm = _interpolation_monic(mu, params)
    if norm == 0:
        raise DegeneracyError(
            f"interpolation polynomial vanishes at its own node: mu={mu}, "
            f"q={params.q}, t={params.t}")
    return ShiftedMacdonald(mu, params, (1 / norm) * monic)


def binomial_check(lam, params: MacdonaldParams, x) -> Fraction:
    """Residual of the binomial expansion of Omega_lambda at x (expected 0).

    Omega_lambda(x) is compared against
        sum over mu contained in lambda of
        S_mu(z(lambda)) / (S_mu(z(mu)) * P_mu(t^delta)) * S_mu(x)
    with S_mu the leading-monic interpolation polynomial; the normalization
    of P*_mu cancels in the ratio.
    """
    lam = partition_key(lam, params.n)
    x = _coerce_point(x, params.n)
    n = params.n
    z_lam = interpolation_node(lam, params)
    total = Fraction(0)
    for w in range(sum(lam) + 1):
        for mu in partitions_of(w, n):
            if not contains(lam, mu):
                continue
            s, den_node = _interpolation_monic(mu, params)
            _, den_principal = _normalized(mu, params)
            if den_node == 0:
                raise DegeneracyError(
                    f"zero denominator in binomial term mu={mu}, "
                    f"q={params.q}, t={params.t}")
            total += s.eval(z_lam) / (den_node * den_principal) * s.eval(x)
    return omega_mac_eval(lam, params, x) - total
