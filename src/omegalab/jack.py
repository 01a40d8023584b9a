"""Jack polynomials at rational theta in [0, infinity].

Expansions are computed directly at the given theta by an exact triangular
eigen-solve (never through the q -> 1 limit); the limit itself is examined
separately by jack_limit_probe, the only non-exact path in the module.
theta = 0 reduces to normalized monomials and theta = infinity to elementary
polynomials of the conjugate shape.
"""

from __future__ import annotations

import decimal
import math
from fractions import Fraction
from typing import Sequence

from . import cache, sympoly
from .classical import expand_classical
from .eigensolve import (cached_rows, dominance_ideal,
                         solve_eigen_expansion)
from .errors import DegeneracyError, DomainError, ParameterError
from .macdonald import MacdonaldParams, macdonald_expand
from .partitions import Partition, partition_key
from .sympoly import (SymmetricPolynomial, _decimal_text, _form_sum,
                      poly_eval_float)

INFINITE = math.inf


class JackParam:
    """The deformation parameter: an exact nonnegative rational, or infinity."""

    __slots__ = ("theta",)

    def __init__(self, theta):
        if isinstance(theta, JackParam):
            theta = theta.theta
        if theta == INFINITE:
            self.theta = INFINITE
            return
        if isinstance(theta, str) and theta.strip() in ("inf", "oo"):
            self.theta = INFINITE
            return
        theta = Fraction(theta)
        if theta < 0:
            raise ParameterError(f"need theta >= 0; got {theta}")
        self.theta = theta

    @property
    def is_infinite(self) -> bool:
        return self.theta == INFINITE

    def __eq__(self, other):
        return isinstance(other, JackParam) and self.theta == other.theta

    def __hash__(self):
        return hash(self.theta)

    def __repr__(self):
        return f"JackParam({'inf' if self.is_infinite else self.theta})"


def _apply_jack_op(nu: tuple, n: int, theta: Fraction) -> dict:
    """Monomial-basis row of the theta-deformed differential operator on m_nu.

    The operator is sum_i x_i^2 d_i^2 + 2 theta sum_{i<j}
    (x_i^2 d_i - x_j^2 d_j)/(x_i - x_j).  Paired with its (i, j)-swap, each
    monomial's pair term is a geometric sum, (x_i^P x_j^R - x_i^R x_j^P) /
    (x_i - x_j), so the row is read off nu directly (Stanley, Adv. Math. 77,
    1989).  The diagonal is sum nu_i (nu_i - 1) + 2 theta sum_{i<j}
    max(nu_i, nu_j); the coefficient of m_mu below nu is
        2 theta sum_{i<j} sum_{b < min(mu_i, mu_j)} (a - b)
            [sort(mu with mu_i -> a, mu_j -> b) = nu],  a = mu_i + mu_j - b,
    and the mu that occur move two parts (a, b) of nu to (k, a + b - k)
    for b < k < a.
    """
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    row = {nu: sum(p * (p - 1) for p in nu)
           + 2 * theta * sum(max(nu[i], nu[j]) for i, j in pairs)}
    if theta:
        targets = set()
        for i, j in pairs:
            a, b = nu[i], nu[j]
            for k in range(b + 1, a):
                mu = list(nu)
                mu[i], mu[j] = k, a + b - k
                targets.add(tuple(sorted(mu, reverse=True)))
        for mu in targets:
            count = 0
            for i, j in pairs:
                for b in range(min(mu[i], mu[j])):
                    a = mu[i] + mu[j] - b
                    spread = list(mu)
                    spread[i], spread[j] = a, b
                    if tuple(sorted(spread, reverse=True)) == nu:
                        count += a - b
            row[mu] = 2 * theta * count
    return {mu: Fraction(c) for mu, c in row.items() if c}


def _jack_eigenvalue(nu: tuple, n: int, theta: Fraction) -> Fraction:
    return (sum(p * (p - 1) for p in nu)
            + 2 * theta * sum((n - 1 - i) * nu[i] for i in range(n)))


def _solve(lam: tuple, n: int, th: Fraction,
           rows: dict) -> SymmetricPolynomial:
    """The eigen-solve for P_lambda, reading and filling rows (nu -> operator
    row of weight |lambda| at theta)."""
    if len(dominance_ideal(lam, n)) == 1:
        return SymmetricPolynomial.monomial(lam, n)
    return solve_eigen_expansion(
        lam, n,
        cached_rows(rows, lambda nu: _apply_jack_op(nu, n, th)),
        lambda nu: _jack_eigenvalue(nu, n, th),
        label=f"theta={_decimal_text(th)}")


def _source(lam: tuple, theta: JackParam):
    """The memo key of P_lambda and the function that computes it on a miss.

    theta = 0 gives the monomial and theta = infinity the elementary
    polynomial of the conjugate shape; only finite positive theta reaches
    the disk cache.
    """
    n = len(lam)
    th = theta.theta

    def solve():
        # one row table per (n, weight, theta), shared by every lambda
        rows = cache._memoized(("jack rows", n, sum(lam), th), dict)[0]
        return _solve(lam, n, th, rows)

    def compute():
        if theta.is_infinite:
            conj = Partition(lam).conjugate(max(lam[0], 1))
            return expand_classical("elementary", conj, n)
        if th == 0:
            # the operator is diagonal at theta = 0 (and has eigenvalue
            # collisions there); the eigenfunctions are the monomials
            return SymmetricPolynomial.monomial(lam, n)
        return cache.fetch("jack", n, lam, solve, theta=th)

    return ("jack", n, lam, th), compute


def _ones(lam: tuple):
    return lambda: (Fraction(1),) * len(lam)


def _normalized(lam: tuple, theta: JackParam):
    """(P_lambda, P_lambda(1,...,1)) in one memo lookup; the caller checks
    the normalizer."""
    return cache._memoized(*_source(lam, theta), _ones(lam))


def jack_expand(lam, theta) -> SymmetricPolynomial:
    """Monic Jack polynomial P_lambda(x; theta) in the monomial basis.

    Finite theta only; the infinite parameter has no monomial-triangular
    expansion of this shape and is handled by omega_jack_eval.
    """
    theta = JackParam(theta)
    if theta.is_infinite:
        raise DomainError("jack_expand needs finite theta; "
                          "use omega_jack_eval for the infinite parameter")
    return cache._memoized(*_source(partition_key(lam), theta))[0]


def _coerce_nonneg_point(x) -> tuple[Fraction, ...]:
    pt = tuple(Fraction(v) for v in x)
    if any(v < 0 for v in pt):
        raise DomainError(f"need nonnegative coordinates; got {pt}")
    return pt


def _positive(lam: tuple, theta: JackParam):
    def check(denom):
        if denom <= 0:
            raise DegeneracyError(
                f"normalizer {denom} of lambda={lam}, theta={theta!r} at "
                f"(1,...,1) is not positive")
    return check


def omega_jack_at(theta, x):
    """lambda -> Omega_lambda(x; theta), with theta and x coerced and
    checked once.

    Each shape then costs one memo lookup and one integer sum: the memo
    entry of P_lambda keeps the cleared form of P_lambda / P_lambda(1,...,1)
    (cache._memoized_form), and x is cleared of denominators here.  A
    non-positive normalizer raises DegeneracyError.
    """
    theta = JackParam(theta)
    x = _coerce_nonneg_point(x)
    n = len(x)
    X, d = sympoly._cleared(x)

    def omega(lam) -> Fraction:
        lam = partition_key(lam, n)
        form = cache._memoized_form(*_source(lam, theta), _ones(lam),
                                    _positive(lam, theta))
        return _form_sum(form, X, d)

    return omega


def omega_jack_eval(lam, theta, x) -> Fraction:
    """Omega_lambda(x; theta): the Jack polynomial normalized to 1 at (1,...,1).

    theta = 0 gives m_lambda(x)/m_lambda(1), theta = infinity gives
    e_conj(x)/e_conj(1) for the conjugate shape, finite positive theta
    evaluates the monic expansion.  Exact.  lambda is a partition on
    len(x) variables (partition_key), padded with zeros.  The one-shape
    case of omega_jack_at.
    """
    return omega_jack_at(theta, x)(lam)


def _floor_scaled_log(k: int, ratio: Fraction) -> int:
    """floor(k * log(ratio)) with a guard against boundary misrounding."""
    value = k * math.log(ratio)
    if abs(value - round(value)) < 2.0 ** -40:
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            d = (decimal.Decimal(ratio.numerator)
                 / decimal.Decimal(ratio.denominator)).ln() * k
            return int(d.to_integral_value(rounding=decimal.ROUND_FLOOR))
    return math.floor(value)


def jack_limit_probe(lam, theta, x, ks: Sequence[int]):
    """Watch Macdonald values at shrinking lattice scales approach Jack values.

    For each k: q = exp(-1/k), t = exp(-theta/k), label entries
    mu_j = floor(k*log(x_j/a)) with a = x_n/2, and the probe point
    x^(k)_j = a * q^(-mu_j) * t^(n-j), which converges to x coordinatewise.
    The floating parameters are rationalized exactly (binary values as
    fractions), the expansion is solved exactly, and only the final
    evaluation is floating.  Returns a list of
    (k, macdonald value, jack value, absolute gap).
    """
    theta = JackParam(theta)
    if theta.is_infinite or theta.theta <= 0:
        raise DomainError("the limit probe needs finite positive theta")
    x = tuple(Fraction(v) for v in x)
    n = len(x)
    if any(x[i] <= x[i + 1] for i in range(n - 1)) or x[-1] <= 0:
        raise DomainError(f"need strictly decreasing positive x; got {x}")
    ks = [int(k) for k in ks]
    if any(k < 1 for k in ks):
        raise DomainError(f"need lattice scales k >= 1; got {min(ks)}")
    lam = partition_key(lam, n)
    a = x[-1] / 2
    th = float(theta.theta)
    jack_val = float(omega_jack_eval(lam, theta, x))
    out = []
    for k in ks:
        q = math.exp(-1.0 / k)
        t = math.exp(-th / k)
        mu = tuple(_floor_scaled_log(k, xj / a) for xj in x)
        if any(mu[i] < mu[i + 1] for i in range(n - 1)):
            raise DegeneracyError(f"lattice label {mu} at scale {k} is not "
                                  "weakly decreasing")
        xk = tuple(float(a) * q ** (-mu[j]) * t ** (n - 1 - j)
                   for j in range(n))
        params = MacdonaldParams(Fraction(q), Fraction(t), n)
        p = macdonald_expand(lam, params)
        mac_val = poly_eval_float(p, xk) / poly_eval_float(
            p, tuple(t ** d for d in params.delta))
        out.append((k, mac_val, jack_val, abs(mac_val - jack_val)))
    return out
