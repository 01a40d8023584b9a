"""Hypergeometric functions attached to the root system of the symmetric group.

F_{k,s}(x) is evaluated numerically by peeling off one variable at a time:
the n-variable value is an integral of the (n-1)-variable function over the
box of points interlacing x, against an explicit positive weight.  The
cases n = 1, k = 0 and uniform x are closed forms.  One recursion serves
every other case: it evaluates a batch of L spectral vectors at a batch of
points, builds the tensor node grid of all n-1 interlacing dimensions, and
calls itself once on the flattened grid, down to two variables.  There a
leaf integrates over the one remaining dimension with the one-variable
base case exp(s0 * nu) folded into its node sum; factors that depend on
the point alone are computed once per point, and each node's whole term is
one exponential, so a weight that underflows gives 0, never 0 * inf.
Nodes and weights depend on x and k only, so the L vectors share them, and
the inequality sweeps evaluate every shape they need at a point in one
pass per node count.  Batches are split along rows at a fixed grid size
of 2^13 elements, so memory per level is bounded by L times that size (or
by L times one point's grid, when that is larger), and no value depends
on the split or on the other vectors in its batch.  A value out of
floating range raises instead of being returned.  This is the only module
in the package that works in floating point end to end; everything it is
checked against (Jack evaluations) stays exact until the final comparison.

Conventions: F is symmetric in x and in s separately, F(0) = 1, and
F_{k, lam + k*rho}(x) = Omega_lam(e^x; k) ties the family to the Jack side.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np

from .errors import DegeneracyError, DomainError, ParameterError, TieError
from .jack import JackParam, _normalized as _jack_normalized
from .macdonald import _as_key
from .sympoly import poly_eval_float

SINGULARITY_RULES = ("plain-gauss", "endpoint-substitution")


def _whole(value, what: str) -> int:
    """value as an int; a count with a fractional part raises instead of
    being truncated."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value:
        raise ParameterError(f"need an integral {what}; got {value!r}")
    return whole


class HOParams:
    """Multiplicity k >= 0 and variable count n, plus the derived vectors."""

    __slots__ = ("k", "n")

    def __init__(self, k, n: int):
        k = float(k)
        if not math.isfinite(k) or k < 0:
            raise ParameterError(f"need multiplicity k >= 0; got {k}")
        n = _whole(n, "variable count")
        if n < 1:
            raise ParameterError(f"need at least one variable; got n={n}")
        self.k = k
        self.n = n

    @property
    def rho(self) -> tuple:
        """The half-sum vector ((n-1)/2, (n-3)/2, ..., -(n-1)/2), exact."""
        return tuple(Fraction(self.n - 1 - 2 * i, 2) for i in range(self.n))

    @property
    def xi(self) -> tuple:
        """The diagonal direction used by the derivative identity."""
        return (1.0,) * self.n

    def basis(self, i: int) -> tuple:
        if not 0 <= i < self.n:
            raise DomainError(f"need a basis index in [0, {self.n}); got {i}")
        return tuple(1.0 if j == i else 0.0 for j in range(self.n))

    def __repr__(self):
        return f"HOParams(k={self.k}, n={self.n})"


class QuadratureConfig:
    """Tensor Gauss-Legendre settings for the interlacing integrals.

    nodes_per_dimension counts nodes per panel; the endpoint-substitution
    rule splits every dimension into two panels at its midpoint and, for
    k < 1, bends each panel with the power map u -> u^(1/k) so that the
    boundary factor |e^{x_i} - e^{nu_j}|^(k-1) integrates exactly smoothly.
    """

    __slots__ = ("nodes_per_dimension", "singularity_rule", "min_gap")

    def __init__(self, nodes_per_dimension: int = 64,
                 singularity_rule: str = "endpoint-substitution",
                 min_gap: float = 1e-8):
        nodes_per_dimension = _whole(nodes_per_dimension,
                                     "nodes_per_dimension")
        if nodes_per_dimension < 4:
            raise ParameterError(
                f"need nodes_per_dimension >= 4; got {nodes_per_dimension}")
        if singularity_rule not in SINGULARITY_RULES:
            raise ParameterError(f"unknown singularity rule "
                                 f"{singularity_rule!r}; "
                                 f"choose from {SINGULARITY_RULES}")
        min_gap = float(min_gap)
        if not min_gap > 0:
            raise ParameterError(f"need min_gap > 0; got {min_gap}")
        self.nodes_per_dimension = nodes_per_dimension
        self.singularity_rule = singularity_rule
        self.min_gap = min_gap

    def with_nodes(self, nodes: int) -> "QuadratureConfig":
        return QuadratureConfig(nodes, self.singularity_rule, self.min_gap)

    def __repr__(self):
        return (f"QuadratureConfig(nodes_per_dimension="
                f"{self.nodes_per_dimension}, singularity_rule="
                f"{self.singularity_rule!r}, min_gap={self.min_gap})")


@functools.lru_cache(maxsize=None)
def _unit_gauss(m: int):
    """Gauss-Legendre nodes and weights on [0, 1], read-only."""
    z, w = np.polynomial.legendre.leggauss(m)
    u = (z + 1.0) / 2.0
    w = w / 2.0
    u.setflags(write=False)
    w.setflags(write=False)
    return u, w


# floor for endpoint displacements: keeps 0^(k-1) out of the weight factors
# on zero-width boxes (those nodes carry weight 0, so the value is unused);
# the leaf floors the product of its two edge factors with it
_TINY = 1e-300


@functools.lru_cache(maxsize=64)
def _unit_panels(m: int, k: float, rule: str):
    """One dimension's node offsets and weight factors per unit of box
    scale, read-only: (a, b, jac, w) gives dlo = scale * a, dhi = scale * b
    and wts = scale * jac * w, or scale * w where jac is None.  The scale is
    the box length under plain-gauss and half of it otherwise."""
    u, w = _unit_gauss(m)
    if rule == "plain-gauss":
        a, b, jac = u, 1.0 - u, None
    elif k >= 1.0:
        # weight is bounded; two plain panels per dimension
        a = np.concatenate([u, 1.0 + u])
        b = np.concatenate([2.0 - u, 1.0 - u])
        jac, w = None, np.concatenate([w, w])
    else:
        # k < 1: nu = endpoint +- half * u^(1/k) turns the (nu-endpoint)^(k-1)
        # factor into a constant; the Jacobian goes into the weights
        g = u ** (1.0 / k)
        jac = (1.0 / k) * u ** (1.0 / k - 1.0)
        a = np.concatenate([g, 2.0 - g])
        b = np.concatenate([2.0 - g, g])
        jac, w = np.concatenate([jac, jac]), np.concatenate([w, w])
    for v in (a, b, jac, w):
        if v is not None:
            v.setflags(write=False)
    return a, b, jac, w


def _panel_nodes(lo, hi, k: float, cfg: QuadratureConfig):
    """Quadrature nodes for one interlacing dimension.

    lo and hi may be scalars or broadcastable arrays; the node axis is
    appended last.  Returns (tau, dlo, dhi, wts) where dlo = tau - lo and
    dhi = hi - tau are taken from the map itself, so they stay accurate
    even when tau is within rounding distance of an endpoint.  Weights
    absorb the affine and power-map Jacobians; the per-unit factors come
    from _unit_panels, built once per node count, k and rule.
    """
    lo = np.asarray(lo, dtype=float)[..., None]
    hi = np.asarray(hi, dtype=float)[..., None]
    a, b, jac, w = _unit_panels(cfg.nodes_per_dimension, k,
                                cfg.singularity_rule)
    scale = hi - lo
    if cfg.singularity_rule != "plain-gauss":
        scale = scale / 2.0
    dlo = scale * a
    wts = scale * w if jac is None else scale * jac * w
    return lo + dlo, dlo, scale * b, wts


def _weighted_edges(wts, elo, etau, dlo, dhi, k: float):
    """wts * (e^tau - e^lo)^(k-1) * (e^hi - e^tau)^(k-1), stably.

    e^tau - e^lo is written e^lo * expm1(dlo) so a node that rounds onto
    its endpoint still produces the true small difference instead of 0.
    The weight is folded in between the two factors: each near-endpoint
    factor is large exactly where wts is small, and the running product
    stays near unit scale instead of overflowing.
    """
    glo = elo * np.expm1(np.maximum(dlo, _TINY))
    ghi = etau * np.expm1(np.maximum(dhi, _TINY))
    return (wts * glo ** (k - 1.0)) * ghi ** (k - 1.0)


# elements in one level's node grid; larger batches are split along rows,
# which bounds memory and leaves every point's value unchanged.  The step
# ignores the number L of spectral vectors, so a level holds L times this
# many values: dividing it by L as well cut an n=3 sweep's 2m-node level
# into 12-row chunks and gave back half of the batching gain
_BATCH = 2 ** 13

# A batch's temporaries are freed at the top of the heap, and glibc hands
# such memory back to the system past a trim threshold (128 KiB at start),
# then faults it in again for the next batch.  Whether that happens depends
# on where earlier allocations left the heap top, and it cost up to a third
# of an n=4 evaluation.  Freeing one memory-mapped block raises the
# threshold to twice the block's size (glibc's dynamic mmap threshold), so
# one short-lived 2 MiB array, never touched, ends the churn.
np.empty(_BATCH * 32)


def _f_rec(k: float, s, x: list, tilt, vpow: float, cfg: QuadratureConfig):
    """F_{k,s}(x) * exp(tilt * sum(x)) * V(e^x)^vpow for a batch of spectral
    vectors at a batch of points, as an array of shape (len(s), points).

    s is an (L, n) array with n >= 2, one spectral vector per row, and tilt
    a scalar or one value per row; x holds one array per coordinate, sorted
    decreasingly at every point; V is the Vandermonde product.  The caller
    passes its drift tilt and node Vandermonde down instead of spending
    passes over its node grid on them; they fold into this level's
    prefactor.  Nodes and weights depend on x and k only, so one tree
    serves every row of s, and each row's value is the one it would get
    alone.  Two variables are the leaf, which also does the one-variable
    base case.
    """
    n = s.shape[1]
    per_dim = cfg.nodes_per_dimension * (
        1 if cfg.singularity_rule == "plain-gauss" else 2)
    size = per_dim ** (n - 1)
    step = max(1, _BATCH // size)
    if x[0].size > step:
        return np.concatenate([
            _f_rec(k, s, [v[i:i + step] for v in x], tilt, vpow, cfg)
            for i in range(0, x[0].size, step)], axis=1)
    # a node that rounded onto a shared endpoint leaves tied coordinates;
    # such a point is skipped and gets weight 0
    strict = np.logical_and.reduce([x[j] > x[j + 1] for j in range(n - 1)])
    tied = not strict.all()
    if tied:
        x = [v[strict] for v in x]
    value = (_leaf(k, s, x[0], x[1], tilt, vpow, cfg) if n == 2
             else _level(k, s, x, tilt, vpow, cfg, per_dim, size))
    if not tied:
        return value
    # most batches have no tied row; a gather and a scatter through the
    # 2-d mask cost some 10 us, and an 8-node n=4 evaluation makes over
    # 2,000 calls
    padded = np.zeros((s.shape[0], strict.size))
    padded[:, strict] = value
    return padded


def _level(k: float, s, x: list, tilt, vpow: float, cfg: QuadratureConfig,
           per_dim: int, size: int):
    """One level of _f_rec for n >= 3 at strictly decreasing points: the
    tensor node grid of the n-1 interlacing dimensions, and one call on
    the flattened grid for the level below."""
    count, n = s.shape
    rows = x[0].size
    sn = s[:, -1]
    ex = [np.exp(v) for v in x]
    pref = (math.gamma(n * k) / math.gamma(k) ** n
            * np.exp((tilt + sn + k * (n - 1) / 2.0)[:, None] * sum(x)))
    expo = vpow + 1.0 - 2.0 * k
    if expo != 0.0:
        pref = pref * np.abs(math.prod(ex[i] - ex[j] for i in range(n)
                                       for j in range(i + 1, n))) ** expo
    shape = (rows,) + (per_dim,) * (n - 1)
    nu = []
    for j in range(n - 1):
        tau, dlo, dhi, wts = _panel_nodes(x[j + 1], x[j], k, cfg)
        if k != 1.0:
            # each nu_j sees its two box endpoints (stable form) plus the
            # other coordinates of x; a node whose exponential rounds onto
            # such a coordinate's (one an ulp outside the box) gets weight
            # 0, as a tied point does, instead of 0 ** (k - 1)
            etau = np.exp(tau)
            wts = _weighted_edges(wts, ex[j + 1][:, None], etau, dlo, dhi, k)
            for i in range(n):
                if i not in (j, j + 1):
                    gap = np.abs(ex[i][:, None] - etau)
                    live = gap > 0.0
                    wts = np.where(live, wts * np.where(live, gap, 1.0)
                                   ** (k - 1.0), 0.0)
        dims = (rows,) + (1,) * j + (per_dim,)
        grid = wts if j == 0 else grid[..., None] * wts.reshape(dims)
        nu.append(np.broadcast_to(tau.reshape(dims + (1,) * (n - 2 - j)),
                                  shape).reshape(-1))
    inner = _f_rec(k, s[:, :-1], nu, 1.0 - n * k / 2.0 - sn, 1.0, cfg)
    return pref * np.sum(
        grid.reshape(rows, size) * inner.reshape(count, rows, size), axis=-1)


@functools.lru_cache(maxsize=64)
def _leaf_panels(m: int, k: float, rule: str):
    """The leaf's per-node constants as read-only columns: the offsets
    -(a, b) of _unit_panels per unit of box width, stacked into one
    (2 * nodes, 1) column, and log(jac * w) plus the logs of the gamma
    ratio and of the scale per unit width.  The log of jac is taken factor
    by factor, so it stays finite where jac underflows (at small k,
    u^(1/k - 1) does)."""
    a, b, jac, w = _unit_panels(m, k, rule)
    half = 1.0 if rule == "plain-gauss" else 0.5
    logjw = (np.log(w) + math.log(half)
             + (math.lgamma(2.0 * k) - 2.0 * math.lgamma(k)))
    if jac is not None:
        u = _unit_gauss(m)[0]
        logjac = (1.0 / k - 1.0) * np.log(u) - math.log(k)
        logjw = logjw + np.concatenate([logjac, logjac])
    offsets = np.concatenate([a, b])[:, None] * -half
    logjw = logjw[:, None]
    offsets.setflags(write=False)
    logjw.setflags(write=False)
    return offsets, logjw


def _leaf(k: float, s, x0, x1, tilt, vpow: float, cfg: QuadratureConfig):
    """_f_rec's n = 2 level at strictly decreasing points (x0, x1), with the
    base case F_{k,s0}(nu) = exp(s0 * nu) folded into its node sum.

    With dlo = nu - x1 and dhi = x0 - nu, the node term
        wts * (e^nu - e^x1)^(k-1) * (e^x0 - e^nu)^(k-1) * exp(c * nu),
    where c = s0 + 1 - k - s1 is s0 plus the tilt the generic level would
    pass down, splits into a row factor scale * e^((k-1)(x0 + x1) + c * x1)
    and a node factor
        jac * w * (m(dlo) * m(dhi))^(k-1) * e^((s0 - s1) * dlo),
    where m(d) = 1 - e^-d, and e^((k-1) dlo) has joined e^(c dlo).  All of
    it, with the prefactor and the Vandermonde power, is summed as one
    exponent per node: a factor near an endpoint is large exactly where
    the weight is small, so the exponent stays moderate, and a node whose
    weight underflows gives 0, never 0 * inf.  m(dlo) * m(dhi) is floored
    at _TINY, which only a box narrower than about 1e-150 or a node offset
    that underflows reaches (u^(1/k) does for k below about 0.02 at 64
    nodes).
    """
    offsets, logjw = _leaf_panels(cfg.nodes_per_dimension, k,
                                  cfg.singularity_rule)
    nodes = logjw.shape[0]
    width = x0 - x1
    if k == 1.0:
        nlo = offsets[:nodes] * width
        node = logjw
    else:
        offsets = offsets * width
        nlo = offsets[:nodes]
        edges = np.expm1(offsets)
        node = np.multiply(edges[:nodes], edges[nodes:], out=edges[:nodes])
        np.maximum(node, _TINY, out=node)
        np.log(node, out=node)
        node *= k - 1.0
        node += logjw
    # the row exponent: log width (which never rounds to 0), the
    # Vandermonde power of e^x0 - e^x1 = e^x0 * m(width), and the
    # coefficients of x0 and x1 that the prefactor, the edge factors and
    # the base case add up to
    s0, s1 = s[:, 0], s[:, 1]
    row = (np.log(width)
           + (vpow + 1.0 - 2.0 * k) * np.log(-np.expm1(-width)))
    row = (row + (tilt + s1 + (vpow - k / 2.0))[:, None] * x0
           + (tilt + s0 + k / 2.0)[:, None] * x1)
    terms = np.multiply.outer(s1 - s0, nlo)
    terms += node
    terms += row[:, None, :]
    np.exp(terms, out=terms)
    if x0.size > 1:
        # summed node by node; numpy sums a lone row pairwise instead
        return terms.sum(axis=1)
    return functools.reduce(np.add, terms.transpose(1, 0, 2))


def _sorted_checked(x, min_gap: float):
    xs = sorted((float(v) for v in x), reverse=True)
    if not all(math.isfinite(v) for v in xs):
        raise DomainError(f"need finite coordinates; got {x}")
    if xs[0] == xs[-1]:
        return xs, True
    for i in range(len(xs) - 1):
        if xs[i] - xs[i + 1] < min_gap:
            raise TieError(
                f"coordinates {xs[i]} and {xs[i + 1]} are closer than "
                f"min_gap={min_gap}; perturb the point or raise the gap")
    return xs, False


def _ho_eval_batch(params: HOParams, svecs, x, cfg: QuadratureConfig) -> list:
    """ho_eval at x for every spectral vector in svecs, from one tree.

    The checks, closed forms and shortcuts of ho_eval apply to each s, and
    each value equals ho_eval(params, s, x, cfg) bit for bit.  A value that
    overflows or is lost to nan raises DegeneracyError.
    """
    try:
        values = _ho_values(params, svecs, x, cfg)
    except OverflowError:
        values = [math.inf]
    for v in values:
        if not math.isfinite(v):
            raise DegeneracyError(
                f"F_{{k,s}}(x) is {v} in floating point at k={params.k}, "
                f"x={tuple(x)} with {cfg.nodes_per_dimension} nodes per "
                f"panel; the value is out of floating range or the "
                f"quadrature lost it")
    return values


def _ho_values(params: HOParams, svecs, x, cfg: QuadratureConfig) -> list:
    """_ho_eval_batch's values, before the finiteness check."""
    n = params.n
    svecs = [tuple(float(v) for v in s) for s in svecs]
    for s in svecs:
        if len(s) != n or len(x) != n:
            raise DomainError(f"need length-{n} vectors; got s={s}, "
                              f"x={tuple(x)}")
        if not all(math.isfinite(v) for v in s):
            raise DomainError(f"need finite spectral vector; got {s}")
    if n == 1:
        return [math.exp(s[0] * float(x[0])) for s in svecs]
    if params.k == 0.0:
        return [ho_closed_forms(params, s, x) for s in svecs]
    xs, uniform = _sorted_checked(x, cfg.min_gap)
    ss = [tuple(sorted(s, reverse=True)) for s in svecs]
    mean = sum(xs) / n
    if uniform:
        return [math.exp(sum(s) * mean) for s in ss]
    if cfg.singularity_rule == "plain-gauss" and params.k < 1.0:
        # stacklevel 4 names the line that called ho_eval or _ho_eval_and_gap
        warnings.warn("plain-gauss with k < 1 leaves the endpoint "
                      "singularity unresolved; expect degraded accuracy",
                      stacklevel=4)
    centered = [np.array([v - mean]) for v in xs]
    values = _f_rec(params.k, np.array(ss), centered, 0.0, 0.0, cfg)[:, 0]
    return [math.exp(sum(s) * mean) * float(v) for s, v in zip(ss, values)]


def ho_eval(params: HOParams, s, x, cfg: QuadratureConfig = None) -> float:
    """F_{k,s}(x) by recursive quadrature; closed forms where they exist.

    x and s are sorted internally (F is symmetric in each), the diagonal
    part of x is split off exactly as exp(mean(x)*sum(s)), and the
    remaining trace-free part goes through the interlacing recursion.
    """
    return _ho_eval_batch(params, [s], x, cfg or QuadratureConfig())[0]


def ho_closed_forms(params: HOParams, s, x) -> float:
    """Exact branches: k = 0 (symmetrized exponential) and n = 1."""
    n = params.n
    s = tuple(float(v) for v in s)
    x = tuple(float(v) for v in x)
    if n == 1:
        return math.exp(s[0] * x[0])
    if params.k != 0.0:
        raise DomainError("closed forms cover k = 0 or n = 1 only; "
                          f"got k={params.k}, n={n}")
    acc = 0.0
    for perm in itertools.permutations(x):
        acc += math.exp(sum(si * xi for si, xi in zip(s, perm)))
    return acc / math.factorial(n)


def ho_jack_consistency(lam, params: HOParams, x,
                        cfg: QuadratureConfig = None) -> float:
    """Relative gap between F_{k, lam+k*rho}(x) and Omega_lam(e^x; k).

    The right side is evaluated from the exact expansion at rational
    theta = k, floated only at the end; the left side is quadrature.
    """
    theta = JackParam(Fraction(params.k))
    lam = _as_key(lam, params.n)
    s = tuple(float(Fraction(li) + theta.theta * r)
              for li, r in zip(lam, params.rho))
    p, denom = _jack_normalized(lam, theta)
    y = [math.exp(float(v)) for v in x]
    jack_side = poly_eval_float(p, y) / float(denom)
    ho_side = ho_eval(params, s, x, cfg)
    if not jack_side > 0:
        raise DegeneracyError(
            f"Omega_{lam}(e^x; k={params.k}) is {jack_side} in floating "
            f"point at x={tuple(x)}; the relative gap is undefined")
    return abs(ho_side - jack_side) / jack_side


def ho_direction_residual(params: HOParams, s, x, h: float,
                          cfg: QuadratureConfig = None) -> float:
    """How well the diagonal derivative identity holds at x.

    Central difference of F along the all-ones direction, compared with
    sum(s) * F(x); returns |difference| / |F(x)|.
    """
    h = float(h)
    if not h > 0:
        raise DomainError(f"need step h > 0; got {h}")
    s = tuple(float(v) for v in s)
    x = tuple(float(v) for v in x)
    up = tuple(v + h for v in x)
    down = tuple(v - h for v in x)
    f0 = ho_eval(params, s, x, cfg)
    f_up = ho_eval(params, s, up, cfg)
    f_down = ho_eval(params, s, down, cfg)
    derivative = (f_up - f_down) / (2.0 * h)
    if f0 == 0.0:
        raise DegeneracyError(f"F_{{k,s}}(x) is 0 in floating point at "
                              f"x={x}; the relative residual is undefined")
    return abs(derivative - sum(s) * f0) / abs(f0)


def _ho_eval_and_gap(params: HOParams, svecs, x,
                     cfg: QuadratureConfig = None) -> list:
    """(F at m nodes, ho_error_estimate's gap) for every s in svecs, from
    one quadrature pass at m nodes and one at 2m."""
    cfg = cfg or QuadratureConfig()
    coarse = _ho_eval_batch(params, svecs, x, cfg)
    fine = _ho_eval_batch(params, svecs, x,
                          cfg.with_nodes(2 * cfg.nodes_per_dimension))
    return [(c, abs(f - c)) for c, f in zip(coarse, fine)]


def ho_error_estimate(params: HOParams, s, x,
                      cfg: QuadratureConfig = None) -> float:
    """Self-consistency gap |F at m nodes - F at 2m nodes|.

    Ten times this value is the working quadrature tolerance used by the
    inequality sweeps.
    """
    return _ho_eval_and_gap(params, [s], x, cfg)[0][1]
