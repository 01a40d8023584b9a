"""Hypergeometric functions attached to the root system of the symmetric group.

F_{k,s}(x) is evaluated numerically by peeling off one variable at a time:
the n-variable value is an integral of the (n-1)-variable function over the
box of points interlacing x, against an explicit positive weight.  The
cases n = 1, k = 0, uniform x and k = 1 are closed forms.  At k = 1 it is
Harish-Chandra's determinant formula, taken in long double by an
elimination that keeps each entry's relative accuracy; it loses digits
near a tie in s or x, so it serves a spectral vector only where a
first-order bound beta on its rounding error is at most DETERMINANT_BOUND
= 1e-13 and n is at most DETERMINANT_MAX_VARIABLES = 32, and every other
k = 1 vector falls back to the quadrature, vector by vector.  One
recursion serves every other case: it evaluates a batch of L spectral
vectors at a batch of points, builds the tensor node grid of all n-1
interlacing dimensions, and calls itself once on the flattened grid, down
to two variables.  Each level works in logs: it adds its node weights, edge
factors and prefactor as exponents, each difference of exponentials taken
from the gap of its exponents, and passes the sum down.  There a leaf
integrates over the one remaining dimension with the one-variable base
case exp(s0 * nu) folded into its node sum; factors that depend on the
point alone are computed once per point, and each node's whole term, from
every level above, is one exponential, so a weight that underflows gives
0, never 0 * inf.
Each interlacing dimension gets m nodes, one Gauss-Jacobi panel whose
weight carries the edge factors' endpoint behaviour.  For k < 1 a box whose
nearest outside coordinate lies within R0 box widths of it gets 2m instead,
two power-mapped Gauss-Legendre panels of m nodes each, one from either
end: only the power map resolves the near singularity there.  The choice is
made per point and dimension, and a level groups its points by it.  Both
layouts are mirror-symmetric bit for bit: a node's offset from its box's
upper end, and its weight, are its mirror's offset from the lower end and
weight, so each level and the leaf compute the box-end edge factors once
per mirror pair, for both its nodes.
Nodes and weights depend on x and k only, so the L vectors share them, and
the inequality sweeps evaluate every shape they need at a point in one
pass per node count.  Each grid builder splits its rows at a fixed grid size
of 2^13 elements, so memory per level is bounded by L times that size (or
by L times one point's grid, when that is larger; the leaf may take four
times that size over all L), and no value depends on the split or on the
other vectors in its batch.  The work of one evaluation is capped before
any node is built (MAX_NODES, MAX_NODE_TERMS), counting only the vectors
that reach the quadrature.  A value out of floating range raises instead
of being returned.  This is the only module in the package that works in
floating point end to end; everything it is checked against (Jack
evaluations) stays exact until the final comparison.

Conventions: F is symmetric in x and in s separately, F(0) = 1, and
F_{k, lam + k*rho}(x) = Omega_lam(e^x; k) ties the family to the Jack side.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from fractions import Fraction

import numpy as np

from .errors import (DegeneracyError, DomainError, ParameterError, TieError,
                     count_text)
from .jack import JackParam, _normalized as _jack_normalized
from .partitions import partition_key
from .sympoly import poly_eval_float


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


def _real(value, what: str) -> float:
    """value as a float; a value that is not a number, or is out of
    floating range, raises instead of leaking float()'s own error."""
    try:
        return float(value)
    except OverflowError:
        raise ParameterError(f"{what} is out of floating range") from None
    except (TypeError, ValueError):
        raise ParameterError(f"need a real {what}; got {value!r}") from None


# the least positive multiplicity.  The node tables read k back from
# alpha = k - 1, which keeps fewer of its digits the smaller k is: against
# the k = 0 closed form at n = 4, ho_eval is within 5e-7 down to k = 1e-11
# but 1.3e-4 off at 1e-12, and near 1e-16 alpha + 1 rounds to 0
MIN_POSITIVE_K = 1e-10


class HOParams:
    """Multiplicity k = 0 or k >= MIN_POSITIVE_K, and variable count n, plus
    the derived vectors."""

    __slots__ = ("k", "n")

    def __init__(self, k, n: int):
        k = _real(k, "multiplicity k")
        if not math.isfinite(k) or k < 0:
            raise ParameterError(f"need multiplicity k >= 0; got {k}")
        if 0 < k < MIN_POSITIVE_K:
            raise ParameterError(f"need multiplicity k = 0 or k >= "
                                 f"{MIN_POSITIVE_K}; got {k}")
        n = _whole(n, "variable count")
        if n < 1:
            raise ParameterError(f"need at least one variable; got n={n}")
        self.k = k
        self.n = n

    @property
    def rho(self) -> tuple:
        """The half-sum vector ((n-1)/2, (n-3)/2, ..., -(n-1)/2), exact."""
        return tuple(Fraction(self.n - 1 - 2 * i, 2) for i in range(self.n))

    def __repr__(self):
        return f"HOParams(k={self.k}, n={self.n})"


# ceilings on the work of one evaluation.  A node table of m nodes costs a
# dense m x m eigen-solve, some 0.3 s at 1024 (so ho_error_estimate, which
# doubles m, takes m up to 512).  An evaluation sums at most
# per_dim^(n(n-1)/2) node terms per spectral vector, per_dim = 2m for k < 1
# (every dimension near an outside coordinate) and m for k >= 1; 2^32 of
# them take about a minute.  The workloads, criteria and sweeps stay far
# below both: an n = 4 call at 8 nodes and k = 1/2 sums at most 16^6.  The
# k = 0 closed form sums n! exponentials per vector in Python, 1.1 to
# 1.4 us each at n = 8 to 10, so 2^26 of them take about a minute: one
# vector at n = 11 runs, and n = 12 is refused
MAX_NODES = 1024
MAX_NODE_TERMS = 2 ** 32
MAX_PERMUTATION_TERMS = 2 ** 26


class QuadratureConfig:
    """Tensor Gauss rule settings for the interlacing integrals.

    nodes_per_dimension, at most MAX_NODES, counts nodes per panel.  The
    rule integrates the boundary factor |e^{x_i} - e^{nu_j}|^(k-1) exactly:
    with one Gauss-Jacobi panel per dimension for the weight
    (1-z)^(k-1) (1+z)^(k-1), and for k < 1, on a box with an outside
    coordinate within R0 box widths, by splitting the box into two
    Gauss-Legendre panels at its midpoint, each bent with the power map
    u -> u^(1/k) so that the factor integrates smoothly.  min_gap is the
    tie threshold: coordinates closer than it are refused.
    """

    __slots__ = ("nodes_per_dimension", "min_gap")

    # endpoint-substitution is the only rule, so this is no setting, and
    # instances cannot set it.  The benchmark's span tracer (bench/tracer.py,
    # _ho_meta) reads it from every config an ho_eval call passes and fails
    # without it; it goes when the tracer moves onto the package's own
    # counts (ROADMAP item 1)
    singularity_rule = "endpoint-substitution"

    def __init__(self, nodes_per_dimension: int = 64, min_gap: float = 1e-8):
        nodes_per_dimension = _whole(nodes_per_dimension,
                                     "nodes_per_dimension")
        if nodes_per_dimension < 4:
            raise ParameterError(f"need nodes_per_dimension >= 4; got "
                                 f"{count_text(nodes_per_dimension)}")
        if nodes_per_dimension > MAX_NODES:
            raise ParameterError(
                f"nodes_per_dimension={count_text(nodes_per_dimension)} is "
                f"above the ceiling of {MAX_NODES}")
        min_gap = _real(min_gap, "min_gap")
        if not min_gap > 0:
            raise ParameterError(f"need min_gap > 0; got {min_gap}")
        self.nodes_per_dimension = nodes_per_dimension
        self.min_gap = min_gap

    def with_nodes(self, nodes: int) -> "QuadratureConfig":
        return QuadratureConfig(nodes, self.min_gap)

    def __repr__(self):
        return (f"QuadratureConfig(nodes_per_dimension="
                f"{self.nodes_per_dimension}, min_gap={self.min_gap})")


def _unit_gauss(m: int):
    """Gauss-Legendre nodes and weights on [0, 1]: _unit_jacobi's rule at
    alpha = 0, so no path imports numpy.polynomial (some 6 ms on its first
    call), and its weights are the more accurate (at 48 nodes the worst
    relative weight error is 7.9e-14, against 1.3e-12 for leggauss)."""
    z, w = _unit_jacobi(m, 0.0)
    return (z + 1.0) / 2.0, w / 2.0


def _unit_jacobi(m: int, alpha: float):
    """Gauss-Jacobi nodes and weights on [-1, 1] for the weight
    (1 - z)^alpha (1 + z)^alpha.  Golub and Welsch (Math. Comp.
    23, 1969): the nodes are the eigenvalues of the symmetric Jacobi matrix
    of the orthonormal polynomials, and each weight is the total mass times
    the squared first component of its eigenvector.  The weight is even, so
    the matrix has a zero diagonal, and the rule is symmetrized as leggauss
    symmetrizes its own.  The first off-diagonal entry is taken in its
    cancelled form, sqrt(1/(3 + 2 alpha)): the general one is 0/0 at
    alpha = -1/2."""
    j = np.arange(2.0, m)
    off = np.sqrt(j * (j + 2.0 * alpha)
                  / ((2.0 * j + 2.0 * alpha) ** 2 - 1.0))
    off = np.concatenate([[math.sqrt(1.0 / (3.0 + 2.0 * alpha))], off])
    z, vectors = np.linalg.eigh(np.diag(off, -1))
    mass = 2.0 ** (2.0 * alpha + 1.0) * math.exp(
        2.0 * math.lgamma(alpha + 1.0) - math.lgamma(2.0 * alpha + 2.0))
    w = mass * vectors[0] ** 2
    z = (z - z[::-1]) / 2.0
    w = (w + w[::-1]) / 2.0
    return z, w


# floor for the levels' node offsets and the leaf's product of two edge
# factors: an offset that underflows to 0 (u^(1/k) does for k below about
# 0.02 at 64 nodes), or at the leaf a box narrower than about 1e-150,
# would put log 0 into an edge factor's exponent
_TINY = 1e-300


@functools.lru_cache(maxsize=64)
def _unit_panels(m: int, k: float):
    """One dimension's nodes per unit of box width, read-only: (ab, logw,
    mirror), where ab[0] and ab[1] are the node offsets from the box's lower
    and upper ends, dlo = width * ab[0] and dhi = width * ab[1], and logw is
    the log of each node's weight per unit width, so a node's weight is
    width * exp(logw).  The panel is laid out on half the width; that
    halving is folded into both.

    The table is one Gauss-Jacobi panel of m nodes for the weight
    (1-z)^(k-1) (1+z)^(k-1), the way the edge factors vanish (k > 1) or
    blow up (k < 1) at the box ends.  The levels apply those factors
    themselves, so the rule's weight is divided out here; they bring back
    the half width's 2(k-1)th power with it.  _power_panels gives the other
    table, for boxes near an outside coordinate at k < 1.

    Both tables are mirror-symmetric bit for bit: a node's ab[1] and logw
    are its mirror's ab[0] and logw, so its dhi is its mirror's dlo, and one
    edge-factor computation serves both nodes of a pair.  mirror holds
    three slices of the node axis, (lower, centre, upper): the nodes of
    upper are, in order, the mirrors of the nodes of lower, the one node an
    odd count leaves in centre is its own mirror, and lower and centre
    together are the first nodes."""
    # one panel, mirrored end to end; an odd count leaves a centre node
    half = m // 2
    mirror = (slice(0, half), slice(half, m - half),
              slice(m - 1, m - 1 - half, -1))
    z, w = _unit_jacobi(m, k - 1.0)
    a, b = 1.0 + z, 1.0 - z
    ab = np.stack([a, b]) * 0.5
    logw = np.log(w) - (k - 1.0) * np.log(a * b) + math.log(0.5)
    ab.setflags(write=False)
    logw.setflags(write=False)
    return ab, logw, mirror


@functools.lru_cache(maxsize=64)
def _power_panels(m: int, k: float):
    """_unit_panels' table for a box near an outside coordinate at k < 1:
    2m nodes, two power-mapped Gauss-Legendre panels of m nodes each, one
    from either end.

    nu = endpoint +- half * u^(1/k) turns the (nu-endpoint)^(k-1) factor
    into a constant, and the Jacobian (1/k) u^(1/k - 1) goes into the
    weights.  Its log is taken factor by factor, so it stays finite where
    the Jacobian underflows (at small k it does).  An outside coordinate at
    relative gap g from the box's end puts a singularity at distance g in
    the box and at about g^k in u, which the panel resolves where
    Gauss-Jacobi does not."""
    u, w = _unit_gauss(m)
    g = u ** (1.0 / k)
    ab = np.stack([np.concatenate([g, 2.0 - g]),
                   np.concatenate([2.0 - g, g])]) * 0.5
    logw = (np.log(w) + (1.0 / k - 1.0) * np.log(u) - math.log(k)
            + math.log(0.5))
    logw = np.concatenate([logw, logw])
    # each panel is the other's mirror, node for node
    mirror = (slice(0, m), slice(m, m), slice(m, 2 * m))
    ab.setflags(write=False)
    logw.setflags(write=False)
    return ab, logw, mirror


# a k < 1 box whose nearest outside coordinate lies closer than R0 times its
# width takes _power_panels' table.  Gauss-Jacobi alone read 1.0585 for
# 1.0313 on the continuity test's near tie at 16 nodes (k = 0.1)
R0 = 0.1


def _log_m(d):
    """log m(d), m(d) = 1 - e^-d, for gaps d > 0: e^a - e^b = e^a m(a - b)
    in logs, from the gap alone, never from two rounded exponentials."""
    return np.log(-np.expm1(-d))


# elements in one level's node grid; larger batches are split along rows,
# which bounds memory and leaves every point's value unchanged.  The step
# ignores the number L of spectral vectors, so a level holds L times this
# many values: dividing it by L as well cut an n=3 sweep's 2m-node level
# into 12-row chunks and gave back half of the batching gain
_BATCH = 2 ** 13

# the leaf's calls are short, so a fixed cost per call (some 45 us) weighs
# on them: a leaf batch may hold up to four times _BATCH elements over all
# L vectors, which makes a one-vector evaluation's leaf calls four times
# longer and leaves the sweeps' (L = 7) arrays as they are
_LEAF_BATCH = 4 * _BATCH

# A batch's temporaries are freed at the top of the heap, and glibc hands
# such memory back to the system past a trim threshold (128 KiB at start),
# then faults it in again for the next batch.  Whether that happens depends
# on where earlier allocations left the heap top, and it cost up to a third
# of an n=4 evaluation.  Freeing one memory-mapped block raises the
# threshold to twice the block's size (glibc's dynamic mmap threshold), so
# one short-lived 2 MiB array, never touched, ends the churn.
np.empty(_BATCH * 32)


def _f_rec(k: float, s, x: list, tilt, vpow: float, cfg: QuadratureConfig,
           logc=0.0):
    """F_{k,s}(x) * exp(tilt * sum(x) + logc) * V(e^x)^vpow for a batch of
    spectral vectors at a batch of points, as an array of shape
    (len(s), points).

    s is an (L, n) array with n >= 2, one spectral vector per row, and tilt
    a scalar or one value per row; x holds one array per coordinate, sorted
    decreasingly at every point; V is the Vandermonde product; logc is a
    scalar or an (L, points) array.  A level passes its drift tilt,
    its node Vandermonde and, as logc, the log of its prefactor and node
    weights down instead of spending passes over its node grid on them, so
    only the leaf takes exponentials: one per node term.  Nodes and weights
    depend on x and k only, so one tree serves every row of s, and each
    row's value is the one it would get alone.  Two variables are the leaf,
    which also does the one-variable base case.
    """
    count, n = s.shape
    if np.ndim(logc) == 0:
        # once per tree: every level below passes an array, and a
        # broadcast view per call cost some 5% of an n=3 sweep
        logc = np.full((count, x[0].size), logc)
    # a node that rounded onto a shared endpoint leaves tied coordinates;
    # such a point is skipped and gets weight 0
    strict = np.logical_and.reduce([x[j] > x[j + 1] for j in range(n - 1)])
    tied = not strict.all()
    if tied:
        x = [v[strict] for v in x]
        logc = logc[:, strict]
    value = (_leaf(k, s, x[0], x[1], tilt, vpow, logc, cfg) if n == 2
             else _level(k, s, x, tilt, vpow, logc, cfg))
    if not tied:
        return value
    # most batches have no tied row; a gather and a scatter through the
    # 2-d mask cost some 10 us, and an 8-node n=4 evaluation makes over
    # 2,000 calls
    padded = np.zeros((s.shape[0], strict.size))
    padded[:, strict] = value
    return padded


def _level(k: float, s, x: list, tilt, vpow: float, logc,
           cfg: QuadratureConfig):
    """One level of _f_rec for n >= 3 at strictly decreasing points: the
    level's prefactor, and _nodes' sum over each point's node grid.

    The prefactor Gamma(nk)/Gamma(k)^n * e^((tilt + sn + k(n-1)/2) sum(x))
    * V(e^x)^(vpow+1-2k) goes down in logs, added to logc.  Each dimension
    takes _unit_panels' table, but for k < 1 a box with an outside
    coordinate closer than R0 times its width takes _power_panels'.  The
    points are grouped by which of their boxes are near, and each group is
    split so that its node grid holds at most _BATCH elements per vector
    (or one point's grid).  A point's value is the one it gets alone.
    """
    count, n = s.shape
    sn = s[:, -1]
    gap = {(i, j): x[i] - x[j] for i in range(n) for j in range(i + 1, n)}
    logv = sum(x[i] + _log_m(d) for (i, _), d in gap.items())
    pref = (logc + (math.lgamma(n * k) - n * math.lgamma(k))
            + (tilt + sn + k * (n - 1) / 2.0)[:, None] * sum(x)
            + (vpow + 1.0 - 2.0 * k) * logv)
    m = cfg.nodes_per_dimension
    table = _unit_panels(m, k)
    near = _near_boxes(gap, n) if k < 1.0 else np.zeros(x[0].size, int)
    value = np.empty((count, x[0].size))
    # not np.unique: its first call imports numpy.ma, some 15 ms
    for code in np.flatnonzero(np.bincount(near)):
        tables = [_power_panels(m, k) if code >> j & 1 else table
                  for j in range(n - 1)]
        step = max(1, _BATCH // math.prod(t[1].size for t in tables))
        group = np.flatnonzero(near == code)
        for i in range(0, group.size, step):
            r = group[i:i + step]
            value[:, r] = _nodes(k, s, [v[r] for v in x],
                                 {key: d[r] for key, d in gap.items()},
                                 pref[:, r], tables, cfg)
    return value


def _near_boxes(gap: dict, n: int):
    """One int per point whose bit j is set where box j, from x_{j+1} to
    x_j, has an outside coordinate (x_{j-1} or x_{j+2}) closer than R0
    times its width."""
    near = 0
    for j in range(n - 1):
        reach = R0 * gap[j, j + 1]
        if j > 0:
            near = near | (gap[j - 1, j] < reach) << j
        if j + 2 < n:
            near = near | (gap[j + 1, j + 2] < reach) << j
    return near


def _nodes(k: float, s, x: list, gap: dict, pref, tables: list,
           cfg: QuadratureConfig):
    """_level's node sum at its points x, with coordinate gaps gap and log
    prefactor pref, on one node table per dimension: the tensor node grid,
    one call on the flattened grid for the level below, and the sum of what
    it returns, times the prefactor.

    Each node's weight
        width * exp(logw) * prod_{i != j} |e^x_i - e^nu_j|^(k-1)
    goes down in logs, added to pref.  Each difference e^a - e^b is taken as
    e^a m(a - b), and each gap a - b is a coordinate gap plus a node offset:
    x_j - nu_j = dhi and nu_j - x_{j+1} = dlo at the box's ends, and
    x_i - nu_j = (x_i - x_j) + dhi above it, nu_j - x_i = (x_{j+1} - x_i)
    + dlo below it.  So a node near a coordinate outside its box gets its
    true large factor, and a near tie loses no digits to two rounded
    exponentials.  A factor near an endpoint is large exactly where the
    weight is small, and their exponents cancel before the leaf takes
    the one exponential.
    """
    count, n = s.shape
    rows = x[0].size
    sn = s[:, -1]
    sizes = [t[1].size for t in tables]
    size = math.prod(sizes)
    shape = (rows,) + tuple(sizes)
    nu = []
    for j, (ab, logw, (lower, centre, upper)) in enumerate(tables):
        width = gap[j, j + 1][:, None]
        dlo, dhi = width * ab[0], width * ab[1]
        tau = x[j + 1][:, None] + dlo
        lw = np.log(width) + logw
        if k != 1.0:
            # the box-end factors: log m(dhi) at a node is log m(dlo) at
            # its mirror
            mlo = _log_m(np.maximum(dlo, _TINY))
            edges = tau + mlo
            edges += x[j][:, None]
            edges[:, lower] += mlo[:, upper]
            edges[:, centre] += mlo[:, centre]
            edges[:, upper] += mlo[:, lower]
            for i in range(j):
                edges += x[i][:, None] + _log_m(gap[i, j][:, None] + dhi)
            for i in range(j + 2, n):
                edges += tau + _log_m(gap[j + 1, i][:, None] + dlo)
            lw += (k - 1.0) * edges
        dims = (rows,) + (1,) * j + (sizes[j],)
        grid = lw if j == 0 else grid[..., None] + lw.reshape(dims)
        nu.append(np.broadcast_to(tau.reshape(dims + (1,) * (n - 2 - j)),
                                  shape).reshape(-1))
    below = (pref[:, :, None] + grid.reshape(rows, size)).reshape(count, -1)
    inner = _f_rec(k, s[:, :-1], nu, 1.0 - n * k / 2.0 - sn, 1.0, cfg, below)
    return inner.reshape(count, rows, size).sum(axis=-1)


def _leaf(k: float, s, x0, x1, tilt, vpow: float, logc,
          cfg: QuadratureConfig):
    """_f_rec's n = 2 level at strictly decreasing points (x0, x1), with the
    base case F_{k,s0}(nu) = exp(s0 * nu) folded into its node sum.
    """
    m = cfg.nodes_per_dimension
    step = max(1, _BATCH // m, _LEAF_BATCH // (s.shape[0] * m))
    if x0.size <= step:
        return _leaf_rows(k, s, x0, x1, tilt, vpow, logc, m)
    return np.concatenate([
        _leaf_rows(k, s, x0[i:i + step], x1[i:i + step], tilt, vpow,
                   logc[:, i:i + step], m)
        for i in range(0, x0.size, step)], axis=1)


def _leaf_rows(k: float, s, x0, x1, tilt, vpow: float, logc, nodes: int):
    """_leaf's node sum over one part of its rows.

    With dlo = nu - x1 and dhi = x0 - nu, the node term
        wts * (e^nu - e^x1)^(k-1) * (e^x0 - e^nu)^(k-1) * exp(c * nu),
    where c = s0 + 1 - k - s1 is s0 plus the tilt the generic level would
    pass down, splits into a row factor width * e^((k-1)(x0 + x1) + c * x1)
    and a node factor
        exp(logw) * (m(dlo) * m(dhi))^(k-1) * e^((s0 - s1) * dlo),
    where m(d) = 1 - e^-d, and e^((k-1) dlo) has joined e^(c dlo).  All of
    it, with the prefactor, the Vandermonde power and logc, is summed as
    one exponent per node: a factor near an endpoint is large exactly where
    the weight is small, so the exponent stays moderate, and a node whose
    weight underflows gives 0, never 0 * inf.  m(dlo) * m(dhi) is floored
    at _TINY.

    A node's dhi is its mirror's dlo, so m(dlo) * m(dhi) is one number for
    both nodes of a mirror pair: expm1 runs on -dlo alone, each pair's
    product is formed once in the first half of that array, and the log of
    the half, with its weights, is added to the terms of both halves.
    """
    ab, logw, (lower, centre, upper) = _unit_panels(nodes, k)
    width = x0 - x1
    s0, s1 = s[:, 0], s[:, 1]
    if k == 1.0:
        terms = np.multiply.outer(s1 - s0, np.multiply.outer(ab[0], -width))
        node = logw[:centre.stop, None]
    else:
        # -dlo at every node; a node's -dhi is its mirror's -dlo
        offsets = np.multiply.outer(ab[0], -width)
        terms = np.multiply.outer(s1 - s0, offsets)
        # the offsets are spent; their edge factors take their memory, and
        # each pair's product, which both its nodes share, goes into the
        # first half
        edges = np.expm1(offsets, out=offsets)
        edges[lower] *= edges[upper]
        edges[centre] *= edges[centre]
        node = edges[:centre.stop]
        np.maximum(node, _TINY, out=node)
        np.log(node, out=node)
        node *= k - 1.0
        node += logw[:centre.stop, None]
    # the row exponent: log width (which never rounds to 0), the gamma
    # ratio, the Vandermonde power of e^x0 - e^x1 = e^x0 * m(width), and the
    # coefficients of x0 and x1 that the prefactor, the edge factors and
    # the base case add up to
    row = (np.log(width) + (math.lgamma(2.0 * k) - 2.0 * math.lgamma(k))
           + (vpow + 1.0 - 2.0 * k) * _log_m(width))
    row = (row + (tilt + s1 + (vpow - k / 2.0))[:, None] * x0
           + (tilt + s0 + k / 2.0)[:, None] * x1)
    row += logc
    # the half's node exponents, weights included, serve both nodes of
    # each pair
    terms[:, :centre.stop] += node
    terms[:, upper] += node[lower]
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
    overflows or is lost to nan raises DegeneracyError, and a batch whose
    worst case exceeds MAX_NODE_TERMS raises ParameterError before any node
    is built.
    """
    return _ho_pass(params, _ho_closed(params, svecs, x, cfg), x, cfg)


def _check_work(params: HOParams, count: int, cfg: QuadratureConfig):
    """Refuse a batch of count spectral vectors whose terms could exceed
    their ceiling: per_dim^(n(n-1)/2) node terms per vector against
    MAX_NODE_TERMS, with per_dim the 2m nodes of a near box for k < 1, as
    if every box were near, and m for k >= 1; for the k = 0 closed form, n!
    permutation terms per vector against MAX_PERMUTATION_TERMS.  The count
    is formed one factor at a time and quoted only up to 10^30, which is
    far above either ceiling: at a large n the whole count would take
    memory to form and could not be printed."""
    n, m = params.n, cfg.nodes_per_dimension
    if params.k == 0.0:
        what, ceiling = "permutation terms", MAX_PERMUTATION_TERMS
        factors, setting, fewer = range(2, n + 1), "", "variables"
    else:
        what, ceiling = "node terms", MAX_NODE_TERMS
        factors = itertools.repeat(2 * m if params.k < 1.0 else m,
                                   n * (n - 1) // 2)
        setting, fewer = f" with {m} nodes per panel", "nodes or variables"
    quoted = 10 ** 30
    terms = count
    for factor in factors:
        terms *= factor
        if terms > quoted:
            break
    if terms > ceiling:
        shown = str(terms) if terms <= quoted else "more than 10^30"
        raise ParameterError(
            f"{shown} {what} for {count} spectral vectors at n={n}, "
            f"k={params.k}{setting} are above the ceiling of {ceiling}; use "
            f"fewer {fewer}")


def _ho_closed(params: HOParams, svecs, x, cfg: QuadratureConfig) -> tuple:
    """A batch's checks and the values that need no quadrature.

    Returns (values, ss, xs, mean): values[i] is vector i's closed form
    (n = 1, k = 0, uniform x, or at k = 1 the determinant, tried once per
    vector) or None where the vector must take the quadrature, ss the
    vectors and xs the point, sorted, and mean the mean of xs.  An
    overflow gives the values [inf], which the pass refuses.
    """
    n = params.n
    svecs = [tuple(float(v) for v in s) for s in svecs]
    for s in svecs:
        if len(s) != n or len(x) != n:
            raise DomainError(f"need length-{n} vectors; got s={s}, "
                              f"x={tuple(x)}")
        if not all(math.isfinite(v) for v in s):
            raise DomainError(f"need finite spectral vector; got {s}")
    try:
        if n == 1 or params.k == 0.0:
            _check_work(params, len(svecs), cfg)
            return ([ho_closed_forms(params, s, x) for s in svecs], None,
                    None, None)
        xs, uniform = _sorted_checked(x, cfg.min_gap)
        ss = [tuple(sorted(s, reverse=True)) for s in svecs]
        mean = sum(xs) / n
        if uniform:
            return [math.exp(sum(s) * mean) for s in ss], ss, xs, mean
    except OverflowError:
        return [math.inf], None, None, None
    values = [None] * len(ss)
    if params.k == 1.0:
        for i, s in enumerate(ss):
            try:
                values[i] = ho_closed_forms(params, s, xs)
            except DegeneracyError:
                pass
    return values, ss, xs, mean


def _ho_pass(params: HOParams, closed: tuple, x,
             cfg: QuadratureConfig) -> list:
    """_ho_closed's values, with the vectors it left to the quadrature
    summed at cfg's nodes.  The work check counts only those vectors and
    runs before any node is built; a value out of floating range raises
    DegeneracyError."""
    values, ss, xs, mean = closed
    rest = [i for i, v in enumerate(values) if v is None]
    _check_work(params, len(rest), cfg)
    values = list(values)
    try:
        if rest:
            centered = [np.array([v - mean]) for v in xs]
            inner = _f_rec(params.k, np.array([ss[i] for i in rest]),
                           centered, 0.0, 0.0, cfg)[:, 0]
            for i, v in zip(rest, inner):
                values[i] = math.exp(sum(ss[i]) * mean) * float(v)
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


def ho_eval(params: HOParams, s, x, cfg: QuadratureConfig = None) -> float:
    """F_{k,s}(x) by recursive quadrature; closed forms where they exist.

    x and s are sorted internally (F is symmetric in each), the diagonal
    part of x is split off exactly as exp(mean(x)*sum(s)), and the
    remaining trace-free part goes through the interlacing recursion.  At
    k = 1, Harish-Chandra's determinant (ho_closed_forms) serves every
    vector where its rounding bound allows, and the rest take the
    quadrature.
    """
    return _ho_eval_batch(params, [s], x, cfg or QuadratureConfig())[0]


# the k = 1 determinant serves a vector only while its rounding bound is at
# most this: a tenth of lab.NOISE_FLOOR, so the zero error estimate a closed
# form reports stays inside the sweeps' noise floor
DETERMINANT_BOUND = 1e-13
# and only up to this many variables: its elimination costs O(n^3), about
# 2 ms at the cap, and a longer vector goes straight to the quadrature's
# work ceiling, which refuses it before any array is built
DETERMINANT_MAX_VARIABLES = 32
# largest spread of exponents within one row of the determinant's matrix:
# every entry, scaled by its row's largest, is then a normal number even
# where long double is double
_ROW_SPREAD = 700.0
# logs of the smallest normal and the largest double, each a little inside
_LOG_NORMAL = (math.log(sys.float_info.min) + 1e-9,
               math.log(sys.float_info.max) - 1e-9)


def ho_closed_forms(params: HOParams, s, x) -> float:
    """Exact branches: n = 1, k = 0 (symmetrized exponential) and k = 1
    (Harish-Chandra's determinant); uniform x, the fourth exact case, is
    ho_eval's own shortcut.

    At k = 1, F is the spherical function of a complex group, given by
    Harish-Chandra's formula (Helgason, Groups and Geometric Analysis,
    ch. IV): with s and x sorted decreasingly,
        F_{1,s}(x) = (prod_{p<n} p!) det[e^{s_i x_j}]
                     / (V(s) prod_{i<j} 2 sinh((x_i - x_j)/2)),
    V(s) = prod_{i<j} (s_i - s_j).  x is centred first, its mean split off
    as exp(mean(x) sum(s)).  The rest is taken in logs, in numpy's long
    double (a 64-bit significand on x86-64): each row of A = [e^{s_i x_j}]
    is scaled by its largest entry, det A comes from Gaussian elimination
    without pivoting, and the logs of V(s) and of the sinh factors are
    summed.  With s and x decreasing, A is totally positive, so the
    elimination's factors are positive and its backward error is relative
    to each entry of A (de Boor and Pinkus, Linear Algebra Appl. 17, 1977).
    A pivoting LU has no such bound: its error can pass any bound read off
    A alone.

    beta bounds the relative error of the double returned, to first order.
    With eps_ld long double's epsilon,
        beta = eps_ld sum_ij |A_ij| |(A^-1)_ji| w_ij
               + eps_ld (N + 2) (N + sum_k |l_k|)
               + eps_ld max_i |s_i| sum_j |x_j - mean(x)| + eps.
    The first term is det A's.  Entry ij is rounded, each time by eps_ld
    relative, through its exponent e_ij = s_i (x_j - mean(x)), the row's
    largest t_i that scales it, exp, and min(i, j) + 1 elimination steps,
    so w_ij = 2 + |e_ij| + |t_i| + min(i, j); A^-1 comes from the same
    elimination.  The second term is the sum of the N logs l_k, the third
    the rounding of the centred x, and eps the final rounding to double.
    Near a tie in s or x, det A loses digits and beta grows.  The
    determinant serves only while beta is at most DETERMINANT_BOUND, n is
    at most DETERMINANT_MAX_VARIABLES and F is a normal double; otherwise
    (ties included) it raises DegeneracyError, and ho_eval takes the
    quadrature instead.  Where long double is double, eps_ld is eps, and
    the same rule admits fewer vectors.
    """
    n = params.n
    s = tuple(float(v) for v in s)
    x = tuple(float(v) for v in x)
    if n == 1:
        return math.exp(s[0] * x[0])
    if params.k == 1.0:
        return _harish_chandra(sorted(s, reverse=True),
                               sorted(x, reverse=True))
    if params.k != 0.0:
        raise DomainError("closed forms cover k = 0, k = 1 or n = 1 only; "
                          f"got k={params.k}, n={n}")
    acc = 0.0
    for perm in itertools.permutations(x):
        acc += math.exp(sum(si * xi for si, xi in zip(s, perm)))
    return acc / math.factorial(n)


def _harish_chandra(s: list, x: list) -> float:
    """ho_closed_forms' k = 1 branch at decreasingly sorted s and x."""
    n = len(s)
    if n > DETERMINANT_MAX_VARIABLES:
        raise DegeneracyError(
            f"Harish-Chandra's determinant takes at most "
            f"{DETERMINANT_MAX_VARIABLES} variables; got n={n}")
    beta, log_f = math.inf, None
    if all(a > b for a, b in zip(s, s[1:])) and all(
            a > b for a, b in zip(x, x[1:])):
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            try:
                beta, log_f = _harish_chandra_log(s, x)
            except FloatingPointError:
                pass
    if not beta <= DETERMINANT_BOUND:
        raise DegeneracyError(
            f"Harish-Chandra's determinant at n={n} has rounding bound "
            f"beta={beta:.1e}, above {DETERMINANT_BOUND}: s or x is near a "
            f"tie")
    # beta bounds a relative error only where F is a normal double
    if not _LOG_NORMAL[0] < log_f < _LOG_NORMAL[1]:
        raise DegeneracyError(
            f"Harish-Chandra's determinant at n={n} has log F = "
            f"{float(log_f):.6g}, outside the normal doubles")
    return float(np.exp(log_f))


def _unit_lower_inverse(t):
    """The inverse of the unit lower triangle of t (its diagonal read as 1),
    by forward substitution, one row at a time."""
    n = len(t)
    inverse = np.eye(n, dtype=t.dtype)
    for i in range(1, n):
        inverse[i, :i] = -t[i, :i] @ inverse[:i, :i]
    return inverse


# one entry per n up to DETERMINANT_MAX_VARIABLES
@functools.lru_cache(maxsize=32)
def _determinant_tables(n: int):
    """Per n: the pairs i < j as two index arrays, the weight 2 + min(i, j)
    of entry ij's own roundings (its exp and row scaling, then its
    elimination steps), the checkerboard signs of a totally positive
    matrix's inverse, and the terms (n - q) log q of log prod_{p<n} p!, in
    long double."""
    upper = np.triu_indices(n, 1)
    rows, cols = np.indices((n, n))
    q = np.arange(1, n, dtype=np.longdouble)
    tables = (*upper, 2 + np.minimum(rows, cols), 1 - 2 * ((rows + cols) % 2),
              (n - q) * np.log(q))
    for table in tables:
        table.setflags(write=False)  # shared by every call at this n
    return tables


def _harish_chandra_log(s: list, x: list):
    """(beta, log F) in long double at strictly decreasing s and x; beta is
    inf where the elimination or the bound's inverse cannot be trusted."""
    n = len(s)
    sl = np.array(s, dtype=np.longdouble)
    xl = np.array(x, dtype=np.longdouble)
    mean = xl.sum() / n
    xc = xl - mean
    expo = np.multiply.outer(sl, xc)
    top = expo.max(axis=1)
    a = np.exp(expo - top[:, None])
    first, second, elimination, signs, superfactorial = (
        _determinant_tables(n))
    dx = xc[first] - xc[second]
    if not (float((top - expo.min(axis=1)).max()) <= _ROW_SPREAD
            and (dx > 0).all()):
        return math.inf, None
    lu = a.copy()
    for p in range(n - 1):
        lu[p + 1:, p] /= lu[p, p]
        lu[p + 1:, p + 1:] -= np.multiply.outer(lu[p + 1:, p], lu[p, p + 1:])
    # a totally positive matrix has positive factors; a factor entry at or
    # below 0 means A is singular to working precision
    if not lu.min() > 0:
        return math.inf, None
    # A = L U: A^-1 = W^-1 (L^-1 / diag U), W = U / diag U unit upper
    pivots = lu.diagonal()[:, None]
    inverse = (_unit_lower_inverse((lu / pivots).T).T
               @ (_unit_lower_inverse(lu) / pivots))
    # A^-1 of a totally positive A has the checkerboard sign pattern; an
    # entry off it means the inverse, and so the bound, is lost
    if not (inverse * signs > 0).all():
        return math.inf, None
    weight = elimination + np.abs(expo) + np.abs(top)[:, None]
    logs = np.concatenate([
        superfactorial, np.log(lu.diagonal()), top, [sl.sum() * mean],
        -np.log(sl[first] - sl[second]),
        -dx / 2, -np.log(-np.expm1(-dx))])
    count = logs.size
    eps_ld = np.finfo(np.longdouble).eps
    beta = eps_ld * (np.sum(a * np.abs(inverse.T) * weight)
                     + (count + 2) * (count + np.abs(logs).sum())
                     + np.abs(sl).max() * np.abs(xc).sum())
    return float(beta) + float(np.finfo(float).eps), logs.sum()


def ho_jack_consistency(lam, params: HOParams, x,
                        cfg: QuadratureConfig = None) -> float:
    """Relative gap between F_{k, lam+k*rho}(x) and Omega_lam(e^x; k).

    The right side is evaluated from the exact expansion at rational
    theta = k, floated only at the end; the left side is quadrature.
    """
    theta = JackParam(Fraction(params.k))
    lam = partition_key(lam, params.n)
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
    """(F at m nodes, ho_error_estimate's gap) for every s in svecs.

    The checks and closed forms run once, so a vector that a closed form
    serves is evaluated once and its gap is 0.  The rest take one
    quadrature pass at 2m nodes and one at m.  The 2m pass runs first, so
    its work check refuses a batch before any node is built: the m pass
    takes the same vectors at fewer nodes."""
    cfg = cfg or QuadratureConfig()
    doubled = cfg.with_nodes(2 * cfg.nodes_per_dimension)
    closed = _ho_closed(params, svecs, x, cfg)
    fine = _ho_pass(params, closed, x, doubled)
    coarse = _ho_pass(params, closed, x, cfg)
    return [(c, abs(f - c)) for c, f in zip(coarse, fine)]


def ho_error_estimate(params: HOParams, s, x,
                      cfg: QuadratureConfig = None) -> float:
    """Self-consistency gap |F at m nodes - F at 2m nodes|.

    Ten times this value is the working quadrature tolerance used by the
    inequality sweeps.
    """
    return _ho_eval_and_gap(params, [s], x, cfg)[0][1]
