"""Hypergeometric evaluation by recursive quadrature.

The function F_{k,s}(x) is computed by peeling one variable at a time:
an (n-1)-dimensional integral over interlacing points.  Each dimension is
one Gauss-Jacobi panel whose weight carries the boundary factor, and the
node count is per panel; for k < 1 a dimension whose box lies near a
coordinate outside it absorbs the boundary singularity by a power
substitution on two panels instead.  At unit multiplicity F is
Harish-Chandra's determinant, which ho_eval evaluates in long double with a
rounding bound instead of the quadrature; we compare it with the same
formula taken plainly in numpy, then use the structural identities (value
1 at the origin, diagonal derivative, agreement with the exact expansions
at integer spectral shifts) as accuracy probes for the quadrature.  Run:

    python3 demos/hypergeometric.py
"""

import math

import numpy as np

from omegalab import HOParams, QuadratureConfig, jack_limit_probe
from omegalab.heckman_opdam import (ho_direction_residual, ho_error_estimate,
                                    ho_eval, ho_jack_consistency)


def determinant_value(s, x):
    # unit-multiplicity closed form in plain doubles, valid for distinct s
    # and distinct x
    m = len(s)
    pre = 1.0
    for j in range(1, m):
        pre *= math.factorial(j)
    shift = math.exp((m - 1) / 2.0 * sum(x))
    det = float(np.linalg.det(np.array(
        [[math.exp(si * xj) for xj in x] for si in s])))
    vs = 1.0
    vx = 1.0
    for i in range(m):
        for j in range(i + 1, m):
            vs *= s[i] - s[j]
            vx *= math.exp(x[i]) - math.exp(x[j])
    return pre * shift * det / (vs * vx)


def main():
    cfg = QuadratureConfig(48)

    print("unit multiplicity: ho_eval's determinant vs the plain formula:")
    for s, x in [((0.5, -0.5), (math.log(2), 0.0)),
                 ((1.0, -1.0), (math.log(4), 0.0)),
                 ((1.3, 0.2, -0.9), (0.8, 0.1, -0.6))]:
        p = HOParams(1, len(s))
        got = ho_eval(p, s, x, cfg)
        want = determinant_value(s, x)
        print(f"  n={len(s)}  s={s}  x={x}")
        print(f"    ho_eval {got:.15g}   plain formula {want:.15g}   "
              f"gap {abs(got - want):.2e}")

    print("\nstructural checks at k=3/2, n=2:")
    p = HOParams(1.5, 2)
    s = (1.25, -0.25)
    origin = ho_eval(p, s, (0.0, 0.0), cfg)
    print(f"  F(s, 0) = {origin!r}  (should be exactly 1)")
    x = (0.9, -0.3)
    forward = ho_eval(p, s, x, cfg)
    swapped = ho_eval(p, s, (x[1], x[0]), cfg)
    print(f"  F(s, x) = {forward:.15g}, F(s, reversed x) = {swapped:.15g}")
    res = ho_direction_residual(p, s, x, 1e-4, cfg)
    print(f"  diagonal derivative residual (h=1e-4): {res:.2e}")
    err = ho_error_estimate(p, s, x, cfg)
    print(f"  node-doubling self-consistency gap:    {err:.2e}")

    print("\nagreement with the exact expansions (spectral point "
          "lam + k*rho):")
    for k, method in ((0.5, "quadrature"), (1.0, "determinant"),
                      (2.0, "quadrature")):
        p = HOParams(k, 2)
        gap = ho_jack_consistency((2, 1), p, (0.7, -0.2), cfg)
        print(f"  k={k} ({method}): relative gap {gap:.2e}")

    print("\nlattice limit: discrete values at scale k approach the "
          "continuous ones")
    for k, mac, jack, gap in jack_limit_probe((2, 1), 1, (4, 1),
                                              ks=(10, 100, 1000)):
        print(f"  k={k:5d}: lattice value {mac:.10g}   "
              f"target {jack:.10g}   gap {gap:.3e}")


if __name__ == "__main__":
    main()
