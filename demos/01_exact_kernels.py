"""Exact scalar kernels: Hermite algebra, Gaussian moments, the variance
constant of the odd-power variation.

Everything printed here is deterministic -- no sampling involved.
"""

import numpy as np
from numpy.polynomial import hermite_e

from fbmvar import (
    bivariate_odd_moment,
    fgn_correlation,
    gaussian_moment,
    hermite_coeffs,
    limit_sigma,
)

print("Hermite expansion of odd monomials")
print("----------------------------------")
for r in (1, 2, 3, 4):
    hc = hermite_coeffs(r)
    terms = " + ".join(f"{c}*H_{w}" for c, w in zip(hc.c, hc.orders))
    print(f"  x^{2 * r - 1} = {terms}")
x = 1.37
hc = hermite_coeffs(3)
series = np.zeros(6)  # coefficient of H_w at index w, as hermite_e takes it
series[list(hc.orders)] = hc.c
print(f"  check at x={x}: {hermite_e.hermeval(x, series):.12f} vs {x**5:.12f}")
print(f"  H_3(2) = {hermite_e.hermeval(2.0, [0, 0, 0, 1])}  (8 - 6)")
print()

print("Gaussian moments mu_p = E[N^p]")
print("------------------------------")
print("  p:    ", list(range(0, 9)))
print("  mu_p: ", [gaussian_moment(p) for p in range(0, 9)])
print()

print("fGn correlation rho_H(j) for H = 0.25 (negatively correlated increments)")
print("-------------------------------------------------------------------------")
js = np.arange(0, 7)
print("  j:   ", js.tolist())
print("  rho: ", np.round(fgn_correlation(0.25, js), 6).tolist())
partial = [fgn_correlation(0.25, np.arange(1, n + 1)).sum() for n in (10, 100, 10_000)]
print("  partial sums ->", np.round(partial, 6).tolist(), " (telescope to -1/2)")
print()

print("Bivariate odd moments E[U^(2r-1) V^(2r-1)] via Hermite orthogonality")
print("--------------------------------------------------------------------")
rho = fgn_correlation(0.25, 1)
print(f"  r=2, rho=rho_0.25(1)={rho:.6f}:  {bivariate_odd_moment(2, rho):.6f}"
      f"  (= 6 rho^3 + 9 rho)")
print(f"  r=2, rho=1: {bivariate_odd_moment(2, 1.0)}  (= mu_6)")
print()

print("Variance constant sigma(r, H) with certified truncation")
print("--------------------------------------------------------")
print(f"  {'r':>3} {'H':>6} {'sigma':>14} {'tail bound':>12} {'terms':>7}")
for r, h in ((1, 0.25), (1, 0.45), (2, 0.1), (2, 0.25), (2, 0.4), (3, 0.25)):
    s = limit_sigma(r, h, 1e-8)
    print(f"  {r:>3} {h:>6} {s.value:>14.8f} {s.tail_bound:>12.2e} {s.terms_used:>7}")
print()
print("sigma(1, H) = 0 for every H < 1/2: the rank-1 series telescopes exactly,")
print("so the r=1 statistic has a degenerate (variance -> 0) limit.")
