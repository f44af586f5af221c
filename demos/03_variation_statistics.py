"""The weighted odd-power variation statistics on one path, their exact
algebraic relations, and a small Monte Carlo look at the mixture limit law.
"""

import numpy as np

from fbmvar import (
    GridSpec,
    SeedSpec,
    get_weight,
    ks_two_sample,
    limit_conditional_std,
    limit_quadrature,
    limit_sigma,
    sample_fbm,
    variation,
)

H, R = 0.25, 2
N = 10
GRID = GridSpec(level=N, t_min=0.0, t_max=1.0)
f = get_weight("gauss")

path = sample_fbm(H, GRID, SeedSpec(99, 0))
phi = variation(path, f, R, "midpoint")
psi = variation(path, f, R, "trapezoid")
left = variation(path, f, R, "left")
right = variation(path, f, R, "right")
unw = variation(path, None, R)

print(f"One path at level n={N}, H={H}, power 2r-1={2 * R - 1}, weight exp(-x^2)")
print(f"  midpoint   Phi(1)  = {phi.value_at(1.0):+.6f}")
print(f"  trapezoid  Psi(1)  = {psi.value_at(1.0):+.6f}")
print(f"  left / right (1)   = {left.value_at(1.0):+.6f} / {right.value_at(1.0):+.6f}")
print(f"  unweighted (1)     = {unw.value_at(1.0):+.6f}")
print()

print("Exact relations on the raw (unnormalized) running sums:")
gap = np.max(np.abs(psi.raw - 0.5 * (left.raw + right.raw)))
print(f"  trapezoid = (left + right)/2:  max |gap| = {gap:.2e}")
print()

print("Deterministic endpoint limits (one path, finer level):")
fine = sample_fbm(H, GridSpec(level=14, t_min=0.0, t_max=1.0), SeedSpec(99, 1))
target = 1.5 * limit_quadrature(fine, f, 1.0)  # mu_4 / 2 = 3/2
lv = variation(fine, f, R, "left").value_at(1.0)
rv = variation(fine, f, R, "right").value_at(1.0)
print(f"  left(1)  = {lv:+.4f}   vs  -mu_4/2 int f'(X) = {-target:+.4f}")
print(f"  right(1) = {rv:+.4f}   vs  +mu_4/2 int f'(X) = {+target:+.4f}")
print()

REPS = 800
print(f"Mixture limit law at t=1 ({REPS} replicates, level {N}):")
sigma = limit_sigma(R, H, 1e-8)
stat_draws = []
lim_draws = []
for i in range(REPS):
    seed = SeedSpec(500, i)
    p1 = sample_fbm(H, GRID, seed.substream(0))
    stat_draws.append(variation(p1, f, R).value_at(1.0))
    p2 = sample_fbm(H, GRID, seed.substream(1))
    # given the path the limit is normal: its conditional std times one normal
    z = seed.substream(2).rng().standard_normal()
    lim_draws.append(limit_conditional_std(p2, f, sigma.value, 1.0) * z)
stat_draws, lim_draws = np.array(stat_draws), np.array(lim_draws)
ks, p = ks_two_sample(stat_draws, lim_draws)
print(f"  sigma = {sigma.value:.4f}")
print(f"  statistic: mean {stat_draws.mean():+.4f}, sd {stat_draws.std():.4f}")
print(f"  limit:     mean {lim_draws.mean():+.4f}, sd {lim_draws.std():.4f}")
print(f"  two-sample KS, exact p for {REPS} + {REPS} draws: D = {ks:.4f}, p = {p:.3f}")
