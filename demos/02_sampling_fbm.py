"""Sampling two-sided fBm: the circulant generator checked against the
exact law (covariance C_H and the normal law of X(t)), and seeded
determinism.
"""

import numpy as np

from fbmvar import (
    GridSpec,
    SeedSpec,
    fbm_covariance,
    ks_one_sample,
    sample_fbm,
)

H = 0.3
GRID = GridSpec(level=5, t_min=-1.0, t_max=1.0)
REPS = 40_000

print(f"Two-sided grid: level {GRID.level}, [{GRID.t_min}, {GRID.t_max}], "
      f"{GRID.npoints} points, zero pinned at index {GRID.zero_index}")
print()

print("Determinism: one SeedSpec, one path")
path = sample_fbm(H, GRID, SeedSpec(2024, 0))
again = sample_fbm(H, GRID, SeedSpec(2024, 0))
print(f"  bit-identical across calls: {np.array_equal(path.values, again.values)}")
print(f"  value at t=0: {path.value_at(0.0)} (exactly zero by construction)")
print()

print(f"Empirical covariance over {REPS} replicates vs C_H")
pts = GRID.times()
cov = fbm_covariance(H, pts[:, None], pts[None, :])
var = np.diag(cov)
se = np.sqrt((var[:, None] * var[None, :] + cov**2) / REPS)
se[GRID.zero_index, :] = np.inf
se[:, GRID.zero_index] = np.inf
vals = sample_fbm(H, GRID, SeedSpec(7, 0), size=REPS)
z = np.abs(vals.T @ vals / REPS - cov) / se
print(f"  circulant: max |z| over all {GRID.npoints}^2 entries = {z.max():.2f}")
print()

print("The two halves of a two-sided path are genuinely correlated:")
vals = sample_fbm(H, GRID, SeedSpec(8, 0), size=REPS)
i, j = GRID.index_of(-0.5), GRID.index_of(0.5)
print(f"  E[X(-0.5) X(0.5)] = {np.mean(vals[:, i] * vals[:, j]):+.4f}"
      f"  (analytic {fbm_covariance(H, -0.5, 0.5):+.4f})")
print()

print("Terminal-value law: X(1) against the exact N(0, 1), one-sample KS")
terminal = sample_fbm(H, GRID, SeedSpec(13, 0), size=10_000)[:, -1]
stat, p = ks_one_sample(terminal)
print(f"  D = {stat:.4f}, p = {p:.3f}")
print()

print("Self-similarity: Var X(t) = |t|^(2H)")
for t in (-0.5, 0.25, 1.0):
    col = vals[:, GRID.index_of(t)]
    print(f"  t={t:+.2f}: {col.var():.4f} vs {abs(t) ** (2 * H):.4f}")
