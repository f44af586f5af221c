"""fBm in Brownian time: the walk embedding, its exact crossing algebra,
and the slow approach of the variance to its mixture limit.
"""

import math

import numpy as np

from fbmvar import (
    SeedSpec,
    crossing_counts,
    get_weight,
    identity_residuals,
    limit_sigma,
    sample_fbmbt,
    sample_walk,
)

H, R = 0.25, 2
f = get_weight("gauss")

print("One composite sample at walk level n=8")
print("--------------------------------------")
sample = sample_fbmbt(H, 8, 1.0, SeedSpec(11, 0))
walk = sample.walk
cc = crossing_counts(walk)
print(f"  walk: {len(walk.steps)} steps, range [{walk.s.min()}, {walk.s.max()}],"
      f" terminal site {cc.terminal}")
print(f"  crossing conservation: sum(U+D) = {cc.up.sum() + cc.down.sum()} = step count")
net = dict(zip(cc.sites().tolist(), cc.net().tolist()))
nonzero = {j: v for j, v in net.items() if v}
print(f"  net crossings (nonzero): {nonzero}")
print(f"  -> indicator of the interval between 0 and the terminal site")
print()

print("The three equivalent forms of the trapezoid-weighted odd-power sum")
print("------------------------------------------------------------------")
res = identity_residuals(sample, f, R)
print(f"  over walk steps:        {res['direct']:+.12f}")
print(f"  crossing-weighted:      {res['crossing']:+.12f}")
print(f"  spatial, at terminal:   {res['composed']:+.12f}")
print()

print("Walk terminal value is asymptotically standard normal (Donsker):")
draws = np.array(
    [2.0 ** (-12 / 2) * sample_walk(12, 1.0, SeedSpec(21, i)).s[-1] for i in range(3000)]
)
print(f"  level 12, 3000 replicates: mean {draws.mean():+.4f}, var {draws.var():.4f}")
print()

print("Variance of 2^(-n/4) V_n(1) vs the mixture limit sigma^2 sqrt(2/pi)")
print("-------------------------------------------------------------------")
sigma = limit_sigma(R, H, 1e-8)
target = sigma.value**2 * math.sqrt(2.0 / math.pi)
print(f"  asymptotic target: {target:.4f}")
f1 = get_weight("one")
for n, reps in ((8, 1500), (12, 1500), (16, 600)):
    vals = np.array(
        [
            2.0 ** (-n / 4.0)
            * identity_residuals(sample_fbmbt(H, n, 1.0, SeedSpec(33 + n, i)), f1, R)["direct"]
            for i in range(reps)
        ]
    )
    print(f"  n={n:>2}: Var = {vals.var(ddof=1):.3f}   ({vals.var(ddof=1) / target - 1:+.1%})")
print()
print("The excess shrinks like the spatial window count 2^(n/2): the fGn")
print("variance density over m sites converges at rate m^(2H-1).")
