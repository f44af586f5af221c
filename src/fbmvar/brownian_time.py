"""fBm in Brownian time via the hitting-time random-walk embedding.

The inner Brownian motion Y observed at the successive hitting times of
the spatial lattice {j 2^(-n/2)} is, after scaling, a simple symmetric
random walk S_k.  Every statistic in scope is a function of S and of the
independent outer fBm X evaluated on that lattice, so the hitting times
themselves are never simulated: the walk's law is exactly Rademacher and
the composite observations are Z_k = X(2^(-n/2) S_k).

Two equivalent forms of the trapezoid-weighted odd-power variation are
provided: the direct sum over walk steps, and the spatial sum weighted by
net crossing counts.  Their agreement is an exact algebraic identity and
is used as an acceptance check, as is the composition rule
(direct sum at time t) = (spatial statistic at the walk's terminal site).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fbm import FbmPath, GridSpec, SeedSpec, sample_fbm
from .gaussian import as_hurst
from .variations import odd_power
from .weights import WeightFunction

#: spatial grids are padded to site multiples of this, to stabilize caches
_SITE_PAD = 8


@dataclass(frozen=True)
class EmbeddedWalk:
    """Simple symmetric random walk S_k = 2^(n/2) Y at hitting times."""

    level: int
    steps: np.ndarray  # +-1 per step
    s: np.ndarray  # partial sums, S_0 = 0
    seed: SeedSpec | None = None

    def __post_init__(self):
        if self.s[0] != 0 or len(self.s) != len(self.steps) + 1:
            raise ValueError("walk partial sums must start at 0 and match steps")

    def horizon(self, t: float) -> int:
        """Number of steps up to time t, i.e. floor(2^n t)."""
        k = math.floor(t * 2**self.level)
        if not 0 <= k <= len(self.steps):
            raise ValueError(f"horizon floor(2^{self.level} * {t}) exceeds walk length")
        return k


def sample_walk(n: int, t: float, seed: SeedSpec) -> EmbeddedWalk:
    """Rademacher walk with floor(2^n t) steps."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    k = math.floor(t * 2**n)
    if k < 1:
        raise ValueError("need floor(2^n t) >= 1")
    steps = (seed.rng().integers(0, 2, size=k, dtype=np.int64) * 2 - 1).astype(np.int64)
    s = np.concatenate([[0], np.cumsum(steps)])
    return EmbeddedWalk(level=n, steps=steps, s=s, seed=seed)


@dataclass(frozen=True)
class CrossingCounts:
    """Up/down crossing counts of the lattice intervals [j, j+1] per site j."""

    level: int
    horizon: int
    j_lo: int  # site index of up[0] / down[0]
    up: np.ndarray
    down: np.ndarray

    def sites(self) -> np.ndarray:
        return np.arange(self.j_lo, self.j_lo + len(self.up))

    def net(self) -> np.ndarray:
        return self.up - self.down

    def total(self) -> int:
        return int(self.up.sum() + self.down.sum())


def crossing_counts(walk: EmbeddedWalk, t: float) -> CrossingCounts:
    """Single pass over the first floor(2^n t) steps.

    An up step from S_k = j crosses interval j upward; a down step from
    S_k = j+1 crosses interval j downward.
    """
    k = walk.horizon(t)
    if k == 0:
        return CrossingCounts(walk.level, 0, 0, np.zeros(0, np.int64), np.zeros(0, np.int64))
    s = walk.s[: k + 1]
    st = walk.steps[:k]
    j_lo = int(s.min())
    width = int(s.max()) - j_lo  # number of visited intervals
    up = np.bincount(s[:-1][st > 0] - j_lo, minlength=width)
    down = np.bincount(s[1:][st < 0] - j_lo, minlength=width)
    return CrossingCounts(walk.level, k, j_lo, up.astype(np.int64), down.astype(np.int64))


def terminal_site(walk: EmbeddedWalk, t: float, check: bool = True) -> int:
    """Terminal walk position S_{floor(2^n t)}.

    With check=True the net-crossing profile is verified against the
    indicator form it must take: net(j) = 1 for 0 <= j < S_K when S_K > 0,
    -1 for S_K <= j < 0 when S_K < 0, and identically 0 when S_K = 0.
    """
    k = walk.horizon(t)
    j_star = int(walk.s[k])
    if check:
        counts = crossing_counts(walk, t)
        net = counts.net()
        expected = np.zeros_like(net)
        sites = counts.sites()
        if j_star > 0:
            expected[(sites >= 0) & (sites < j_star)] = 1
        elif j_star < 0:
            expected[(sites >= j_star) & (sites < 0)] = -1
        if not np.array_equal(net, expected):
            raise AssertionError("net crossing profile disagrees with the terminal site")
    return j_star


@dataclass(frozen=True)
class FbmbtSample:
    """Embedded walk plus an independent two-sided fBm on the matching
    spatial lattice; composite observations are Z_k = X(2^(-n/2) S_k)."""

    walk: EmbeddedWalk
    spatial: FbmPath

    def __post_init__(self):
        if self.walk.level != 2 * self.spatial.grid.level:
            raise ValueError("spatial grid level must be half the walk level")
        lo, hi = int(self.walk.s.min()), int(self.walk.s.max())
        if self.spatial.grid.i_min > lo or self.spatial.grid.i_max < hi:
            raise ValueError("spatial path does not cover the walk's range")

    @property
    def level(self) -> int:
        return self.walk.level

    def z_values(self, t: float | None = None) -> np.ndarray:
        """Z at the walk's visited sites up to time t (whole walk if None)."""
        k = len(self.walk.steps) if t is None else self.walk.horizon(t)
        idx = self.spatial.grid.zero_index + self.walk.s[: k + 1]
        return self.spatial.values[idx]

    def site_value(self, j) -> np.ndarray:
        return self.spatial.values[self.spatial.grid.zero_index + np.asarray(j)]


def sample_fbmbt(h, n: int, t: float, seed: SeedSpec) -> FbmbtSample:
    """Walk plus independent spatial fBm covering the walk's range.

    Requires even n so the spatial lattice 2^(-n/2) Z is a dyadic grid of
    level n/2; the walk and the path come from separate substreams of
    `seed`.
    """
    if n % 2:
        raise ValueError("fBm-in-Brownian-time sampling requires an even level n")
    walk = sample_walk(n, t, seed.substream(0))  # substream 1 drives the path
    lo = min(int(walk.s.min()), 0)
    hi = max(int(walk.s.max()), 1)
    lo = -_SITE_PAD * math.ceil(-lo / _SITE_PAD) if lo < 0 else 0
    hi = _SITE_PAD * math.ceil(hi / _SITE_PAD)
    spacing = 2.0 ** (-(n // 2))
    grid = GridSpec(level=n // 2, t_min=lo * spacing, t_max=hi * spacing)
    spatial = sample_fbm(h, grid, seed.substream(1))
    return FbmbtSample(walk=walk, spatial=spatial)


def _lsum(terms: np.ndarray) -> float:
    return float(np.sum(terms.astype(np.longdouble)))


def walk_power_variation(sample: FbmbtSample, f: WeightFunction, r: int, t: float) -> float:
    """Direct trapezoid-weighted odd-power sum over walk steps:

    sum_k (f(Z_k)+f(Z_{k+1}))/2 * (2^(nH/2) (Z_{k+1}-Z_k))^(2r-1).

    Every step moves between the two ends of one lattice interval, so the
    summand is read from a per-interval table built once over the spatial
    path, at the interval's lower site min(S_k, S_{k+1}), and multiplied by
    the step's sign.  This is bit-identical to evaluating each step: the
    weight sum commutes exactly, the reversed increment is the exact
    negation, and odd_power is exactly sign-symmetric, so a down step's
    summand is the exact negation of the table entry.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    k = sample.walk.horizon(t)
    if k == 0:
        return 0.0
    x = sample.spatial.values
    fx = f(x)
    scale = 2.0 ** (sample.level * sample.spatial.h.h / 2.0)
    table = 0.5 * (fx[:-1] + fx[1:]) * odd_power(scale * np.diff(x), r)
    s = sample.walk.s
    lower = sample.spatial.grid.zero_index + np.minimum(s[:k], s[1 : k + 1])
    return _lsum(sample.walk.steps[:k] * table[lower])


def crossing_power_variation(sample: FbmbtSample, f: WeightFunction, r: int, t: float) -> float:
    """The same statistic as a spatial sum weighted by net crossing counts."""
    if r < 1:
        raise ValueError("r must be >= 1")
    counts = crossing_counts(sample.walk, t)
    if counts.horizon == 0:
        return 0.0
    js = counts.sites()
    x_lo = sample.site_value(js)
    x_hi = sample.site_value(js + 1)
    scale = 2.0 ** (sample.level * sample.spatial.h.h / 2.0)
    dz = scale * (x_hi - x_lo)
    w = 0.5 * (f(x_lo) + f(x_hi))
    return _lsum(w * odd_power(dz, r) * counts.net())


def spatial_power_variation(path: FbmPath, f: WeightFunction, r: int, t: float) -> float:
    """Trapezoid-weighted odd-power sum along the spatial lattice up to a
    signed time t; the negative branch walks leftward from the origin.

    Composition rule: the direct walk statistic at time t equals this
    statistic at u = 2^(-n/2) * (terminal site).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    level = path.grid.level  # spatial level; the walk level is 2*level
    nsites = math.floor(abs(t) * 2**level)
    if nsites == 0:
        return 0.0
    zero = path.grid.zero_index
    if t >= 0:
        if zero + nsites > path.grid.npoints - 1:
            raise ValueError("spatial range insufficient for the requested t")
        x_a = path.values[zero : zero + nsites]
        x_b = path.values[zero + 1 : zero + nsites + 1]
    else:
        if zero - nsites < 0:
            raise ValueError("spatial range insufficient for the requested t")
        idx = zero - np.arange(nsites)
        x_a = path.values[idx]
        x_b = path.values[idx - 1]
    scale = 2.0 ** (level * path.h.h)  # = 2^(nH/2) for the walk level n
    dz = scale * (x_b - x_a)
    return _lsum(0.5 * (f(x_a) + f(x_b)) * odd_power(dz, r))


def identity_residuals(sample: FbmbtSample, f: WeightFunction, r: int, t: float) -> dict:
    """Relative residuals of the two exact identities on one sample.

    Residuals are |a - b| / max(1, |a|, |b|); both must vanish to rounding.
    """
    direct = walk_power_variation(sample, f, r, t)
    crossing = crossing_power_variation(sample, f, r, t)
    j_star = terminal_site(sample.walk, t)
    u = j_star * sample.spatial.grid.spacing
    composed = spatial_power_variation(sample.spatial, f, r, u)
    res_crossing = abs(direct - crossing) / max(1.0, abs(direct), abs(crossing))
    res_composed = abs(direct - composed) / max(1.0, abs(direct), abs(composed))
    return {
        "direct": direct,
        "crossing": crossing,
        "composed": composed,
        "terminal_site": j_star,
        "residual_crossing": res_crossing,
        "residual_composition": res_composed,
    }
