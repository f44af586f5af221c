"""fBm in Brownian time via the hitting-time random-walk embedding.

The inner Brownian motion Y observed at the successive hitting times of
the spatial lattice {j 2^(-n/2)} is, after scaling, a simple symmetric
random walk S_k.  Every statistic in scope is a function of S and of the
independent outer fBm X evaluated on that lattice, so the hitting times
themselves are never simulated: the walk's law is exactly Rademacher and
the composite observations are Z_k = X(2^(-n/2) S_k).

Three forms of the trapezoid-weighted odd-power variation are one
statistic: the direct sum over walk steps, the spatial sum weighted by net
crossing counts, and the spatial sum up to the walk's terminal site, i.e.
the composition rule, through which check A9 draws the statistic.
`identity_residuals` is the one owner of all three: it reads them from one
trapezoid table of the spatial path (`variations.step_summands`) and one
crossing pass, no form evaluating a weight or power of its own, and
returns them with the residuals of the exact algebraic identities between
them.  Its "direct" entry is the walk statistic wherever one is needed.
`RESIDUAL_TOL` is the one bound on its residuals, used by check A5 and
`simulate fbmbt`.

A walk (`EmbeddedWalk`) is built from its +-1 steps alone; its sites S_k
are their partial sums, so the two cannot disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fbm import FbmPath, GridSpec, SeedSpec, sample_fbm
from .variations import step_summands
from .weights import WeightFunction

#: spatial grids are padded to site multiples of this, to stabilize caches
_SITE_PAD = 8


@dataclass(frozen=True)
class EmbeddedWalk:
    """Simple symmetric random walk S_k = 2^(n/2) Y at hitting times.

    A walk is its steps, a 1-D integer array of +-1 (anything else raises
    ValueError); the sites S_0 = 0, S_{k+1} = S_k + steps[k] are derived
    from them, never given.
    """

    level: int
    steps: np.ndarray  # +-1 per step
    s: np.ndarray = field(init=False)  # partial sums, S_0 = 0

    def __post_init__(self):
        steps = np.asarray(self.steps)
        if steps.ndim != 1 or steps.dtype.kind != "i" or not np.all(np.abs(steps) == 1):
            raise ValueError("walk steps must be a 1-D array of integers +-1")
        s = np.empty(len(steps) + 1, dtype=np.int64)
        s[0] = 0
        np.cumsum(steps, out=s[1:])
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "s", s)

    def horizon(self, t: float) -> int:
        """Number of steps up to time t, i.e. floor(2^n t)."""
        k = math.floor(t * 2**self.level)
        if not 0 <= k <= len(self.steps):
            raise ValueError(f"horizon floor(2^{self.level} * {t}) exceeds walk length")
        return k

    def crossed(self, k: int) -> np.ndarray:
        """Lower site min(S_i, S_{i+1}) of the lattice interval that each of
        the first k steps crosses."""
        return np.minimum(self.s[:k], self.s[1 : k + 1])


def sample_walk(n: int, t: float, seed: SeedSpec) -> EmbeddedWalk:
    """Rademacher walk with floor(2^n t) steps."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    k = math.floor(t * 2**n)
    if k < 1:
        raise ValueError("need floor(2^n t) >= 1")
    return EmbeddedWalk(level=n, steps=seed.rng().integers(0, 2, size=k, dtype=np.int64) * 2 - 1)


@dataclass(frozen=True)
class CrossingCounts:
    """Up/down crossing counts of the lattice intervals [j, j+1] per site j."""

    horizon: int
    terminal: int  # walk site S_horizon
    j_lo: int  # site index of up[0] / down[0]
    up: np.ndarray
    down: np.ndarray

    def sites(self) -> np.ndarray:
        return np.arange(self.j_lo, self.j_lo + len(self.up))

    def net(self) -> np.ndarray:
        return self.up - self.down


def crossing_counts(walk: EmbeddedWalk, t: float) -> CrossingCounts:
    """Single pass over the first K = floor(2^n t) steps.

    An up step from S_k = j and a down step from S_k = j+1 both cross
    interval j.  The net-crossing profile is verified against the indicator
    form it must take: net(j) = 1 for 0 <= j < S_K when S_K > 0, -1 for
    S_K <= j < 0 when S_K < 0, and identically 0 when S_K = 0; only sites
    changed in place after the walk was built can fail it.
    """
    k = walk.horizon(t)
    s = walk.s[: k + 1]
    st = walk.steps[:k]
    lower = walk.crossed(k)
    j_lo, j_star = int(s.min()), int(s[-1])
    width = int(s.max()) - j_lo  # number of visited intervals
    up = np.bincount(lower[st > 0] - j_lo, minlength=width).astype(np.int64)
    down = np.bincount(lower[st < 0] - j_lo, minlength=width).astype(np.int64)
    counts = CrossingCounts(k, j_star, j_lo, up, down)
    sites = counts.sites()
    expected = np.zeros_like(up)
    if j_star > 0:
        expected[(sites >= 0) & (sites < j_star)] = 1
    elif j_star < 0:
        expected[(sites >= j_star) & (sites < 0)] = -1
    if not np.array_equal(counts.net(), expected):
        raise AssertionError("net crossing profile disagrees with the terminal site")
    return counts


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

    def z_values(self) -> np.ndarray:
        """Z at every site the walk visits, S_0 to the end."""
        return self.spatial.values[self.spatial.grid.zero_index + self.walk.s]


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


#: bound on both relative residuals of `identity_residuals`: the identities
#: are exact, so only float rounding of the longdouble sums may remain
RESIDUAL_TOL = 1e-9


def identity_residuals(sample: FbmbtSample, f: WeightFunction, r: int, t: float) -> dict:
    """The three forms of the statistic on one sample, from one trapezoid
    table and one crossing pass, and the relative residuals of the two
    exact identities between them.

    "direct" is the trapezoid-weighted odd-power sum over the first
    K = floor(2^n t) walk steps,

        sum_k (f(Z_k)+f(Z_{k+1}))/2 * (2^(nH/2) (Z_{k+1}-Z_k))^(2r-1).

    Every step moves between the two ends of one lattice interval, so its
    summand is the spatial path's trapezoid `step_summands` entry at the
    interval's lower site (`EmbeddedWalk.crossed`), times the step's sign;
    the walk scale 2^(nH/2) is the spatial level's 2^(LH), L = n/2.  This
    is bit-identical to evaluating each step: the weight sum commutes
    exactly, the reversed increment is the exact negation, and odd_power
    is exactly sign-symmetric.  "crossing" weights the table by the net
    crossing counts; "composed" sums it along the lattice from the origin
    to the terminal site S_K, each summand negated when S_K < 0 (the walk
    then went leftward), and raises ValueError when the table stops short.

    Residuals are |a - b| / max(1, |a|, |b|); both must vanish to rounding,
    i.e. lie within RESIDUAL_TOL.
    """
    table = step_summands(sample.spatial, f, r, "trapezoid")
    zero = sample.spatial.grid.zero_index
    walk = sample.walk
    counts = crossing_counts(walk, t)
    k, m = counts.horizon, counts.terminal
    direct = _lsum(walk.steps[:k] * table[zero + walk.crossed(k)])
    crossing = _lsum(table[zero + counts.sites()] * counts.net())
    if not 0 <= zero + m <= len(table):
        raise ValueError("spatial range insufficient for the requested t")
    composed = _lsum(table[zero : zero + m]) if m >= 0 else _lsum(-table[zero + m : zero][::-1])
    res_crossing = abs(direct - crossing) / max(1.0, abs(direct), abs(crossing))
    res_composed = abs(direct - composed) / max(1.0, abs(direct), abs(composed))
    return {
        "direct": direct,
        "crossing": crossing,
        "composed": composed,
        "terminal_site": m,
        "residual_crossing": res_crossing,
        "residual_composition": res_composed,
    }
