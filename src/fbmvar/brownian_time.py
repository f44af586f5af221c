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
are their partial sums, and both are read-only arrays, so the two cannot
disagree.  The sites, and what
several readers of one walk need, are computed once, on first read: its
extent (lowest and highest site), read by `sample_fbmbt`, `FbmbtSample`
and `crossing_counts`, and the lower site of each step's lattice interval,
read by `crossing_counts` and `identity_residuals`.  `sample_walk` takes
step k from the top bit of the k-th 32-bit half of its stream's raw PCG64
words and builds the steps in place, and the walk validates them with
reductions that allocate nothing, so a walk read for its terminal site
alone (the sum of its steps, as A9's Donsker clause reads it) costs little
beyond its stream.  The walk's law needs only that those bits are fair and
independent; that they equal numpy's `integers(0, 2)` draw bit for bit is
what keeps every walk, and every digest built on one, unchanged, and a
test pins it.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .fbm import FbmPath, GridSpec, SeedSpec, sample_fbm
from .gaussian import as_hurst
from .harness import _grid_groups
from .variations import _series, _steps, step_summands
from .weights import WeightFunction

#: spatial grids are padded to site multiples of this, to stabilize caches
_SITE_PAD = 8

#: most steps `sample_walk` draws (level 22 over [0, 1] fits); a walk and
#: its identity checks peak at about 50 bytes per step
SAMPLE_WALK_CAP = 1 << 22


@dataclass(frozen=True)
class EmbeddedWalk:
    """Simple symmetric random walk S_k = 2^(n/2) Y at hitting times.

    A walk is its steps, a 1-D integer array of +-1 (anything else raises
    ValueError); the sites S_0 = 0, S_{k+1} = S_k + steps[k] are derived
    from them, never given, on first read.  Steps and sites are read-only;
    a writable steps array is copied before it is frozen, so writing to
    either raises.
    """

    level: int
    steps: np.ndarray  # +-1 per step

    def __post_init__(self):
        steps = np.asarray(self.steps)
        if steps.flags.writeable:
            steps = steps.copy()
            steps.flags.writeable = False
        # every entry is -1, 0 or 1, and none is 0
        if steps.ndim != 1 or steps.dtype.kind != "i" or (len(steps) and (
                steps.min() < -1 or steps.max() > 1 or np.count_nonzero(steps) < len(steps))):
            raise ValueError("walk steps must be a 1-D array of integers +-1")
        object.__setattr__(self, "steps", steps)

    @functools.cached_property
    def s(self) -> np.ndarray:
        """The sites, partial sums of the steps with S_0 = 0 (int64)."""
        s = np.empty(len(self.steps) + 1, dtype=np.int64)
        s[0] = 0
        np.cumsum(self.steps, out=s[1:])
        s.flags.writeable = False
        return s

    @functools.cached_property
    def _extent(self) -> tuple[int, int]:
        """Lowest and highest site the walk visits."""
        return int(self.s.min()), int(self.s.max())

    @functools.cached_property
    def _lower(self) -> np.ndarray:
        lower = np.minimum(self.s[:-1], self.s[1:])
        lower.flags.writeable = False
        return lower

    def horizon(self, t: float) -> int:
        """Number of steps up to time t, i.e. floor(2^n t)."""
        return _steps(t, self.level, (), len(self.steps), "walk")

    def crossed(self, k: int) -> np.ndarray:
        """Lower site min(S_i, S_{i+1}) of the lattice interval that each of
        the first k steps crosses (a read-only view)."""
        return self._lower[:k]


def _walk_steps(n: int, t: float) -> int:
    """floor(2^n t), the steps of a walk at level n up to t; ValueError
    unless n >= 1 and the walk has 1 to SAMPLE_WALK_CAP steps."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    try:
        k = math.floor(t * 2.0**n)
    except OverflowError:  # beyond any float, so beyond the cap
        k = math.inf
    if not 1 <= k <= SAMPLE_WALK_CAP:
        raise ValueError(f"walk has {k} steps, not between 1 and the sampling cap {SAMPLE_WALK_CAP}")
    return k


def sample_walk(n: int, t: float, seed: SeedSpec) -> EmbeddedWalk:
    """Rademacher walk with floor(2^n t) steps, refused before any draw.

    Step k is +1 if the top bit of the k-th 32-bit half of the stream's raw
    64-bit words is set and -1 if not, low halves first (the `view` order
    on a little-endian machine).  The walk's law rests on PCG64 alone: its
    bits are fair and independent.  That the steps are also, bit for bit,
    `integers(0, 2, size=k, dtype=np.int64) * 2 - 1` holds because numpy's
    bounded draw keeps the top bit of each half for a range of 2; it
    depends on numpy's internals, and a test pins it.
    """
    k = _walk_steps(n, t)  # before the stream is made
    words = seed.rng().bit_generator.random_raw((k + 1) // 2)
    steps = (words.view(np.uint32)[:k] >> 31).astype(np.int64)
    steps *= 2
    steps -= 1
    steps.flags.writeable = False  # built here alone, so the walk need not copy it
    return EmbeddedWalk(level=n, steps=steps)


@functools.lru_cache(maxsize=256)
def _lattice_grid(level: int, lo: int, hi: int) -> GridSpec:
    """The level-`level` grid over lattice sites lo..hi, [lo 2^-level,
    hi 2^-level], built once per padded size: callers pad the sites they
    need, so a few hundred sizes cover every walk a check draws."""
    spacing = 2.0**-level
    return GridSpec(level=level, t_min=lo * spacing, t_max=hi * spacing)


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
    interval j.  The net-crossing profile takes the indicator form: net(j)
    = 1 for 0 <= j < S_K when S_K > 0, -1 for S_K <= j < 0 when S_K < 0,
    and identically 0 when S_K = 0.
    """
    k = walk.horizon(t)
    s = walk.s[: k + 1]
    j_lo, j_hi = walk._extent if k == len(walk.steps) else (int(s.min()), int(s.max()))
    width = j_hi - j_lo  # number of visited intervals
    # interval offset i counts a down step at 2i and an up step at 2i + 1
    key = walk.crossed(k) - j_lo
    key *= 2
    key += walk.steps[:k] > 0
    both = np.bincount(key, minlength=2 * width).astype(np.int64, copy=False)
    return CrossingCounts(k, int(s[-1]), j_lo, both[1::2], both[0::2])


@dataclass(frozen=True)
class FbmbtSample:
    """Embedded walk plus an independent two-sided fBm on the matching
    spatial lattice; composite observations are Z_k = X(2^(-n/2) S_k)."""

    walk: EmbeddedWalk
    spatial: FbmPath

    def __post_init__(self):
        if self.walk.level != 2 * self.spatial.grid.level:
            raise ValueError("spatial grid level must be half the walk level")
        lo, hi = self.walk._extent
        if self.spatial.grid.i_min > lo or self.spatial.grid.i_max < hi:
            raise ValueError("spatial path does not cover the walk's range")

    def z_values(self) -> np.ndarray:
        """Z at every site the walk visits, S_0 to the end."""
        return self.spatial.values[self.spatial.grid.zero_index + self.walk.s]


def _even_level(n: int) -> None:
    """Refuse an odd walk level n: the spatial lattice 2^(-n/2) Z is a
    dyadic grid, of level n/2, for even n alone."""
    if n % 2:
        raise ValueError(f"fBm-in-Brownian-time sampling requires an even level n, got {n}")


def sample_fbmbt(h, n: int, t: float, seed: SeedSpec | Sequence[SeedSpec]):
    """Walk plus independent spatial fBm covering the walk's range.

    Requires even n so the spatial lattice 2^(-n/2) Z is a dyadic grid of
    level n/2; the walk and the path come from separate substreams of
    `seed`.  For a sequence of SeedSpecs the result is a list, item i the
    sample of seed[i] alone, bit for bit: the walks are drawn one per
    seed, and the spatial paths in one `sample_fbm` batch per grid
    (`harness._grid_groups`).
    """
    _even_level(n)
    hp = as_hurst(h)  # refused before any walk is drawn
    seeds = [seed] if isinstance(seed, SeedSpec) else list(seed)
    walks = [sample_walk(n, t, s.substream(0)) for s in seeds]  # substream 1 drives the path

    def grid_of(extent) -> GridSpec:
        lo, hi = min(extent[0], 0), max(extent[1], 1)
        lo = -_SITE_PAD * math.ceil(-lo / _SITE_PAD) if lo < 0 else 0
        hi = _SITE_PAD * math.ceil(hi / _SITE_PAD)
        return _lattice_grid(n // 2, lo, hi)

    samples = [None] * len(seeds)
    for rows, grid in _grid_groups(grid_of, [walk._extent for walk in walks]):
        values = sample_fbm(hp, grid, [seeds[i].substream(1) for i in rows])
        for i, row in zip(rows, values):
            samples[i] = FbmbtSample(walk=walks[i], spatial=FbmPath(grid=grid, h=hp, values=row))
    return samples[0] if isinstance(seed, SeedSpec) else samples


#: bound on both relative residuals of `identity_residuals`: the identities
#: are exact, so only float64 rounding of the three sums may remain
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
    crossing counts; "composed" is the table's sum along the lattice from
    the origin to the terminal site S_K, the window raw[zero + S_K] -
    raw[zero] of the table's running sum over the whole lattice, zero the
    origin's index.  One expression serves both signs: when S_K < 0 (the
    walk went leftward) the window is minus the sum over [S_K, 0).

    Residuals are |a - b| / max(1, |a|, |b|); both must vanish to rounding,
    i.e. lie within RESIDUAL_TOL.
    """
    table = step_summands(sample.spatial, f, r, "trapezoid")
    zero = sample.spatial.grid.zero_index
    walk = sample.walk
    counts = crossing_counts(walk, t)  # builds the walk's crossed sites, read again here
    k, m = counts.horizon, counts.terminal
    direct = float((walk.steps[:k] * table[zero + walk.crossed(k)]).sum())
    crossing = float((table[zero + counts.sites()] * counts.net()).sum())
    raw = _series(sample.spatial.grid.level, table, 1.0).raw
    composed = float(raw[zero + m] - raw[zero])
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
