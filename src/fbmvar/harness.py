"""Monte Carlo replicate loop, summary estimates, statistical tests and
the report every acceptance check returns.

`replicate_map`'s seed stream is the replicate index, so an aggregate is
a deterministic function of the master seed whatever the worker count.
It hands its function chunks of consecutive seeds, sized by the grid
steps a row samples (`CHUNK_STEPS`) and the worker count alone, so a check
can draw a chunk's paths as one batch; a chunk whose rows lie on several
grids draws one batch per grid (`_grid_groups`).  Each row it gets back
depends on one seed alone, so neither the chunk size nor the worker count
changes the result.  A report's config is exactly its check's arguments
less the master seed (a field) and the thread count, so config and seed
replay the report; the gates are fixed constants of `acceptance`,
recorded in `tests` next to the values they bound (A5's `residual_tol`
alone stays an argument: the benchmark's validator reads it from the
config).  Serialization has a canonical form (timing excluded) on which
byte-reproducibility rests.

A report owns its check's clock: `wall_time_s` runs from the report's
creation, a check's first statement, to `McReport.stop_clock` as the check
returns, so it covers the check's refusals, sigma and every draw.

The summaries and KS tests run on numpy and the standard library alone;
no module of the package imports scipy.  `describe` gives the bits of
scipy's `describe`, `skew` and `kurtosis`, and `ks_two_sample`, which takes
two batches of one size, counts its exact p-value in plain floats as
scipy's exact method does.  `ks_one_sample`, which tests against N(0, 1)
alone, reads the normal CDF from `math.erfc` and Kolmogorov's limit law
from its two classical series (`_kolmogorov_sf`): within 1e-15 of scipy's
D and 1e-13 of its p-value, not bit for bit.  Imports a call needs load
with that call, not with the module, so a process never pays for what it
does not run: `ThreadPoolExecutor` (and with it `logging`, `queue` and
`traceback`) with the first `replicate_map` on more than one thread, and
`json` with the first `McReport.canonical_json`.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .fbm import SeedSpec
from .version import VERSION

#: fewest samples per batch either KS test takes (the one-sample p-value
#: is Kolmogorov's limit law)
KS_MIN_SAMPLES = 50

#: most grid steps the seeds of one `replicate_map` chunk, or one batch of
#: `_grid_groups`, sample together (4 rows at 2^12 steps, 1 at 2^14).  This
#: bounds a batch's buffers: a chunk of 2^16 steps holds MiB-sized
#: temporaries, which glibc's malloc returns to the system when they are
#: freed, so every chunk pays page faults on fresh memory (40k minor faults
#: per 500-replicate A1 at 16 rows of 2^12 steps, none at 4 rows), which
#: cost more than the batching saves.  The circulant sampler keeps one flat
#: pair of normals and half-spectrum buffers per thread, and a draw of up
#: to 2^15 points works in views of it (`fbm._buffers`), so chunks of any
#: shape reuse it instead of faulting it in: A4's level-14 gap loop, one
#: 2^14-step row per chunk, fell from 256 minor faults per path to none.
#: What each chunk still allocates afresh (the transform's output, the
#: paths, the statistic's sums) is what this cap keeps small.
CHUNK_STEPS = 2**14


def _plain(obj):
    """Convert numpy scalars/arrays nested in dicts/lists to plain Python."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


@dataclass
class McReport:
    """Per-experiment record: estimates, tests, failures, seeds, config.

    The check passed exactly when it recorded no failure.  `wall_time_s`
    is the seconds from the report's creation to `stop_clock`, the whole
    check that made it, and stays out of `to_dict`; the start time is a
    private field outside `__init__`, `repr`, equality and `to_dict`.
    """

    kind: str
    config: dict
    master_seed: int
    estimates: dict = field(default_factory=dict)
    tests: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    wall_time_s: float = 0.0
    version: str = VERSION
    _start: float = field(default_factory=time.perf_counter, init=False, repr=False,
                          compare=False)

    def stop_clock(self) -> McReport:
        """Set `wall_time_s` to the seconds since the report was made, and
        return the report: a check ends with `return report.stop_clock()`."""
        self.wall_time_s = time.perf_counter() - self._start
        return self

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        """Everything but the timing, as plain Python values."""
        return {
            "kind": self.kind,
            "version": self.version,
            "master_seed": int(self.master_seed),
            "config": _plain(self.config),
            "estimates": _plain(self.estimates),
            "tests": _plain(self.tests),
            "passed": self.passed,
            "failures": list(self.failures),
        }

    def canonical_json(self) -> str:
        """Byte-reproducible serialization: identical config and master seed
        produce identical bytes (timing carries no information and is
        excluded)."""
        import json

        return json.dumps(self.to_dict(), sort_keys=True, indent=1)


def _replicate_counts(**counts: int) -> None:
    """Refuse a replicate count below 1 under its name: `replicate_map`
    would draw nothing for it."""
    for name, count in counts.items():
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")


def _ks_samples(**counts: int) -> None:
    """Refuse a sample count below KS_MIN_SAMPLES under its name."""
    for name, count in counts.items():
        if count < KS_MIN_SAMPLES:
            raise ValueError(f"{name} must be >= {KS_MIN_SAMPLES} for a KS test, got {count}")


def replicate_map(
    fn, replicates: int, master_seed: int, threads: int = 1, steps: int = 1
) -> np.ndarray:
    """Row i of the result is fn's row for SeedSpec(master_seed, i), for
    i = 0..replicates-1.

    fn takes a chunk, a list of consecutive SeedSpecs, and returns one row
    per seed, in the chunk's order (an array whose first axis runs over
    the chunk).  Each row must depend on its own seed alone, never on the
    chunk it came in.  `steps` is the number of grid steps one row
    samples: a chunk holds at most CHUNK_STEPS // steps seeds (at least
    one), and at most ceil(replicates / threads), so that every thread
    gets work.  Chunks are concatenated in replicate order, so the result
    is independent of the chunk size and the worker count.
    """
    _replicate_counts(replicates=replicates)
    seeds = [SeedSpec(master_seed, i) for i in range(replicates)]
    size = max(1, min(CHUNK_STEPS // max(steps, 1), -(-replicates // max(threads, 1))))
    chunks = [seeds[i : i + size] for i in range(0, replicates, size)]
    if threads <= 1:
        rows = [fn(chunk) for chunk in chunks]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(fn, chunks))
    return np.concatenate(rows)


def _grid_groups(grid_of, horizons):
    """(rows, grid) groups of the rows whose horizons `grid_of` maps to one
    grid, in order of first appearance, rows ascending, each at most
    max(1, CHUNK_STEPS // steps) rows of its grid's steps: the batches in
    which a chunk whose rows lie on several grids draws its paths."""
    groups = {}
    for i, t in enumerate(horizons):
        groups.setdefault(grid_of(t), []).append(i)
    for grid, rows in groups.items():
        cap = max(1, CHUNK_STEPS // (grid.npoints - 1))
        for lo in range(0, len(rows), cap):
            yield rows[lo : lo + cap], grid


def _shape(centered: np.ndarray, d2: np.ndarray, mean) -> tuple[float, float]:
    """Skewness and excess kurtosis of a sample from its centered array, its
    square and its mean: scipy's `skew` and `kurtosis` (biased, Fisher), bit
    for bit, both NaN where scipy's guard finds the sample constant."""
    m2 = np.mean(d2)
    m3 = np.mean(d2 * centered)
    m4 = np.mean(d2**2)
    with np.errstate(all="ignore"):
        if m2 <= (np.finfo(float).eps * mean)**2:
            return math.nan, math.nan
        return float(m3 / m2**1.5), float(m4 / m2**2.0 - 3)


def describe(x: np.ndarray) -> dict:
    """Summary estimates with standard errors for mean and variance, and
    the sample's skewness (0.0 below 3 samples) and excess kurtosis (0.0
    below 4).  A sample with an infinity, or whose squares or fourth powers
    overflow, gets non-finite estimates without a warning, so its gate fails."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    with np.errstate(invalid="ignore", over="ignore"):
        mean = np.mean(x)
        centered = x - mean
        d2 = centered**2
        # np.var(x, ddof=1), bit for bit, without centering again
        var = np.sum(d2) / (n - 1) if n > 1 else 0.0
        # a numpy var**2 is libm's pow, as a float's, but inf on overflow
        se_var = math.sqrt(max(np.mean(centered**4) - var**2, 0.0) / n) if n > 1 else 0.0
        skewness, ex_kurtosis = _shape(centered, d2, mean) if n > 2 else (0.0, 0.0)
    return {
        "n": n,
        "mean": float(mean),
        "variance": float(var),
        "se_mean": math.sqrt(var / n) if n else 0.0,
        "se_variance": se_var,
        "skewness": skewness,
        "ex_kurtosis": ex_kurtosis if n > 3 else 0.0,
    }


def _has_nan(*batches: np.ndarray) -> bool:
    """Whether a batch holds a NaN: then scipy's KS tests, under their
    default `nan_policy="propagate"`, return (nan, nan), and so do these."""
    return any(np.isnan(b).any() for b in batches)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """The standard normal CDF, 0.5 erfc(-x / sqrt(2)), of each entry of a
    float array: numpy has no erf, so each value goes through `math.erfc`."""
    return 0.5 * np.fromiter(map(math.erfc, (x * -math.sqrt(0.5)).tolist()), float, len(x))


#: below this y, `_kolmogorov_sf` sums its theta form, above it the
#: alternating series: each then needs at most six terms
_KOLMOGOROV_CUT = 0.82


def _sum_decaying(terms) -> float:
    """The sum of `terms`, whose magnitudes decrease, stopped at the first
    term too small to move it."""
    total = 0.0
    for term in terms:
        total += term
        if abs(term) <= abs(total) * 2**-53:
            return total


def _kolmogorov_sf(y: float) -> float:
    """Pr(K > y) for Kolmogorov's limit law K, the supremum of a Brownian
    bridge's magnitude (Kolmogorov 1933; Marsaglia, Tsang and Wang 2003,
    *J. Stat. Softw.* 8).

    Below _KOLMOGOROV_CUT it is 1 - sqrt(2 pi)/y sum_k exp(-(2k-1)^2 pi^2/(8y^2)),
    the theta form, whose terms fall fast where the alternating series'
    do not; above it, 2 sum_k (-1)^(k-1) exp(-2 k^2 y^2).  The result is
    clipped to [0, 1].
    """
    if y <= 0.0:
        return 1.0
    if y < _KOLMOGOROV_CUT:
        t = math.pi / y  # t * t, unlike t**2, overflows to inf without raising
        c = -t * t / 8
        theta = _sum_decaying(math.exp(c * (2 * k - 1)**2) for k in itertools.count(1))
        # the sum first: it is 0 below y = 0.04, where sqrt(2 pi)/y can overflow
        sf = 1.0 - theta * math.sqrt(2 * math.pi) / y
    else:
        c = -2 * y * y
        sf = 2 * _sum_decaying((-1)**(k - 1) * math.exp(c * k * k) for k in itertools.count(1))
    return min(max(sf, 0.0), 1.0)


def ks_one_sample(samples) -> tuple[float, float]:
    """Two-sided one-sample Kolmogorov-Smirnov test against N(0, 1) with
    asymptotic p-value: scipy's `kstest(samples, "norm", method="asymp")`
    within 1e-15 in D and 1e-13 in the p-value, (nan, nan) exactly as
    scipy's for a batch with a NaN.  The normal CDF is `_normal_cdf`; the
    p-value is Kolmogorov's limit law at D sqrt(n) (`_kolmogorov_sf`).
    """
    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    _ks_samples(samples=n)
    if _has_nan(samples):
        return math.nan, math.nan
    x = np.sort(samples)
    c = _normal_cdf(x)
    d = float(max(np.max(c - np.arange(0.0, n) / n), np.max(np.arange(1.0, n + 1) / n - c)))
    return d, _kolmogorov_sf(d * math.sqrt(n))


def _prob_outside_square(n: int, h: int) -> float:
    """Pr(D_{n,n} >= h/n) for 0 < h <= n: the share of the lattice paths
    from (0, 0) to (n, n) that reach a diagonal x - y = +-h (Gnedenko and
    Korolyuk 1951; Hodges 1958, *Ark. Mat.* 3, 469-486).

    A port of `_compute_prob_outside_square` in scipy 1.17.1's
    `stats/_stats_py.py`, bit for bit: the alternating sum
    2 (C(2n, n-h) - C(2n, n-2h) + ...) / C(2n, n), each term divided by
    C(2n, n) and the common factors taken out in Horner form, which avoids
    the sum's cancellation.  scipy is distributed under the BSD 3-Clause
    license (Copyright (c) 2001-2002 Enthought, Inc. and 2003-2024 SciPy
    Developers).
    """
    p = 0.0
    for k in range(n // h, -1, -1):
        p1 = 1.0
        for j in range(h):
            p1 = (n - k * h - j) * p1 / (n + k * h + j + 1)
        p = p1 * (1.0 - p)
    return 2 * p


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sided two-sample Kolmogorov-Smirnov test on two batches of one
    size n, with exact p-value: scipy's `ks_2samp(a, b, method="exact")`,
    bit for bit.

    D = h/n for h the largest gap between the batches' ECDF counts, and
    the p-value is Pr(D_{n,n} >= D) under the null (`_prob_outside_square`),
    1.0 at h = 0.  Where rounding lifts that count above 1, at h up to
    about 0.26 sqrt(n), scipy gives up the exact method with a warning and
    returns the asymptotic law; this clips it to 1.0, within 1e-15 of the
    true probability.  Batches of different sizes are refused: no check
    draws them.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = len(a)
    if len(b) != n:
        raise ValueError(f"batches must have one size for the exact KS test, got {n} and {len(b)}")
    _ks_samples(samples=n)
    if _has_nan(a, b):
        return math.nan, math.nan
    a = np.sort(a)
    b = np.sort(b)
    both = np.concatenate([a, b])
    h = int(np.max(np.abs(np.searchsorted(a, both, side="right")
                          - np.searchsorted(b, both, side="right"))))
    if h == 0:
        return 0.0, 1.0
    return h / n, float(np.clip(_prob_outside_square(n, h), 0.0, 1.0))
