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

The summaries and KS tests give the bits of scipy's statistics package
without loading it: `describe` computes its moments in numpy,
`ks_one_sample` reads Kolmogorov's limit law from `scipy.special`, and
`ks_two_sample` its finite-n law from `_kolmogorov`, a port of scipy's.
Imports a call needs load with that call, not with the module, so a
process never pays for what it does not run: `scipy.special` with the
first `ks_one_sample` or `ks_two_sample` (`describe` loads no scipy),
`ThreadPoolExecutor` (and with it `logging`, `queue` and `traceback`) with
the first `replicate_map` on more than one thread, and `json` with the
first `McReport.canonical_json`.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .fbm import SeedSpec
from .version import VERSION

#: fewest samples per batch the asymptotic KS p-values are computed for
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


def _shape(centered: np.ndarray, mean) -> tuple[float, float]:
    """Skewness and excess kurtosis of a sample from its centered array and
    its mean: scipy's `skew` and `kurtosis` (biased, Fisher), bit for bit,
    both NaN where scipy's guard finds the sample constant."""
    d2 = centered**2
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
    below 4)."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    mean = np.mean(x)
    var = float(np.var(x, ddof=1)) if n > 1 else 0.0
    centered = x - mean
    m4 = float(np.mean(centered**4))
    se_var = math.sqrt(max(m4 - var**2, 0.0) / n) if n > 1 else 0.0
    skewness, ex_kurtosis = _shape(centered, mean) if n > 2 else (0.0, 0.0)
    return {
        "n": n,
        "mean": float(mean),
        "variance": var,
        "se_mean": math.sqrt(var / n) if n else 0.0,
        "se_variance": se_var,
        "skewness": skewness,
        "ex_kurtosis": ex_kurtosis if n > 3 else 0.0,
    }


def _has_nan(*batches: np.ndarray) -> bool:
    """Whether a batch holds a NaN: then scipy's KS tests, under their
    default `nan_policy="propagate"`, return (nan, nan), and so do these."""
    return any(np.isnan(b).any() for b in batches)


def ks_one_sample(samples, cdf) -> tuple[float, float]:
    """Two-sided one-sample Kolmogorov-Smirnov test with asymptotic p-value:
    scipy's `kstest(samples, cdf, method="asymp")`, bit for bit.

    `cdf` is "norm" (the standard normal) or a callable CDF, which is
    called once on the sorted samples.  The p-value is Kolmogorov's limit
    law at D sqrt(n).
    """
    from scipy.special import kolmogorov, ndtr

    samples = np.asarray(samples, dtype=float)
    n = len(samples)
    if n < KS_MIN_SAMPLES:
        raise ValueError(f"need >= {KS_MIN_SAMPLES} samples, got {n}")
    if isinstance(cdf, str):
        if cdf != "norm":
            raise ValueError(f'cdf must be "norm" or a callable, got {cdf!r}')
        cdf = ndtr
    if _has_nan(samples):
        return math.nan, math.nan
    x = np.sort(samples)
    c = cdf(x)
    d = max(np.max(c - np.arange(0.0, n) / n), np.max(np.arange(1.0, n + 1) / n - c))
    return float(d), float(np.clip(kolmogorov(d * math.sqrt(n)), 0.0, 1.0))


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sided two-sample Kolmogorov-Smirnov test:
    scipy's `ks_2samp(a, b, method="asymp")`, bit for bit.

    The p-value is Kolmogorov's finite-n distribution, Pr(D_n > d) at
    n = round(mn / (m + n)) for batch sizes m and n (`_kolmogorov`).
    """
    from ._kolmogorov import kstwo_sf

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) < KS_MIN_SAMPLES or len(b) < KS_MIN_SAMPLES:
        raise ValueError(f"need >= {KS_MIN_SAMPLES} samples in each batch")
    if _has_nan(a, b):
        return math.nan, math.nan
    a = np.sort(a)
    b = np.sort(b)
    both = np.concatenate([a, b])
    ecdf_a = np.searchsorted(a, both, side="right") / len(a)
    diffs = ecdf_a - np.searchsorted(b, both, side="right") / len(b)
    d = max(np.max(diffs), np.clip(-np.min(diffs), 0, 1))
    return float(d), kstwo_sf(d, np.round(len(a) * len(b) / (len(a) + len(b))))
