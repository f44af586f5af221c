"""Monte Carlo replicate loop, summary estimates, statistical tests and
the report every acceptance check returns.

`replicate_map`'s seed stream is the replicate index, so an aggregate is
a deterministic function of the master seed whatever the worker count.
A report's config is exactly its check's arguments less the master seed
(a field) and the thread count, so config and seed replay the report;
the gates are fixed constants of `acceptance`, recorded in `tests` next
to the values they bound (A5's `residual_tol` alone stays an argument:
the benchmark's validator reads it from the config).  Serialization has
a canonical form (timing excluded) on which byte-reproducibility rests.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as sps

from .fbm import SeedSpec
from .version import VERSION

#: fewest samples per batch the asymptotic KS p-values are computed for
KS_MIN_SAMPLES = 50


def _plain(obj):
    """Convert numpy scalars/arrays nested in dicts/lists to plain Python."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


@dataclass
class McReport:
    """Per-experiment record: estimates, tests, failures, seeds, config.

    The check passed exactly when it recorded no failure.
    """

    kind: str
    config: dict
    master_seed: int
    estimates: dict = field(default_factory=dict)
    tests: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    wall_time_s: float = 0.0
    version: str = VERSION

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
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)


def replicate_map(fn, replicates: int, master_seed: int, threads: int = 1) -> np.ndarray:
    """Evaluate fn(SeedSpec(master_seed, i)) for i = 0..replicates-1.

    The reduction is ordered by replicate index, so the result is
    independent of the worker count.
    """
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    seeds = [SeedSpec(master_seed, i) for i in range(replicates)]
    if threads <= 1:
        rows = [fn(s) for s in seeds]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(fn, seeds))
    return np.asarray(rows)


def describe(x: np.ndarray) -> dict:
    """Summary estimates with standard errors for mean and variance."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    mean = float(np.mean(x))
    var = float(np.var(x, ddof=1)) if n > 1 else 0.0
    centered = x - mean
    m4 = float(np.mean(centered**4))
    se_var = math.sqrt(max(m4 - var**2, 0.0) / n) if n > 1 else 0.0
    return {
        "n": n,
        "mean": mean,
        "variance": var,
        "se_mean": math.sqrt(var / n) if n else 0.0,
        "se_variance": se_var,
        "skewness": float(sps.skew(x)) if n > 2 else 0.0,
        "ex_kurtosis": float(sps.kurtosis(x)) if n > 3 else 0.0,
    }


def ks_one_sample(samples, cdf) -> tuple[float, float]:
    """Two-sided one-sample Kolmogorov-Smirnov test with asymptotic p-value."""
    samples = np.asarray(samples, dtype=float)
    if len(samples) < KS_MIN_SAMPLES:
        raise ValueError(f"need >= {KS_MIN_SAMPLES} samples, got {len(samples)}")
    res = sps.kstest(samples, cdf, method="asymp")
    return float(res.statistic), float(res.pvalue)


def ks_two_sample(a, b) -> tuple[float, float]:
    """Two-sided two-sample Kolmogorov-Smirnov test with asymptotic p-value."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) < KS_MIN_SAMPLES or len(b) < KS_MIN_SAMPLES:
        raise ValueError(f"need >= {KS_MIN_SAMPLES} samples in each batch")
    res = sps.ks_2samp(a, b, method="asymp")
    return float(res.statistic), float(res.pvalue)
