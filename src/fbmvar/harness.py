"""Monte Carlo replicate loop, the test operations built on it, and
statistical tests.

Every operation runs `replicate_map`, whose seed stream is the replicate
index, so an aggregate is a deterministic function of the master seed
regardless of the worker count (the reduction is ordered by replicate
index).  Reports are self-describing: every threshold an assertion uses is
part of the embedded config, and serialization has a canonical form
(timing excluded) on which byte-reproducibility is defined.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import stats as sps

from .fbm import GridSpec, SeedSpec, sample_fbm
from .gaussian import gaussian_moment, limit_sigma
from .variations import limit_quadrature, simulate_limit, variation
from .version import VERSION
from .weights import get_weight


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
    """Per-experiment record: estimates, tests, pass/fail, seeds, config."""

    kind: str
    config: dict
    master_seed: int
    estimates: dict = field(default_factory=dict)
    tests: dict = field(default_factory=dict)
    passed: bool | None = None
    failures: list = field(default_factory=list)
    wall_time_s: float = 0.0
    version: str = VERSION

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "kind": self.kind,
            "version": self.version,
            "master_seed": int(self.master_seed),
            "config": _plain(self.config),
            "estimates": _plain(self.estimates),
            "tests": _plain(self.tests),
            "passed": self.passed,
            "failures": list(self.failures),
        }
        if include_timing:
            out["wall_time_s"] = float(self.wall_time_s)
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_dict(include_timing), sort_keys=True, indent=1)

    def canonical_json(self) -> str:
        """Byte-reproducible serialization: identical config and master seed
        produce identical bytes (timing carries no information and is
        excluded)."""
        return self.to_json(include_timing=False)


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


def _grid_to(t: float, level: int) -> GridSpec:
    return GridSpec(level=level, t_min=0.0, t_max=t)


def ks_one_sample(samples, cdf, min_samples: int = 50) -> tuple[float, float]:
    """Two-sided one-sample Kolmogorov-Smirnov test with asymptotic p-value."""
    samples = np.asarray(samples, dtype=float)
    if len(samples) < min_samples:
        raise ValueError(f"need >= {min_samples} samples, got {len(samples)}")
    res = sps.kstest(samples, cdf, method="asymp")
    return float(res.statistic), float(res.pvalue)


def ks_two_sample(a, b, min_samples: int = 50) -> tuple[float, float]:
    """Two-sided two-sample Kolmogorov-Smirnov test with asymptotic p-value."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if len(a) < min_samples or len(b) < min_samples:
        raise ValueError(f"need >= {min_samples} samples in each batch")
    res = sps.ks_2samp(a, b, method="asymp")
    return float(res.statistic), float(res.pvalue)


def moment_scaling_test(
    h: float,
    r: int,
    f: str,
    n: int,
    p: int,
    pairs,
    replicates: int = 2000,
    master_seed: int = 0,
    band_factor: float = 10.0,
    threads: int = 1,
) -> McReport:
    """Window-increment moment scaling against the bound d^(p/2) + d^(pH).

    For each on-grid pair (s, t) the p-th absolute moment of the window
    increment of the midpoint statistic is estimated and divided by
    C * (d^(p/2) + d^(pH)), d = (floor(2^n t) - floor(2^n s)) / 2^n, with C
    fitted on the coarsest pair.  The claim is an upper bound with an
    unspecified constant, so the assertion is one-sided: no ratio may
    exceed band_factor.  (Ratios well below 1 are expected wherever one
    bound term is loose, e.g. constant weights kill the d^(pH) part.)
    """
    if p not in (4, 6):
        raise ValueError("p must be 4 or 6")
    weight = get_weight(f)
    cfg = {
        "h": h,
        "r": r,
        "f": f,
        "n": n,
        "p": p,
        "pairs": [list(pair) for pair in pairs],
        "replicates": replicates,
        "band_factor": band_factor,
        "threads": threads,
    }
    start = time.perf_counter()
    grid = _grid_to(1.0, n)
    spans = []
    for s, t in pairs:
        ks, kt = math.floor(s * 2**n), math.floor(t * 2**n)
        if not 0 <= ks <= kt <= 2**n:
            raise ValueError(f"pair ({s}, {t}) not inside [0, 1]")
        spans.append((ks, kt))

    def one(seed: SeedSpec) -> np.ndarray:
        path = sample_fbm(h, grid, seed)
        series = variation(path, weight, r)
        vals = series.values
        return np.array([abs(vals[kt] - vals[ks]) ** p for ks, kt in spans])

    samples = replicate_map(one, replicates, master_seed, threads)
    moments = samples.mean(axis=0)
    se = samples.std(axis=0, ddof=1) / math.sqrt(replicates)
    d = np.array([(kt - ks) / 2.0**n for ks, kt in spans])
    bound = d ** (p / 2.0) + d ** (p * h)

    report = McReport(kind="moment_scaling", config=cfg, master_seed=master_seed)
    live = d > 0
    failures = []
    for i in np.flatnonzero(~live):
        if moments[i] != 0.0:
            failures.append(f"pair {pairs[i]} has zero width but moment {moments[i]}")
    ratios = np.full_like(d, np.nan)
    slope = None
    if np.any(live):
        coarse = int(np.argmax(d))
        c_fit = moments[coarse] / bound[coarse]
        ratios[live] = moments[live] / (c_fit * bound[live])
        bad = ratios[live] > band_factor
        for i in np.flatnonzero(live)[bad]:
            failures.append(f"pair {pairs[i]}: ratio {ratios[i]:.3g} above band {band_factor}")
        pos = live & (moments > 0)
        if pos.sum() >= 2:
            slope = float(np.polyfit(np.log2(d[pos]), np.log2(moments[pos]), 1)[0])
        report.estimates["fit_constant"] = float(c_fit)
    report.estimates.update(
        {
            "d": d,
            "moments": moments,
            "se": se,
            "bound": bound,
            "ratios": ratios,
            "slope_log2": slope,  # exponent of d: the moment behaves like d^slope
            "slope_reference": float(min(p / 2.0, p * h)),
        }
    )
    report.failures = failures
    report.passed = not failures
    report.wall_time_s = time.perf_counter() - start
    return report


def l2_endpoint_test(
    h: float,
    r: int,
    f: str,
    n_list,
    t: float,
    replicates: int = 200,
    master_seed: int = 0,
    rms_threshold: float = 0.15,
    threads: int = 1,
) -> McReport:
    """Pathwise L2 errors of the endpoint statistics against their limits.

    Per path, the left statistic is compared with -mu_{2r}/2 * integral of
    f'(X) (trapezoid quadrature on the same path), the right statistic with
    the + sign, and the trapezoid-weighted statistic under the same
    normalization with 0.  Asserted: the last level improves on the first,
    the left/right RMS at the last level is below `rms_threshold`, and the
    trapezoid RMS is below both endpoint RMS values at the first level --
    the coarse level is where the endpoint bias terms are visible; at fine
    levels all three statistics share the same dominant fluctuation and the
    comparison carries no information.
    """
    if r < 2:
        raise ValueError("the endpoint limits require r >= 2")
    weight = get_weight(f)
    if weight.order < 1:
        raise ValueError("weight must provide a first derivative")
    mu = gaussian_moment(2 * r)
    cfg = {
        "h": h,
        "r": r,
        "f": f,
        "n_list": list(n_list),
        "t": t,
        "replicates": replicates,
        "rms_threshold": rms_threshold,
        "threads": threads,
    }
    start = time.perf_counter()
    rms = {}
    for n in n_list:
        grid = _grid_to(t, n)

        def one(seed: SeedSpec, n=n, grid=grid) -> np.ndarray:
            path = sample_fbm(h, grid, seed)
            target = 0.5 * mu * limit_quadrature(path, weight, "f_prime", t)
            left = variation(path, weight, r, "left").value_at(t)
            right = variation(path, weight, r, "right").value_at(t)
            trap = 0.5 * (left + right)
            return np.array([(left + target) ** 2, (right - target) ** 2, trap**2])

        sq = replicate_map(one, replicates, master_seed, threads).mean(axis=0)
        rms[str(n)] = {
            "left": math.sqrt(sq[0]),
            "right": math.sqrt(sq[1]),
            "trapezoid": math.sqrt(sq[2]),
        }
    first, last = str(n_list[0]), str(n_list[-1])
    failures = []
    for side in ("left", "right"):
        if not rms[last][side] < rms[first][side]:
            failures.append(f"{side} RMS did not decrease: {rms[first][side]:.4g} -> {rms[last][side]:.4g}")
        if not rms[last][side] < rms_threshold:
            failures.append(f"{side} RMS at n={last} is {rms[last][side]:.4g} >= {rms_threshold}")
    # exact tie allowed: for constant f the three statistics coincide
    if rms[first]["trapezoid"] > min(rms[first]["left"], rms[first]["right"]) * (1 + 1e-12):
        failures.append("trapezoid RMS is not below both endpoint RMS values")
    report = McReport(
        kind="l2_endpoint",
        config=cfg,
        master_seed=master_seed,
        estimates={"rms": rms, "mu_2r_half": 0.5 * mu},
        failures=failures,
        passed=not failures,
    )
    report.wall_time_s = time.perf_counter() - start
    return report


def mixture_law_test(
    h: float,
    r: int,
    f: str,
    n: int,
    replicates: int,
    master_seed: int = 0,
    alpha: float = 0.01,
    corr_slack: float = 0.02,
    statistic: str = "midpoint",
    threads: int = 1,
    degenerate_gap: int = 4,
    degenerate_ratio: float = 0.7,
) -> McReport:
    """Distributional check of the statistic at t=1 against the mixture law.

    The statistic is `variation` under the node rule `statistic`.  Its draws
    are compared (two-sample KS) with independent draws of
    sigma * sum f(X) dW; the mean must vanish within se_mult standard
    errors, and the correlation with the terminal path value must be below
    3/sqrt(R) + corr_slack.  For r = 1 the limit is degenerate and
    the check becomes variance decay: Var at level n must be below
    degenerate_ratio times its value at level n - degenerate_gap.
    """
    weight = get_weight(f)
    sigma = limit_sigma(r, h, 1e-10)
    cfg = {
        "h": h,
        "r": r,
        "f": f,
        "n": n,
        "replicates": replicates,
        "alpha": alpha,
        "corr_slack": corr_slack,
        "statistic": statistic,
        "sigma": sigma.value,
        "degenerate_gap": degenerate_gap,
        "degenerate_ratio": degenerate_ratio,
        "threads": threads,
    }
    start = time.perf_counter()
    report = McReport(kind="mixture_law", config=cfg, master_seed=master_seed)
    failures = []

    if sigma.value == 0.0:
        variances = {}
        for level in (n - degenerate_gap, n):
            def one(seed: SeedSpec, level=level) -> float:
                path = sample_fbm(h, _grid_to(1.0, level), seed)
                return variation(path, weight, r, statistic).value_at(1.0)

            vals = replicate_map(one, replicates, master_seed, threads)
            variances[str(level)] = describe(vals)
        v_lo = variances[str(n - degenerate_gap)]["variance"]
        v_hi = variances[str(n)]["variance"]
        if not v_hi < degenerate_ratio * v_lo:
            failures.append(f"degenerate variance did not decay: {v_lo:.4g} -> {v_hi:.4g}")
        report.estimates["variances"] = variances
    else:
        def stat_and_terminal(seed: SeedSpec) -> np.ndarray:
            path = sample_fbm(h, _grid_to(1.0, n), seed.substream(0))
            val = variation(path, weight, r, statistic).value_at(1.0)
            return np.array([val, path.value_at(1.0)])

        def limit_draw(seed: SeedSpec) -> np.ndarray:
            path = sample_fbm(h, _grid_to(1.0, n), seed.substream(1))
            val = simulate_limit(path, weight, sigma, 1.0, seed.substream(2))
            return np.array([val, path.value_at(1.0)])

        pairs = replicate_map(stat_and_terminal, replicates, master_seed, threads)
        phi, x1 = pairs[:, 0], pairs[:, 1]
        lim_pairs = replicate_map(limit_draw, replicates, master_seed, threads)
        lim = lim_pairs[:, 0]
        ks_stat, p_val = ks_two_sample(phi, lim)
        desc = describe(phi)
        corr = float(np.corrcoef(phi, x1)[0, 1])
        corr_bound = 3.0 / math.sqrt(replicates) + corr_slack
        report.estimates["statistic"] = desc
        report.estimates["limit"] = describe(lim)
        report.tests["ks_two_sample"] = {"statistic": ks_stat, "p_value": p_val}
        report.tests["corr_with_terminal"] = {"value": corr, "bound": corr_bound}
        # diagnostic: on the limit side W really is independent of the path,
        # so this correlation is exactly zero in law at every n
        report.tests["corr_limit_side"] = {
            "value": float(np.corrcoef(lim, lim_pairs[:, 1])[0, 1])
        }
        if not p_val > alpha:
            failures.append(f"mixture KS p-value {p_val:.4g} <= {alpha}")
        if abs(desc["mean"]) > 3.0 * desc["se_mean"]:
            failures.append(f"mean {desc['mean']:.4g} not within 3 SE of 0")
        if not abs(corr) < corr_bound:
            failures.append(f"|corr| {abs(corr):.4g} >= {corr_bound:.4g}")
    report.failures = failures
    report.passed = not failures
    report.wall_time_s = time.perf_counter() - start
    return report
