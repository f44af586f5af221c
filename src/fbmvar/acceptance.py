"""Named acceptance checks A1-A10: each limit theorem as a desk-scale test.

Statistical checks are defined to pass under the shipped default seeds;
the re-run policy on a failure is three independent master seeds with a
majority vote (distributional limits cannot be asserted pathwise, and a
fixed-seed contract keeps CI deterministic).  Exact-identity checks (A5,
A8) are seed-robust and run once.

Every threshold lives in the check's config dict and is embedded in the
returned report.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import stats as sps

from .brownian_time import (
    identity_residuals,
    sample_fbmbt,
    sample_walk,
    walk_power_variation,
)
from .fbm import GridSpec, SeedSpec, sample_fbm, sample_fbm_cholesky
from .gaussian import (
    as_hurst,
    coarse_increment_overlap,
    fbm_covariance,
    limit_sigma,
    midpoint_increment_overlap,
    midpoint_increment_overlap_closed,
)
from .harness import (
    McReport,
    describe,
    ks_one_sample,
    ks_two_sample,
    l2_endpoint_test,
    mixture_law_test,
    moment_scaling_test,
    replicate_map,
)
from .variations import variation
from .weights import get_weight

#: shipped default seeds; the first is the primary, the other two are the
#: documented re-run seeds for the majority policy
DEFAULT_MASTER_SEEDS = (20260809, 1115741, 902245)


def _unweighted_draws(h, r, level, t, replicates, master_seed, threads):
    grid = GridSpec(level=level, t_min=0.0, t_max=t)

    def one(seed: SeedSpec) -> float:
        return variation(sample_fbm(h, grid, seed), None, r).value_at(t)

    return replicate_map(one, replicates, master_seed, threads)


def check_a1(
    master_seed: int = DEFAULT_MASTER_SEEDS[0],
    threads: int = 1,
    replicates: int = 5000,
    level: int = 12,
    h: float = 0.25,
    r: int = 2,
    se_mult: float = 3.0,
    sigma_tol: float = 1e-8,
) -> McReport:
    """A1: MC variance of the unweighted statistic matches sigma^2."""
    cfg = dict(replicates=replicates, level=level, h=h, r=r, se_mult=se_mult, sigma_tol=sigma_tol)
    start = time.perf_counter()
    sigma = limit_sigma(r, h, sigma_tol)
    draws = _unweighted_draws(h, r, level, 1.0, replicates, master_seed, threads)
    desc = describe(draws)
    gap = abs(desc["variance"] - sigma.value**2)
    ok = gap <= se_mult * desc["se_variance"]
    report = McReport(kind="A1", config=cfg, master_seed=master_seed)
    report.estimates = {"draws": desc, "sigma": sigma.value, "sigma_sq": sigma.value**2}
    report.tests["variance_vs_sigma_sq"] = {
        "gap": gap,
        "allowed": se_mult * desc["se_variance"],
    }
    if not ok:
        report.failures.append(
            f"variance {desc['variance']:.4g} vs sigma^2 {sigma.value ** 2:.4g}: "
            f"gap {gap:.4g} > {se_mult} SE"
        )
    report.passed = not report.failures
    report.wall_time_s = time.perf_counter() - start
    return report


def check_a2(
    master_seed: int = DEFAULT_MASTER_SEEDS[0],
    threads: int = 1,
    replicates: int = 5000,
    level: int = 12,
    h: float = 0.25,
    r: int = 2,
    alpha: float = 0.01,
    sigma_tol: float = 1e-8,
) -> McReport:
    """A2: unweighted statistic / sigma is standard normal (KS)."""
    cfg = dict(replicates=replicates, level=level, h=h, r=r, alpha=alpha, sigma_tol=sigma_tol)
    start = time.perf_counter()
    sigma = limit_sigma(r, h, sigma_tol)
    draws = _unweighted_draws(h, r, level, 1.0, replicates, master_seed, threads)
    stat, p = ks_one_sample(draws / sigma.value, sps.norm.cdf)
    report = McReport(kind="A2", config=cfg, master_seed=master_seed)
    report.tests["ks_vs_standard_normal"] = {"statistic": stat, "p_value": p}
    if not p > alpha:
        report.failures.append(f"KS p-value {p:.4g} <= {alpha}")
    report.passed = not report.failures
    report.wall_time_s = time.perf_counter() - start
    return report


def check_a3(
    master_seed: int = DEFAULT_MASTER_SEEDS[0],
    threads: int = 1,
    replicates: int = 5000,
    level: int = 12,
    h: float = 0.25,
    r: int = 2,
    f: str = "gauss",
    alpha: float = 0.01,
    corr_slack: float = 0.02,
) -> McReport:
    """A3: weighted mixture law for the midpoint statistic."""
    report = mixture_law_test(
        h, r, f, level, replicates, master_seed, alpha, corr_slack, "midpoint", threads
    )
    report.kind = "A3"
    return report


def check_a4(
    master_seed: int = DEFAULT_MASTER_SEEDS[0],
    threads: int = 1,
    replicates: int = 5000,
    level: int = 12,
    h: float = 0.25,
    r: int = 2,
    f: str = "gauss",
    alpha: float = 0.01,
    corr_slack: float = 0.02,
    decay_levels: tuple[int, int] = (8, 14),
    decay_replicates: int = 600,
    decay_ratio: float = 0.5,
) -> McReport:
    """A4: the trapezoid statistic has the same mixture law, and the
    trapezoid-midpoint gap decays in L2 between the two decay levels."""
    start = time.perf_counter()
    report = mixture_law_test(
        h, r, f, level, replicates, master_seed, alpha, corr_slack, "trapezoid", threads
    )
    report.kind = "A4"
    report.config.update(
        {"decay_levels": list(decay_levels), "decay_replicates": decay_replicates,
         "decay_ratio": decay_ratio}
    )
    weight = get_weight(f)
    l2 = {}
    for n in decay_levels:
        grid = GridSpec(level=n, t_min=0.0, t_max=1.0)

        def one(seed: SeedSpec, grid=grid) -> float:
            path = sample_fbm(h, grid, seed)
            gap = (
                variation(path, weight, r, "trapezoid").value_at(1.0)
                - variation(path, weight, r).value_at(1.0)
            )
            return gap * gap

        l2[str(n)] = math.sqrt(replicate_map(one, decay_replicates, master_seed, threads).mean())
    report.estimates["gap_l2"] = l2
    lo, hi = str(decay_levels[0]), str(decay_levels[1])
    if not l2[hi] < decay_ratio * l2[lo]:
        report.failures.append(
            f"|trapezoid-midpoint| L2 at n={hi} is {l2[hi]:.4g}, "
            f"not below {decay_ratio} * {l2[lo]:.4g}"
        )
    report.passed = not report.failures
    report.wall_time_s = time.perf_counter() - start
    return report


def check_a5(
    master_seed: int = DEFAULT_MASTER_SEEDS[0],
    threads: int = 1,
    samples: int = 1000,
    levels: tuple[int, ...] = (4, 8, 12),
    h: float = 0.25,
    r: int = 2,
    f: str = "gauss",
    residual_tol: float = 1e-9,
) -> McReport:
    """A5: exact identities — direct vs crossing form, and composition
    through the walk's terminal site."""
    cfg = dict(samples=samples, levels=list(levels), h=h, r=r, f=f, residual_tol=residual_tol)
    start = time.perf_counter()
    weight = get_weight(f)
    per_level = [samples // len(levels)] * len(levels)
    per_level[-1] += samples - sum(per_level)
    worst = {"crossing": 0.0, "composition": 0.0}

    idx = 0
    for n, count in zip(levels, per_level):
        def one(seed: SeedSpec, n=n) -> np.ndarray:
            sample = sample_fbmbt(h, n, 1.0, seed)
            res = identity_residuals(sample, weight, r, 1.0)
            return np.array([res["residual_crossing"], res["residual_composition"]])

        res = replicate_map(one, count, master_seed + idx, threads)
        worst["crossing"] = max(worst["crossing"], float(res[:, 0].max()))
        worst["composition"] = max(worst["composition"], float(res[:, 1].max()))
        idx += 1
    report = McReport(kind="A5", config=cfg, master_seed=master_seed)
    report.estimates["max_residual"] = worst
    for name, value in worst.items():
        if not value <= residual_tol:
            report.failures.append(f"{name} residual {value:.3e} > {residual_tol:g}")
    report.passed = not report.failures
    report.wall_time_s = time.perf_counter() - start
    return report


def check_a6(
    master_seed: int = DEFAULT_MASTER_SEEDS[0],
    threads: int = 1,
    replicates: int = 200,
    h: float = 0.3,
    r: int = 2,
    f: str = "sin",
    n_list: tuple[int, ...] = (10, 16),
    t: float = 0.5,
    rms_threshold: float = 0.15,
) -> McReport:
    """A6: endpoint statistics converge to +-mu_{2r}/2 * integral f'(X)."""
    report = l2_endpoint_test(
        h, r, f, n_list, t, replicates, master_seed, rms_threshold, threads
    )
    report.kind = "A6"
    return report


def check_a7(
    master_seed: int = DEFAULT_MASTER_SEEDS[0],
    threads: int = 1,
    replicates: int = 100_000,
    level: int = 5,
    t_min: float = -1.0,
    t_max: float = 1.0,
    hs: tuple[float, ...] = (0.2, 0.25, 0.4),
    se_mult: float = 4.0,
    alpha: float = 0.01,
    chunk: int = 20_000,
) -> McReport:
    """A7: circulant generator against the Cholesky oracle on a two-sided
    grid — entrywise covariance against C_H, terminal-value KS."""
    if replicates < 1:
        raise ValueError(f"replicates must be >= 1, got {replicates}")
    cfg = dict(replicates=replicates, level=level, t_min=t_min, t_max=t_max,
               hs=list(hs), se_mult=se_mult, alpha=alpha)
    start = time.perf_counter()
    grid = GridSpec(level=level, t_min=t_min, t_max=t_max)
    pts = grid.times()
    report = McReport(kind="A7", config=cfg, master_seed=master_seed)
    for h in hs:
        cov = fbm_covariance(h, pts[:, None], pts[None, :])
        var = np.diag(cov)
        se = np.sqrt((var[:, None] * var[None, :] + cov**2) / replicates)
        se[grid.zero_index, :] = np.inf  # pinned zero row has no sampling error
        se[:, grid.zero_index] = np.inf
        zmax = {}
        terminals = {}
        for name, sampler in (("circulant", sample_fbm), ("cholesky", sample_fbm_cholesky)):
            blocks = []
            done = 0
            stream = 0
            while done < replicates:
                rows = min(chunk, replicates - done)
                blocks.append(sampler(h, grid, SeedSpec(master_seed, stream), size=rows))
                done += rows
                stream += 1
            vals = np.concatenate(blocks, axis=0)
            emp = (vals.T @ vals) / replicates
            zmax[name] = float(np.max(np.abs(emp - cov) / se))
            terminals[name] = vals[:, -1]
            if not zmax[name] <= se_mult:
                report.failures.append(
                    f"h={h} {name}: max covariance z-score {zmax[name]:.3g} > {se_mult}"
                )
        stat, p = ks_two_sample(terminals["circulant"], terminals["cholesky"])
        report.estimates[f"h={h}"] = {"max_z": zmax, "ks_terminal": {"statistic": stat, "p_value": p}}
        if not p > alpha:
            report.failures.append(f"h={h}: terminal KS p-value {p:.4g} <= {alpha}")
    report.passed = not report.failures
    report.wall_time_s = time.perf_counter() - start
    return report


def check_a8(
    master_seed: int = DEFAULT_MASTER_SEEDS[0],
    threads: int = 1,
    trials: int = 100,
    identity_tol: float = 1e-12,
    band_factor: float = 4.0,
    band_ms: tuple[int, ...] = (3, 4, 5, 6),
    band_n: int = 12,
    band_hs: tuple[float, ...] = (0.2, 0.3),
) -> McReport:
    """A8: overlap-sum identity (direct vs telescoped closed form) on random
    inputs, and boundedness of the coarse overlap sum against 2^(m(1-2H))."""
    cfg = dict(trials=trials, identity_tol=identity_tol, band_factor=band_factor,
               band_ms=list(band_ms), band_n=band_n, band_hs=list(band_hs))
    start = time.perf_counter()
    rng = SeedSpec(master_seed, 0).rng()
    worst = 0.0
    for _ in range(trials):
        h = rng.uniform(0.05, 0.95)
        n = int(rng.integers(1, 9))
        t = rng.uniform(2.0**-n, 4.0)
        s = rng.uniform(0.0, t) if rng.uniform() < 0.7 else 0.0
        if math.floor(2**n * s) >= math.floor(2**n * t):
            s = 0.0
        direct = midpoint_increment_overlap(h, n, s, t)
        closed = midpoint_increment_overlap_closed(h, n, s, t)
        worst = max(worst, abs(direct - closed) / max(1.0, abs(closed)))
    report = McReport(kind="A8", config=cfg, master_seed=master_seed)
    report.estimates["max_identity_residual"] = worst
    if not worst <= identity_tol:
        report.failures.append(f"overlap identity residual {worst:.3e} > {identity_tol:g}")
    bands = {}
    for h in band_hs:
        ratios = [
            coarse_increment_overlap(h, band_n, m, 1.0) / 2.0 ** (m * (1.0 - 2.0 * h))
            for m in band_ms
        ]
        spread = max(ratios) / min(ratios)
        bands[f"h={h}"] = {"ratios": ratios, "spread": spread}
        if not spread <= band_factor:
            report.failures.append(f"h={h}: coarse overlap ratio spread {spread:.3g} > {band_factor}")
    report.estimates["bands"] = bands
    report.passed = not report.failures
    report.wall_time_s = time.perf_counter() - start
    return report


def check_a9(
    master_seed: int = DEFAULT_MASTER_SEEDS[0],
    threads: int = 1,
    replicates: int = 5000,
    level: int = 10,
    h: float = 0.25,
    r: int = 2,
    f: str = "one",
    se_mult: float = 4.0,
    alpha: float = 0.01,
    donsker_level: int = 12,
    donsker_replicates: int = 10_000,
    sigma_tol: float = 1e-8,
) -> McReport:
    """A9: Brownian-time variance and mixture law, plus the walk's CLT.

    Var(2^(-n/4) V_n(1)) must match sigma^2 E|Y_1| = sigma^2 sqrt(2/pi);
    the law is checked against sigma sqrt(|Y|) N with independent standard
    normals Y, N; the embedded walk's terminal value must be standard
    normal at the Donsker level.
    """
    cfg = dict(replicates=replicates, level=level, h=h, r=r, f=f, se_mult=se_mult,
               alpha=alpha, donsker_level=donsker_level,
               donsker_replicates=donsker_replicates, sigma_tol=sigma_tol)
    start = time.perf_counter()
    sigma = limit_sigma(r, h, sigma_tol)
    weight = get_weight(f)
    norm = 2.0 ** (-level / 4.0)

    def one(seed: SeedSpec) -> float:
        sample = sample_fbmbt(h, level, 1.0, seed)
        return norm * walk_power_variation(sample, weight, r, 1.0)

    draws = replicate_map(one, replicates, master_seed, threads)
    desc = describe(draws)
    target = sigma.value**2 * math.sqrt(2.0 / math.pi)
    gap = abs(desc["variance"] - target)
    report = McReport(kind="A9", config=cfg, master_seed=master_seed)
    report.estimates["draws"] = desc
    report.estimates["variance_target"] = target
    report.tests["variance_vs_mixture"] = {"gap": gap, "allowed": se_mult * desc["se_variance"]}
    if not gap <= se_mult * desc["se_variance"]:
        report.failures.append(
            f"variance {desc['variance']:.4g} vs target {target:.4g}: gap beyond {se_mult} SE"
        )
    ref_rng = SeedSpec(master_seed, 0).substream(9).rng()
    y = ref_rng.standard_normal(replicates)
    z = ref_rng.standard_normal(replicates)
    reference = sigma.value * np.sqrt(np.abs(y)) * z
    stat, p = ks_two_sample(draws, reference)
    report.tests["ks_vs_mixture"] = {"statistic": stat, "p_value": p}
    if not p > alpha:
        report.failures.append(f"mixture KS p-value {p:.4g} <= {alpha}")

    def terminal(seed: SeedSpec) -> float:
        walk = sample_walk(donsker_level, 1.0, seed)
        return 2.0 ** (-donsker_level / 2.0) * walk.s[-1]

    ys = replicate_map(terminal, donsker_replicates, master_seed + 1, threads)
    ydesc = describe(ys)
    dstat, dp = ks_one_sample(ys, sps.norm.cdf)
    report.estimates["donsker"] = ydesc
    report.tests["donsker_ks"] = {"statistic": dstat, "p_value": dp}
    if abs(ydesc["mean"]) > se_mult * ydesc["se_mean"]:
        report.failures.append("walk terminal mean not within tolerance of 0")
    if abs(ydesc["variance"] - 1.0) > se_mult * ydesc["se_variance"]:
        report.failures.append("walk terminal variance not within tolerance of 1")
    if not dp > alpha:
        report.failures.append(f"Donsker KS p-value {dp:.4g} <= {alpha}")
    report.passed = not report.failures
    report.wall_time_s = time.perf_counter() - start
    return report


def check_a10(
    master_seed: int = DEFAULT_MASTER_SEEDS[0],
    threads: int = 1,
    replicates: int = 2000,
    level: int = 12,
    hs: tuple[float, ...] = (0.25, 0.4),
    r: int = 2,
    f: str = "one",
    p: int = 4,
    base: float = 0.5,
    widths: tuple[float, ...] = (2**-3, 2**-4, 2**-5, 2**-6, 2**-7, 2**-8),
    band_factor: float = 10.0,
) -> McReport:
    """A10: window-increment moment scaling stays inside the fitted band."""
    cfg = dict(replicates=replicates, level=level, hs=list(hs), r=r, f=f, p=p,
               base=base, widths=list(widths), band_factor=band_factor)
    start = time.perf_counter()
    report = McReport(kind="A10", config=cfg, master_seed=master_seed)
    pairs = [(base, base + w) for w in widths]
    for h in hs:
        sub = moment_scaling_test(
            h, r, f, level, p, pairs, replicates, master_seed, band_factor, threads
        )
        report.estimates[f"h={h}"] = {
            "ratios": sub.estimates["ratios"],
            "slope_log2": sub.estimates["slope_log2"],
        }
        report.failures.extend(f"h={h}: {msg}" for msg in sub.failures)
    report.passed = not report.failures
    report.wall_time_s = time.perf_counter() - start
    return report


@dataclass(frozen=True)
class CheckSpec:
    name: str
    fn: Callable[..., McReport]
    statistical: bool
    summary: str


ACCEPTANCE: dict[str, CheckSpec] = {
    "A1": CheckSpec("A1", check_a1, True, "variance of the unweighted statistic vs sigma^2"),
    "A2": CheckSpec("A2", check_a2, True, "unweighted statistic / sigma is standard normal"),
    "A3": CheckSpec("A3", check_a3, True, "weighted mixture law (midpoint weights)"),
    "A4": CheckSpec("A4", check_a4, True, "trapezoid mixture law + gap decay"),
    "A5": CheckSpec("A5", check_a5, False, "exact crossing/composition identities"),
    "A6": CheckSpec("A6", check_a6, True, "endpoint statistics converge to the derivative integral"),
    "A7": CheckSpec("A7", check_a7, True, "circulant generator vs Cholesky oracle"),
    "A8": CheckSpec("A8", check_a8, False, "overlap-sum identity and coarse boundedness"),
    "A9": CheckSpec("A9", check_a9, True, "Brownian-time variance, mixture law, walk CLT"),
    "A10": CheckSpec("A10", check_a10, True, "window moment scaling band"),
}


def run_check(
    name: str,
    master_seeds: tuple[int, ...] = DEFAULT_MASTER_SEEDS,
    threads: int = 1,
    **overrides,
) -> tuple[bool, list[McReport]]:
    """Run one named check under the majority re-run policy.

    The primary seed decides when it passes; a statistical failure is
    re-run on the remaining seeds and the majority decides.
    """
    try:
        spec = ACCEPTANCE[name]
    except KeyError:
        raise ValueError(f"unknown acceptance check '{name}'; known: {sorted(ACCEPTANCE)}") from None
    reports = [spec.fn(master_seed=master_seeds[0], threads=threads, **overrides)]
    if reports[0].passed or not spec.statistical or len(master_seeds) == 1:
        return bool(reports[0].passed), reports
    for seed in master_seeds[1:]:
        reports.append(spec.fn(master_seed=seed, threads=threads, **overrides))
    votes = sum(1 for rep in reports if rep.passed)
    return votes * 2 > len(reports), reports
