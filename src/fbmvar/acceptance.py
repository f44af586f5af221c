"""Named acceptance checks A1-A10: each limit theorem as a desk-scale test.

Statistical checks are defined to pass under the shipped default seeds;
the re-run policy on a failure is three independent master seeds with a
majority vote (distributional limits cannot be asserted pathwise, and a
fixed-seed contract keeps CI deterministic).  Exact-identity checks (A5,
A8) are seed-robust and run once.

A report's config is exactly the arguments of the check that made it,
less `master_seed` (a field of the report) and `threads` (the result does
not depend on it); `_report` builds it from the check's `locals()`, so
`check(master_seed=report.master_seed, **report.config)` reproduces the
canonical bytes.  The arguments are what a caller chooses; the gates
are fixed module constants, each recorded in `tests` next to the value it
bounds.  A5's `residual_tol` stays an argument: it bounds float rounding,
not a statistic, and the benchmark's validator reads it from the config;
its default is `brownian_time.RESIDUAL_TOL`.  Every clause goes through
the one helper `_gate`, which records it under `tests` (A6 and A10 write
one entry for several clauses) and appends its failure text when it did
not pass; each KS clause goes through `_ks`, the one place that compares a
p-value with ALPHA.  A report fails exactly when one of its `_gate` calls
failed.  A1, A2 and A9 compare with
sigma(r, H), which is 0 at r = 1, so they refuse r < 2; A3/A4 test the
decay of the degenerate variance there instead.  A check whose KS test
needs more samples than it is asked for (`harness.KS_MIN_SAMPLES`) refuses
before it draws any, like every other refusal.

Importing this module loads no scipy module.  The summaries and KS tests
load `scipy.stats` through `harness`, on their first call; A2, A7 and A9's
Donsker clause name their normal CDF to the KS test as "norm".
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .brownian_time import (
    RESIDUAL_TOL,
    _lattice_grid,
    _walk_steps,
    identity_residuals,
    sample_fbmbt,
    sample_walk,
)
from .fbm import FbmPath, GridSpec, SeedSpec, sample_fbm
from .gaussian import (
    LimitSigma,
    as_hurst,
    coarse_increment_overlap,
    fbm_covariance,
    gaussian_moment,
    limit_sigma,
    midpoint_increment_overlap,
    midpoint_increment_overlap_closed,
)
from .harness import (
    KS_MIN_SAMPLES,
    McReport,
    _grid_groups,
    describe,
    ks_one_sample,
    ks_two_sample,
    replicate_map,
)
from .variations import limit_conditional_std, limit_quadrature, variation
from .weights import get_weight

#: shipped default seeds; the first is the primary, the other two are the
#: documented re-run seeds for the majority policy
DEFAULT_MASTER_SEEDS = (20260809, 1115741, 902245)

#: for r = 1 the mixture law is degenerate (sigma = 0); A3/A4 then assert
#: that the variance at their level is below DEGENERATE_RATIO times its
#: value DEGENERATE_GAP levels lower
DEGENERATE_GAP = 4
DEGENERATE_RATIO = 0.7

#: A7 samples its replicates in batches of this many rows, batch i from
#: stream i; the batching fixes the draws, so it is not an argument
A7_CHUNK = 20_000

#: most points of A7's grid: it builds its dense (points x points)
#: covariance, standard-error and Gram arrays, 32 MiB each at this size
A7_COVARIANCE_CAP = 2048

#: the statistical gates: fixed, so that no caller can loosen one
ALPHA = 0.01  # level of every KS test
SE_NARROW = 3.0  # SEs: A1 variance gap, A3/A4 mean and corr bound SE_NARROW/sqrt(R)
SE_WIDE = 4.0  # SEs: A7 covariance z-scores, A9 variance and walk moments
CORR_SLACK = 0.02  # A3/A4: |corr| < SE_NARROW/sqrt(R) + CORR_SLACK
GAP_DECAY_RATIO = 0.5  # A4: L2 gap at the finer decay level over the coarser
RMS_THRESHOLD = 0.15  # A6: left/right endpoint RMS error at the last level
IDENTITY_TOL = 1e-12  # A8: relative residual of the overlap-sum identity
A8_BAND_FACTOR = 4.0  # A8: spread of the coarse overlap ratios
A10_BAND_FACTOR = 10.0  # A10: window moment over its fitted bound


def _report(kind: str, args: dict) -> McReport:
    """The empty report of check `kind`, called with `args` (its locals()
    on entry): the config is the arguments less master_seed and threads."""
    config = {k: v for k, v in args.items() if k not in ("master_seed", "threads")}
    return McReport(kind=kind, config=config, master_seed=args["master_seed"])


def _gate(report: McReport, passed: bool, failure: str, name: str | None = None,
          record: dict | None = None) -> None:
    """Record one clause of a check: its `record` under tests[name], when
    named, and its `failure` text when it did not pass."""
    if name is not None:
        report.tests[name] = record
    if not passed:
        report.failures.append(failure)


def _ks(report: McReport, label: str, result: tuple[float, float], name: str | None = None) -> dict:
    """The KS clause of a (statistic, p-value) `result`: it passes when the
    p-value is above ALPHA.  Returns its record, gated under tests[name]."""
    stat, p = result
    record = {"statistic": stat, "p_value": p, "alpha": ALPHA}
    _gate(report, p > ALPHA, f"{label}KS p-value {p:.4g} <= {ALPHA}", name, record)
    return record


def _positive_sigma(r: int, h) -> LimitSigma:
    """sigma(r, h) for a check that compares its draws with it; sigma(1, h)
    is exactly 0, so r < 2 is refused before anything is sampled."""
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}: sigma(1, H) = 0 leaves no limit law")
    return limit_sigma(r, h)


def _ks_samples(**counts: int) -> None:
    """Refuse, before anything is drawn, a sample count too small for the
    asymptotic KS p-value."""
    for name, count in counts.items():
        if count < KS_MIN_SAMPLES:
            raise ValueError(f"{name} must be >= {KS_MIN_SAMPLES} for a KS test, got {count}")


def _paths(h, grid: GridSpec, seeds) -> FbmPath:
    """A chunk's paths on `grid`, drawn as one batch: row i is the path of
    seeds[i] alone, bit for bit."""
    return FbmPath(grid=grid, h=as_hurst(h), values=sample_fbm(h, grid, seeds))


def _path_map(stat, h, grid: GridSpec, replicates, master_seed, threads) -> np.ndarray:
    """`replicate_map` of stat(paths) over the chunks' paths on `grid`, each
    chunk drawn as one batch by `_paths` and sized by the grid's steps."""
    return replicate_map(lambda seeds: stat(_paths(h, grid, seeds)), replicates, master_seed,
                         threads, steps=grid.npoints - 1)


def _mixture_draw(seeds, h, weight, r, rule, sigma, horizons, grid_of, sub) -> np.ndarray:
    """A chunk's rows (Phi, L, X_end, X'_end), row i from seeds[i] alone:
    Phi = `variation(X, f, r, rule).value_at(tau)` on a path X of substream
    `sub`; L, the limit sigma * int_0^tau' f(X'_s) dW_s given the path X' of
    substream sub + 1, is `limit_conditional_std` times a standard normal of
    substream sub + 2; X_end and X'_end end the paths' grids.  A horizon is
    one time, or one per row, whose path lies on grid_of(horizon); rows are
    drawn in `_grid_groups`, a batch each."""
    out = np.empty((len(seeds), 4))
    for side, t in enumerate(horizons):
        each = np.ndim(t) > 0
        for rows, grid in _grid_groups(grid_of, t.tolist() if each else [t] * len(seeds)):
            paths = _paths(h, grid, [seeds[i].substream(sub + side) for i in rows])
            at = t[rows] if each else t
            if side:
                z = [seeds[i].substream(sub + 2).rng().standard_normal() for i in rows]
                out[rows, 1] = limit_conditional_std(paths, weight, sigma, at) * np.array(z)
            else:
                out[rows, 0] = variation(paths, weight, r, rule).value_at(at)
            out[rows, 2 + side] = paths.values[:, -1]
    return out


def _unweighted_draws(h, r, level, t, replicates, master_seed, threads):
    return _path_map(lambda paths: variation(paths, None, r).value_at(t), h,
                     GridSpec(level=level, t_min=0.0, t_max=t), replicates, master_seed, threads)


def _mixture_law(report, rule, threads, replicates, level, h, r, f) -> McReport:
    """Distributional check of the statistic at t=1 against the mixture law,
    recorded on `report`.

    The statistic is `variation` under the node rule `rule`.  Its draws are
    compared (two-sample KS) with independent draws of the limit, both from
    `_mixture_draw` on [0, 1] and substreams 0, 1 and 2; the mean must vanish
    within SE_NARROW standard errors, and the correlation with the terminal
    path value must be below SE_NARROW/sqrt(R) + CORR_SLACK.  For r = 1 the
    limit is degenerate and the check becomes variance decay: Var at
    `level` must be below DEGENERATE_RATIO times its value at
    level - DEGENERATE_GAP.
    """
    master_seed = report.master_seed
    weight = get_weight(f)
    sigma = limit_sigma(r, h)
    if sigma.value != 0.0:
        _ks_samples(replicates=replicates)
    start = time.perf_counter()
    report.estimates["sigma"] = sigma.value

    if sigma.value == 0.0:
        variances = {}
        for n in (level - DEGENERATE_GAP, level):
            draws = _path_map(lambda paths: variation(paths, weight, r, rule).value_at(1.0), h,
                              GridSpec(level=n, t_min=0.0, t_max=1.0), replicates, master_seed,
                              threads)
            variances[str(n)] = describe(draws)
        v_lo = variances[str(level - DEGENERATE_GAP)]["variance"]
        v_hi = variances[str(level)]["variance"]
        ratio = v_hi / v_lo if v_lo > 0 else math.inf
        _gate(report, ratio < DEGENERATE_RATIO,
              f"degenerate variance did not decay: {v_lo:.4g} -> {v_hi:.4g}",
              "variance_decay", {"ratio": ratio, "bound": DEGENERATE_RATIO})
        report.estimates["variances"] = variances
    else:
        grid = GridSpec(level=level, t_min=0.0, t_max=1.0)

        def chunk(seeds) -> np.ndarray:
            return _mixture_draw(seeds, h, weight, r, rule, sigma, (1.0, 1.0), lambda t: grid, 0)

        rows = replicate_map(chunk, replicates, master_seed, threads, steps=grid.npoints - 1)
        phi, lim, x1, x1_lim = rows.T
        desc = describe(phi)
        corr = float(np.corrcoef(phi, x1)[0, 1])
        corr_bound = SE_NARROW / math.sqrt(replicates) + CORR_SLACK
        mean_bound = SE_NARROW * desc["se_mean"]
        report.estimates["statistic"] = desc
        report.estimates["limit"] = describe(lim)
        # diagnostic: on the limit side W really is independent of the path,
        # so this correlation is exactly zero in law at every n
        report.tests["corr_limit_side"] = {"value": float(np.corrcoef(lim, x1_lim)[0, 1])}
        _ks(report, "mixture ", ks_two_sample(phi, lim), "ks_two_sample")
        _gate(report, not abs(desc["mean"]) > mean_bound,
              f"mean {desc['mean']:.4g} not within {SE_NARROW:g} SE of 0",
              "mean", {"value": desc["mean"], "allowed": mean_bound})
        _gate(report, abs(corr) < corr_bound, f"|corr| {abs(corr):.4g} >= {corr_bound:.4g}",
              "corr_with_terminal", {"value": corr, "bound": corr_bound})
    report.wall_time_s = time.perf_counter() - start
    return report


def check_a1(
    master_seed: int = DEFAULT_MASTER_SEEDS[0],
    threads: int = 1,
    replicates: int = 5000,
    level: int = 12,
    h: float = 0.25,
    r: int = 2,
) -> McReport:
    """A1: MC variance of the unweighted statistic matches sigma^2."""
    report = _report("A1", locals())
    start = time.perf_counter()
    sigma = _positive_sigma(r, h)
    draws = _unweighted_draws(h, r, level, 1.0, replicates, master_seed, threads)
    desc = describe(draws)
    gap = abs(desc["variance"] - sigma.value**2)
    allowed = SE_NARROW * desc["se_variance"]
    report.estimates = {"draws": desc, "sigma": sigma.value, "sigma_sq": sigma.value**2}
    _gate(report, gap <= allowed,
          f"variance {desc['variance']:.4g} vs sigma^2 {sigma.value ** 2:.4g}: "
          f"gap {gap:.4g} > {SE_NARROW} SE",
          "variance_vs_sigma_sq", {"gap": gap, "allowed": allowed})
    report.wall_time_s = time.perf_counter() - start
    return report


def check_a2(
    master_seed: int = DEFAULT_MASTER_SEEDS[0],
    threads: int = 1,
    replicates: int = 5000,
    level: int = 12,
    h: float = 0.25,
    r: int = 2,
) -> McReport:
    """A2: unweighted statistic / sigma is standard normal (KS)."""
    report = _report("A2", locals())
    start = time.perf_counter()
    sigma = _positive_sigma(r, h)
    _ks_samples(replicates=replicates)
    draws = _unweighted_draws(h, r, level, 1.0, replicates, master_seed, threads)
    _ks(report, "", ks_one_sample(draws / sigma.value, "norm"), "ks_vs_standard_normal")
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
) -> McReport:
    """A3: weighted mixture law for the midpoint statistic."""
    report = _report("A3", locals())
    return _mixture_law(report, "midpoint", threads, replicates, level, h, r, f)


def check_a4(
    master_seed: int = DEFAULT_MASTER_SEEDS[0],
    threads: int = 1,
    replicates: int = 5000,
    level: int = 12,
    h: float = 0.25,
    r: int = 2,
    f: str = "gauss",
    decay_levels: tuple[int, int] = (8, 14),
    decay_replicates: int = 600,
) -> McReport:
    """A4: the trapezoid statistic has the same mixture law, and the
    trapezoid-midpoint gap decays in L2 between the two decay levels, which
    must be two strictly increasing levels."""
    report = _report("A4", locals())
    if len(decay_levels) != 2 or not decay_levels[0] < decay_levels[1]:
        raise ValueError(f"decay_levels must be two strictly increasing levels, "
                         f"got {decay_levels!r}")
    start = time.perf_counter()
    _mixture_law(report, "trapezoid", threads, replicates, level, h, r, f)
    weight = get_weight(f)

    def gap_sq(paths) -> np.ndarray:
        gap = (variation(paths, weight, r, "trapezoid").value_at(1.0)
               - variation(paths, weight, r).value_at(1.0))
        return gap * gap

    l2 = {}
    for n in decay_levels:
        grid = GridSpec(level=n, t_min=0.0, t_max=1.0)
        l2[str(n)] = math.sqrt(
            _path_map(gap_sq, h, grid, decay_replicates, master_seed, threads).mean())
    report.estimates["gap_l2"] = l2
    lo, hi = str(decay_levels[0]), str(decay_levels[1])
    ratio = l2[hi] / l2[lo] if l2[lo] > 0 else math.inf
    _gate(report, ratio < GAP_DECAY_RATIO,
          f"|trapezoid-midpoint| L2 at n={hi} is {l2[hi]:.4g}, "
          f"not below {GAP_DECAY_RATIO} * {l2[lo]:.4g}",
          "gap_decay", {"ratio": ratio, "bound": GAP_DECAY_RATIO})
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
    residual_tol: float = RESIDUAL_TOL,
) -> McReport:
    """A5: exact identities — direct vs crossing form, and composition
    through the walk's terminal site."""
    report = _report("A5", locals())
    if not levels:
        raise ValueError("levels is empty: A5 would check no identity")
    start = time.perf_counter()
    weight = get_weight(f)
    per_level = [samples // len(levels)] * len(levels)
    per_level[-1] += samples - sum(per_level)
    blocks = []
    for idx, (n, count) in enumerate(zip(levels, per_level)):
        def chunk(seeds, n=n) -> np.ndarray:
            res = [identity_residuals(sample, weight, r, 1.0)
                   for sample in sample_fbmbt(h, n, 1.0, seeds)]
            return np.array([[x["residual_crossing"], x["residual_composition"]] for x in res])

        blocks.append(replicate_map(chunk, count, master_seed + idx, threads, steps=2**n))
    # numpy's max propagates NaN, so a residual lost to overflow fails the gate
    worst = dict(zip(("crossing", "composition"), np.concatenate(blocks).max(axis=0).tolist()))
    report.estimates["max_residual"] = worst
    for name, value in worst.items():
        _gate(report, value <= residual_tol, f"{name} residual {value:.3e} > {residual_tol:g}")
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
) -> McReport:
    """A6: endpoint statistics converge to +-mu_{2r}/2 * integral f'(X).

    Per path, the left statistic is compared with -mu_{2r}/2 * integral of
    f'(X) (trapezoid quadrature on the same path), the right statistic with
    the + sign, and the trapezoid-weighted statistic under the same
    normalization with 0.  Asserted: the last level of `n_list` improves
    on the first, the left/right RMS at the last level is below
    RMS_THRESHOLD, and the trapezoid RMS is below both endpoint RMS
    values at the first level -- the coarse level is where the endpoint
    bias terms are visible; at fine levels all three statistics share the
    same dominant fluctuation and the comparison carries no information.
    `n_list` must hold at least two strictly increasing levels.
    """
    report = _report("A6", locals())
    if r < 2:
        raise ValueError("the endpoint limits require r >= 2")
    if len(n_list) < 2 or any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must hold at least two strictly increasing levels, "
                         f"got {n_list!r}")
    weight = get_weight(f)
    mu = gaussian_moment(2 * r)
    start = time.perf_counter()

    def squared_errors(paths) -> np.ndarray:
        target = 0.5 * mu * limit_quadrature(paths, weight, t)
        left = variation(paths, weight, r, "left").value_at(t)
        right = variation(paths, weight, r, "right").value_at(t)
        # float arithmetic row by row: Python's x ** 2 is libm's pow, not x * x
        return np.array([[(a + c) ** 2, (b - c) ** 2, (0.5 * (a + b)) ** 2]
                         for a, b, c in zip(left.tolist(), right.tolist(), target.tolist())])

    rms = {}
    for n in n_list:
        grid = GridSpec(level=n, t_min=0.0, t_max=t)
        sq = _path_map(squared_errors, h, grid, replicates, master_seed, threads).mean(axis=0)
        rms[str(n)] = dict(zip(("left", "right", "trapezoid"), np.sqrt(sq).tolist()))
    report.estimates.update(rms=rms, mu_2r_half=0.5 * mu)
    first, last = str(n_list[0]), str(n_list[-1])
    report.tests["rms_at_last_level"] = {
        "left": rms[last]["left"], "right": rms[last]["right"], "bound": RMS_THRESHOLD}
    for side in ("left", "right"):
        _gate(report, rms[last][side] < rms[first][side],
              f"{side} RMS did not decrease: {rms[first][side]:.4g} -> {rms[last][side]:.4g}")
        _gate(report, rms[last][side] < RMS_THRESHOLD,
              f"{side} RMS at n={last} is {rms[last][side]:.4g} >= {RMS_THRESHOLD}")
    # exact tie allowed: for constant f the three statistics coincide
    _gate(report,
          not rms[first]["trapezoid"] > min(rms[first]["left"], rms[first]["right"]) * (1 + 1e-12),
          "trapezoid RMS is not below both endpoint RMS values")
    report.wall_time_s = time.perf_counter() - start
    return report


def check_a7(
    master_seed: int = DEFAULT_MASTER_SEEDS[0],
    threads: int = 1,
    replicates: int = 100_000,
    level: int = 5,
    t_min: float = -1.0,
    t_max: float = 1.0,
    hs: tuple[float, ...] = (0.2, 0.25, 0.4),
) -> McReport:
    """A7: the circulant generator against the exact law of two-sided fBm.

    Per h, `replicates` paths on the grid are drawn in A7_CHUNK-row
    batches, batch i from stream i.  Their empirical covariance must match
    C_H entrywise: the largest z-score must be at most SE_WIDE.  Their
    terminal values X(t_max) / t_max^H must be standard normal (one-sample
    KS).  A grid above A7_COVARIANCE_CAP points is refused before any
    (points x points) array is built."""
    report = _report("A7", locals())
    _ks_samples(replicates=replicates)
    if not hs:
        raise ValueError("hs is empty: A7 would compare no generator")
    grid = GridSpec(level=level, t_min=t_min, t_max=t_max)
    if grid.npoints > A7_COVARIANCE_CAP:
        raise ValueError(f"grid has {grid.npoints} points, above A7's dense covariance cap "
                         f"{A7_COVARIANCE_CAP}")
    start = time.perf_counter()
    pts = grid.times()
    for h in hs:
        cov = fbm_covariance(h, pts[:, None], pts[None, :])
        var = np.diag(cov)
        se = np.sqrt((var[:, None] * var[None, :] + cov**2) / replicates)
        se[grid.zero_index, :] = np.inf  # pinned zero row has no sampling error
        se[:, grid.zero_index] = np.inf
        gram = np.zeros_like(cov)
        ends = []
        for stream, done in enumerate(range(0, replicates, A7_CHUNK)):
            rows = min(A7_CHUNK, replicates - done)
            block = sample_fbm(h, grid, SeedSpec(master_seed, stream), size=rows)
            gram += block.T @ block
            ends.append(block[:, -1])
        zmax = float(np.max(np.abs(gram / replicates - cov) / se))
        _gate(report, zmax <= SE_WIDE, f"h={h}: max covariance z-score {zmax:.3g} > {SE_WIDE}",
              f"max_z h={h}", {"value": zmax, "bound": SE_WIDE})
        ks = _ks(report, f"h={h}: terminal ",
                 ks_one_sample(np.concatenate(ends) / t_max**h, "norm"))
        report.estimates[f"h={h}"] = {"max_z": zmax, "ks_terminal": ks}
    report.wall_time_s = time.perf_counter() - start
    return report


def check_a8(
    master_seed: int = DEFAULT_MASTER_SEEDS[0],
    threads: int = 1,
    trials: int = 100,
    band_ms: tuple[int, ...] = (3, 4, 5, 6),
    band_n: int = 12,
    band_hs: tuple[float, ...] = (0.2, 0.3),
) -> McReport:
    """A8: overlap-sum identity (direct vs telescoped closed form) on random
    inputs, and boundedness of the coarse overlap sum against 2^(m(1-2H))."""
    report = _report("A8", locals())
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not band_hs or not band_ms:
        raise ValueError("band_hs and band_ms must be non-empty: A8 would bound no overlap sum")
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
    report.estimates["max_identity_residual"] = worst
    _gate(report, worst <= IDENTITY_TOL, f"overlap identity residual {worst:.3e} > {IDENTITY_TOL:g}",
          "identity_residual", {"value": worst, "bound": IDENTITY_TOL})
    bands = {}
    for h in band_hs:
        ratios = [
            coarse_increment_overlap(h, band_n, m, 1.0) / 2.0 ** (m * (1.0 - 2.0 * h))
            for m in band_ms
        ]
        spread = max(ratios) / min(ratios)
        bands[f"h={h}"] = {"ratios": ratios, "spread": spread}
        _gate(report, spread <= A8_BAND_FACTOR,
              f"h={h}: coarse overlap ratio spread {spread:.3g} > {A8_BAND_FACTOR}",
              f"band_spread h={h}", {"value": spread, "bound": A8_BAND_FACTOR})
    report.estimates["bands"] = bands
    report.wall_time_s = time.perf_counter() - start
    return report


def _brownian_time_grid(level: int, sites: int) -> GridSpec:
    """The grid of a path at the spatial level L = n/2 of walk level n that
    covers `sites` lattice sites right of 0: [0, pad 2^(-L)], with pad the
    least power of two >= max(sites, 8), so that few grid sizes occur, each
    grid built once and its spectrum cached."""
    return _lattice_grid(level // 2, 0, max(8, 1 << (sites - 1).bit_length()))


def check_a9(
    master_seed: int = DEFAULT_MASTER_SEEDS[0],
    threads: int = 1,
    replicates: int = 5000,
    level: int = 24,
    h: float = 0.25,
    r: int = 2,
    f: str = "one",
    donsker_level: int = 12,
    donsker_replicates: int = 10_000,
) -> McReport:
    """A9: Brownian-time variance and mixture law, plus the walk's CLT.

    The statistic is 2^(-n/4) V_n(1), the trapezoid-weighted walk sum at
    walk level n (even).  It is drawn by composition: check A5 certifies
    that it equals the spatial trapezoid sum of X at level L = n/2 up to
    the walk's terminal site S_K, K = 2^n, whose law is that of
    2 Binomial(K, 1/2) - K, independent of X; X(-u) is again an fBm, so
    the sign folds away and the statistic is, in law,
    `variation(X, f, r, "trapezoid").value_at(tau)` at the horizon
    tau = |S_K| 2^(-L).  Its variance must match sigma^2 E|Y_1| =
    sigma^2 sqrt(2/pi).  Its law is compared (two-sample KS) with draws
    of the limit sigma * int_0^{tau'} f(X'_s) dW_s on an independent
    horizon tau' of the same lattice law and an independent path X',
    drawn like A3/A4's limit side.  The embedded walk's terminal value
    must be standard normal at the Donsker level.  The variance target
    holds for f = 1 only, so any other weight is refused.

    A replicate's two |S_K| come from its substream 0; both sides are
    A3/A4's draw, `_mixture_draw`, at one horizon per row on the grid
    `_brownian_time_grid` gives it: the statistic's path from substream 1,
    the limit side's from 2 and its normal from 3.  Refused before anything
    is drawn: walk levels above 30 (|S_K| reaches 2^(6+n/2) sites at 64 sd,
    and the path covering them must stay within `fbm.SAMPLE_FBM_CAP`
    points) and Donsker levels `sample_walk` would refuse.
    """
    report = _report("A9", locals())
    if f != "one":
        raise ValueError(f"f must be 'one', got {f!r}: A9's variance target "
                         "assumes a constant weight")
    if level < 2 or level % 2 or level > 30:
        raise ValueError(f"level must be a positive even integer <= 30, got {level}: the spatial "
                         "lattice has level n/2, and a path covering 2^(6+n/2) sites (|S_K| at "
                         "64 sd) must stay within the sampling cap")
    try:  # the Donsker walks sample_walk would refuse, refused before any draw
        _walk_steps(donsker_level, 1.0)
    except ValueError as exc:
        raise ValueError(f"donsker_level {donsker_level}: {exc}") from None
    _ks_samples(replicates=replicates, donsker_replicates=donsker_replicates)
    start = time.perf_counter()
    sigma = _positive_sigma(r, h)
    weight = get_weight(f)
    k, spatial = 2**level, level // 2

    def grid_of(tau):
        return _brownian_time_grid(level, round(tau * 2**spatial))

    def chunk(seeds) -> np.ndarray:
        # |S_K| for the statistic's horizon (column 0) and the limit side's (column 1)
        sites = np.abs(2 * np.array([seed.substream(0).rng().binomial(k, 0.5, size=2)
                                     for seed in seeds]) - k)
        tau = sites * 2.0**-spatial
        return _mixture_draw(seeds, h, weight, r, "trapezoid", sigma, tau.T, grid_of, 1)[:, :2]

    # one chunk holds many grids, each drawn in batches `_grid_groups` caps
    draws, lim = replicate_map(chunk, replicates, master_seed, threads).T
    desc = describe(draws)
    target = sigma.value**2 * math.sqrt(2.0 / math.pi)
    gap, allowed = abs(desc["variance"] - target), SE_WIDE * desc["se_variance"]
    report.estimates["draws"] = desc
    report.estimates["limit"] = describe(lim)
    report.estimates["variance_target"] = target
    _gate(report, gap <= allowed,
          f"variance {desc['variance']:.4g} vs target {target:.4g}: gap beyond {SE_WIDE} SE",
          "variance_vs_mixture", {"gap": gap, "allowed": allowed})
    _ks(report, "mixture ", ks_two_sample(draws, lim), "ks_vs_mixture")

    def terminals(seeds) -> list:
        # S_K is the sum of the steps: the walk's sites are never built
        return [2.0 ** (-donsker_level / 2.0) * sample_walk(donsker_level, 1.0, seed).steps.sum()
                for seed in seeds]

    ys = replicate_map(terminals, donsker_replicates, master_seed + 1, threads,
                       steps=2**donsker_level)
    ydesc = describe(ys)
    report.estimates["donsker"] = ydesc
    mean_gap, var_gap = abs(ydesc["mean"]), abs(ydesc["variance"] - 1.0)
    mean_allowed, var_allowed = SE_WIDE * ydesc["se_mean"], SE_WIDE * ydesc["se_variance"]
    _gate(report, not mean_gap > mean_allowed, "walk terminal mean not within tolerance of 0",
          "donsker_mean", {"gap": mean_gap, "allowed": mean_allowed})
    _gate(report, not var_gap > var_allowed, "walk terminal variance not within tolerance of 1",
          "donsker_variance", {"gap": var_gap, "allowed": var_allowed})
    _ks(report, "Donsker ", ks_one_sample(ys, "norm"), "donsker_ks")
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
) -> McReport:
    """A10: window-increment moment scaling stays inside the fitted band.

    For each window [base, base + w] and each h in `hs`, the p-th absolute
    moment of the window increment of the midpoint statistic is estimated
    and divided by C * (d^(p/2) + d^(pH)),
    d = (floor(2^n (base + w)) - floor(2^n base)) / 2^n, with C fitted on
    the widest window.  The claim is an upper bound with an unspecified
    constant, so the assertion is one-sided: no ratio may exceed
    A10_BAND_FACTOR, and a zero-width window must have moment exactly 0.
    At least two windows must have positive width at `level`, since the
    widest one only fits the constant.
    (Ratios well below 1 are expected wherever one bound term is loose,
    e.g. constant weights kill the d^(pH) part.)  `slope_log2` is the
    fitted exponent of d: the moment behaves like d^slope_log2.
    """
    report = _report("A10", locals())
    if p not in (4, 6):
        raise ValueError("p must be 4 or 6")
    if not hs:
        raise ValueError("hs is empty: A10 would bound no moment")
    start = time.perf_counter()
    weight = get_weight(f)
    grid = GridSpec(level=level, t_min=0.0, t_max=1.0)
    pairs = [(base, base + w) for w in widths]
    spans = []
    for s, t in pairs:
        ks, kt = math.floor(s * 2**level), math.floor(t * 2**level)
        if not 0 <= ks <= kt <= 2**level:
            raise ValueError(f"pair ({s}, {t}) not inside [0, 1]")
        spans.append((ks, kt))
    d = np.array([(kt - ks) / 2.0**level for ks, kt in spans])
    live = d > 0
    if live.sum() < 2:
        raise ValueError(f"{live.sum()} window(s) of positive width at level {level}; need 2")

    def window_moments(paths) -> np.ndarray:
        vals = variation(paths, weight, r).values
        # scalar powers row by row: numpy's vectorised power rounds differently
        return np.array([[abs(row[kt] - row[ks]) ** p for ks, kt in spans] for row in vals])

    for h in hs:
        moments = _path_map(window_moments, h, grid, replicates, master_seed, threads).mean(axis=0)
        bound = d ** (p / 2.0) + d ** (p * h)
        for i in np.flatnonzero(~live):
            _gate(report, moments[i] == 0.0,
                  f"h={h}: pair {pairs[i]} has zero width but moment {moments[i]}")
        ratios = np.full_like(d, np.nan)
        coarse = int(np.argmax(d))
        ratios[live] = moments[live] / (moments[coarse] / bound[coarse] * bound[live])
        for i in np.flatnonzero(live):
            _gate(report, not ratios[i] > A10_BAND_FACTOR,
                  f"h={h}: pair {pairs[i]}: ratio {ratios[i]:.3g} above band {A10_BAND_FACTOR}")
        pos = live & (moments > 0)
        slope = None
        if pos.sum() >= 2:
            slope = float(np.polyfit(np.log2(d[pos]), np.log2(moments[pos]), 1)[0])
        report.estimates[f"h={h}"] = {"ratios": ratios, "slope_log2": slope}
        report.tests[f"band h={h}"] = {"max_ratio": np.max(ratios[live]), "bound": A10_BAND_FACTOR}
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
    "A7": CheckSpec("A7", check_a7, True, "circulant generator vs the exact fBm law"),
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
    re-run on the remaining seeds and the majority decides.  An empty or
    repeated `master_seeds` is refused before any check runs: a repeated
    seed would re-run the same draws and count them as further votes.
    """
    try:
        spec = ACCEPTANCE[name]
    except KeyError:
        raise ValueError(f"unknown acceptance check '{name}'; known: {sorted(ACCEPTANCE)}") from None
    if not master_seeds or len(set(master_seeds)) != len(master_seeds):
        raise ValueError(f"master_seeds must be non-empty and distinct, got {tuple(master_seeds)!r}")
    reports = [spec.fn(master_seed=master_seeds[0], threads=threads, **overrides)]
    if reports[0].passed or not spec.statistical or len(master_seeds) == 1:
        return reports[0].passed, reports
    for seed in master_seeds[1:]:
        reports.append(spec.fn(master_seed=seed, threads=threads, **overrides))
    votes = sum(1 for rep in reports if rep.passed)
    return votes * 2 > len(reports), reports
