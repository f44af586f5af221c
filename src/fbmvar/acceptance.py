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
canonical bytes.  `_report` is each check's first statement and every
check returns `report.stop_clock()`, so the report's `wall_time_s` times
the whole check, its refusals, sigma and every draw included.  The
arguments are what a caller chooses; the gates are fixed module
constants, each recorded in `tests` next to the value it bounds.  A5's
`residual_tol` stays an argument: it bounds float rounding, not a
statistic, and the benchmark's validator reads it from the config; its
default is `brownian_time.RESIDUAL_TOL`.  Every clause goes through
the one helper `_gate`, which records it under `tests` (A6 and A10 write
one entry for several clauses) and appends its failure text when it did
not pass; each KS clause goes through `_ks`, the one place that compares a
p-value with ALPHA.  A report fails exactly when one of its `_gate` calls
failed.

Each check has one refusal pass, `_refuse_<check>`: from the check's
config alone it makes every refusal of the check and returns what the
body needs (grids, weight, counts).  The one rule: a check's refusal pass
runs before sigma and before any stream.  The check calls it right after
`_report`; `CheckSpec.refuse` is the same pass, and `CheckSpec.config`
binds overrides to the defaults of the check's own signature, so `fbmvar
verify` refuses every override of every check it names before any check
runs.  A pass calls each rule's one owner: `GridSpec` for a grid's level
and size, `harness._replicate_counts` for a replicate count, `as_hurst`
for h, `get_weight` for a weight.  A1, A2, A3, A4 and A9 compare their
draws with sigma(r, H), which is 0 at r = 1, so their passes refuse r < 2;
sigma's own refusal of h >= 1/2 stays with `limit_sigma`, which those
checks call right after the pass.  A check whose KS test needs more
samples than it is asked for (`harness.KS_MIN_SAMPLES`) refuses them.

Importing this module loads no scipy module, and no check loads scipy's
statistics package.  The KS tests load `scipy.special` through `harness`,
on their first call, and the summaries load no scipy; A2, A7 and A9's
Donsker clause name their normal CDF to the KS test as "norm".
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .brownian_time import (
    RESIDUAL_TOL,
    _even_level,
    _lattice_grid,
    _walk_steps,
    identity_residuals,
    sample_fbmbt,
    sample_walk,
)
from .fbm import FbmPath, GridSpec, SeedSpec, sample_fbm
from .gaussian import (
    _coarse_levels,
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
    _replicate_counts,
    describe,
    ks_one_sample,
    ks_two_sample,
    replicate_map,
)
from .variations import _odd_order, limit_conditional_std, limit_quadrature, variation
from .weights import WeightFunction, get_weight

#: shipped default seeds; the first is the primary, the other two are the
#: documented re-run seeds for the majority policy
DEFAULT_MASTER_SEEDS = (20260809, 1115741, 902245)

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


def _config(args: dict) -> dict:
    """A check's config: its arguments `args` less master_seed and threads."""
    return {k: v for k, v in args.items() if k not in ("master_seed", "threads")}


def _report(kind: str, args: dict) -> McReport:
    """The empty report of check `kind`, called with `args` (its locals()
    on entry), its clock started."""
    return McReport(kind=kind, config=_config(args), master_seed=args["master_seed"])


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


def _sigma_order(r: int) -> None:
    """Refuse r < 2 for a check that compares its draws with sigma(r, H):
    sigma(1, H) is exactly 0."""
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}: sigma(1, H) = 0 leaves no limit law")


def _ks_samples(**counts: int) -> None:
    """Refuse a sample count too small for the asymptotic KS p-value."""
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


def _unweighted_draws(h, r, grid, replicates, master_seed, threads):
    return _path_map(lambda paths: variation(paths, None, r).value_at(grid.t_max), h, grid,
                     replicates, master_seed, threads)


def _mixture_law(report, rule, threads, replicates, weight, grid, h, r) -> None:
    """Distributional check of the statistic at t=1 against the mixture law,
    recorded on `report`.

    The statistic is `variation` under the node rule `rule`, on `grid` over
    [0, 1].  Its draws are compared (two-sample KS) with independent draws
    of the limit, both from `_mixture_draw` on substreams 0, 1 and 2; the
    mean must vanish within SE_NARROW standard errors, and the correlation
    with the terminal path value must be below SE_NARROW/sqrt(R) +
    CORR_SLACK.
    """
    sigma = limit_sigma(r, h)
    report.estimates["sigma"] = sigma.value

    def chunk(seeds) -> np.ndarray:
        return _mixture_draw(seeds, h, weight, r, rule, sigma, (1.0, 1.0), lambda t: grid, 0)

    rows = replicate_map(chunk, replicates, report.master_seed, threads, steps=grid.npoints - 1)
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


def _refuse_a1(replicates, level, r, **_) -> GridSpec:
    _replicate_counts(replicates=replicates)
    _sigma_order(r)
    return GridSpec(level=level, t_min=0.0, t_max=1.0)


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
    grid = _refuse_a1(**report.config)
    sigma = limit_sigma(r, h)
    draws = _unweighted_draws(h, r, grid, replicates, master_seed, threads)
    desc = describe(draws)
    gap = abs(desc["variance"] - sigma.value**2)
    allowed = SE_NARROW * desc["se_variance"]
    report.estimates = {"draws": desc, "sigma": sigma.value, "sigma_sq": sigma.value**2}
    _gate(report, gap <= allowed,
          f"variance {desc['variance']:.4g} vs sigma^2 {sigma.value ** 2:.4g}: "
          f"gap {gap:.4g} > {SE_NARROW} SE",
          "variance_vs_sigma_sq", {"gap": gap, "allowed": allowed})
    return report.stop_clock()


def _refuse_a2(replicates, level, r, **_) -> GridSpec:
    _ks_samples(replicates=replicates)
    _sigma_order(r)
    return GridSpec(level=level, t_min=0.0, t_max=1.0)


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
    grid = _refuse_a2(**report.config)
    sigma = limit_sigma(r, h)
    draws = _unweighted_draws(h, r, grid, replicates, master_seed, threads)
    _ks(report, "", ks_one_sample(draws / sigma.value, "norm"), "ks_vs_standard_normal")
    return report.stop_clock()


def _refuse_a3(replicates, level, r, f, **_) -> tuple[WeightFunction, GridSpec]:
    """A3's refusals, A4's mixture law's too: its weight and grid."""
    _ks_samples(replicates=replicates)
    _sigma_order(r)
    return get_weight(f), GridSpec(level=level, t_min=0.0, t_max=1.0)


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
    weight, grid = _refuse_a3(**report.config)
    _mixture_law(report, "midpoint", threads, replicates, weight, grid, h, r)
    return report.stop_clock()


def _refuse_a4(decay_levels, decay_replicates, **config):
    """A3's refusals, then the decay loop's: A3's weight and grid and the
    decay grids by level."""
    if len(decay_levels) != 2 or not decay_levels[0] < decay_levels[1]:
        raise ValueError(f"decay_levels must be two strictly increasing levels, "
                         f"got {decay_levels!r}")
    decay_grids = {str(n): GridSpec(level=n, t_min=0.0, t_max=1.0) for n in decay_levels}
    _replicate_counts(decay_replicates=decay_replicates)
    return *_refuse_a3(**config), decay_grids


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
    weight, grid, decay_grids = _refuse_a4(**report.config)
    _mixture_law(report, "trapezoid", threads, replicates, weight, grid, h, r)

    def gap_sq(paths) -> np.ndarray:
        gap = (variation(paths, weight, r, "trapezoid").value_at(1.0)
               - variation(paths, weight, r).value_at(1.0))
        return gap * gap

    l2 = {}
    for n, decay_grid in decay_grids.items():
        l2[n] = math.sqrt(
            _path_map(gap_sq, h, decay_grid, decay_replicates, master_seed, threads).mean())
    report.estimates["gap_l2"] = l2
    lo, hi = str(decay_levels[0]), str(decay_levels[1])
    ratio = l2[hi] / l2[lo] if l2[lo] > 0 else math.inf
    _gate(report, ratio < GAP_DECAY_RATIO,
          f"|trapezoid-midpoint| L2 at n={hi} is {l2[hi]:.4g}, "
          f"not below {GAP_DECAY_RATIO} * {l2[lo]:.4g}",
          "gap_decay", {"ratio": ratio, "bound": GAP_DECAY_RATIO})
    return report.stop_clock()


def _refuse_a5(samples, levels, h, r, f, **_) -> tuple[WeightFunction, list[int]]:
    """A5's refusals: its weight and the samples of each level."""
    if not levels:
        raise ValueError("levels is empty: A5 would check no identity")
    if samples < len(levels):
        raise ValueError(f"samples must be >= len(levels) = {len(levels)}, got {samples}: "
                         "A5 would check no identity at some level")
    for n in levels:
        _even_level(n)
        _walk_steps(n, 1.0)
    as_hurst(h)
    _odd_order(r)
    per_level = [samples // len(levels)] * len(levels)
    per_level[-1] += samples - sum(per_level)
    return get_weight(f), per_level


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
    weight, per_level = _refuse_a5(**report.config)
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
    return report.stop_clock()


def _refuse_a6(replicates, h, r, f, n_list, t) -> tuple[WeightFunction, list[GridSpec]]:
    """A6's refusals: its weight and its grids, one per level of n_list."""
    if r < 2:
        raise ValueError("the endpoint limits require r >= 2")
    if len(n_list) < 2 or any(a >= b for a, b in zip(n_list, n_list[1:])):
        raise ValueError(f"n_list must hold at least two strictly increasing levels, "
                         f"got {n_list!r}")
    _replicate_counts(replicates=replicates)
    as_hurst(h)
    return get_weight(f), [GridSpec(level=n, t_min=0.0, t_max=t) for n in n_list]


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
    weight, grids = _refuse_a6(**report.config)
    mu = gaussian_moment(2 * r)

    def squared_errors(paths) -> np.ndarray:
        target = 0.5 * mu * limit_quadrature(paths, weight, t)
        left = variation(paths, weight, r, "left").value_at(t)
        right = variation(paths, weight, r, "right").value_at(t)
        return np.stack([(left + target) ** 2, (right - target) ** 2,
                         (0.5 * (left + right)) ** 2], axis=-1)

    rms = {}
    for grid in grids:
        sq = _path_map(squared_errors, h, grid, replicates, master_seed, threads).mean(axis=0)
        rms[str(grid.level)] = dict(zip(("left", "right", "trapezoid"), np.sqrt(sq).tolist()))
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
    return report.stop_clock()


def _refuse_a7(replicates, level, t_min, t_max, hs) -> GridSpec:
    _ks_samples(replicates=replicates)
    if not hs:
        raise ValueError("hs is empty: A7 would compare no generator")
    for h in hs:
        as_hurst(h)
    grid = GridSpec(level=level, t_min=t_min, t_max=t_max)
    if grid.npoints > A7_COVARIANCE_CAP:
        raise ValueError(f"grid has {grid.npoints} points, above A7's dense covariance cap "
                         f"{A7_COVARIANCE_CAP}")
    return grid


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
    KS).  A grid above A7_COVARIANCE_CAP points is refused, so that no
    (points x points) array is built."""
    report = _report("A7", locals())
    grid = _refuse_a7(**report.config)
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
    return report.stop_clock()


def _refuse_a8(trials, band_ms, band_n, band_hs) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not band_hs or not band_ms:
        raise ValueError("band_hs and band_ms must be non-empty: A8 would bound no overlap sum")
    for h in band_hs:
        as_hurst(h)
    for m in band_ms:
        _coarse_levels(band_n, m)
    GridSpec(level=band_n, t_min=0.0, t_max=1.0)  # the grid coarse_increment_overlap sums


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
    _refuse_a8(**report.config)
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
    return report.stop_clock()


def _brownian_time_grid(level: int, sites: int) -> GridSpec:
    """The grid of a path at the spatial level L = n/2 of walk level n that
    covers `sites` lattice sites right of 0: [0, pad 2^(-L)], with pad the
    least power of two >= max(sites, 8), so that few grid sizes occur, each
    grid built once and its spectrum cached."""
    return _lattice_grid(level // 2, 0, max(8, 1 << (sites - 1).bit_length()))


def _refuse_a9(replicates, level, r, f, donsker_level, donsker_replicates,
               **_) -> WeightFunction:
    """A9's refusals: its weight."""
    if f != "one":
        raise ValueError(f"f must be 'one', got {f!r}: A9's variance target "
                         "assumes a constant weight")
    _even_level(level)
    # the widest grid A9 draws, [0, 64] at level n/2: `_brownian_time_grid`
    # at |S_K| = 64 sd = 2^(6+n/2) sites, built here without that integer
    # power, which no cap bounds for a huge or negative n
    GridSpec(level=level // 2, t_min=0.0, t_max=64.0)
    try:  # the Donsker walks sample_walk would refuse
        _walk_steps(donsker_level, 1.0)
    except ValueError as exc:
        raise ValueError(f"donsker_level {donsker_level}: {exc}") from None
    _ks_samples(replicates=replicates, donsker_replicates=donsker_replicates)
    _sigma_order(r)
    return get_weight(f)


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
    the limit side's from 2 and its normal from 3.  Walk levels above 30
    are refused (|S_K| reaches 2^(6+n/2) sites at 64 sd, and the path
    covering them must stay within `fbm.SAMPLE_FBM_CAP` points), and so are
    Donsker levels `sample_walk` would refuse.
    """
    report = _report("A9", locals())
    weight = _refuse_a9(**report.config)
    sigma = limit_sigma(r, h)
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
    return report.stop_clock()


def _refuse_a10(replicates, level, hs, r, f, p, base, widths):
    """A10's refusals: its weight, grid, windows and their index spans and
    widths d at `level`."""
    if p not in (4, 6):
        raise ValueError("p must be 4 or 6")
    if not hs:
        raise ValueError("hs is empty: A10 would bound no moment")
    for h in hs:
        as_hurst(h)
    _odd_order(r)
    _replicate_counts(replicates=replicates)
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
    if (d > 0).sum() < 2:
        raise ValueError(f"{(d > 0).sum()} window(s) of positive width at level {level}; need 2")
    return weight, grid, pairs, spans, d


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
    weight, grid, pairs, spans, d = _refuse_a10(**report.config)
    live = d > 0

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
    return report.stop_clock()


@dataclass(frozen=True)
class CheckSpec:
    """A named check: `fn` runs it, `refuse` is its refusal pass, which
    takes the check's whole config."""

    name: str
    fn: Callable[..., McReport]
    refuse: Callable[..., object]
    statistical: bool
    summary: str

    def config(self, **overrides) -> dict:
        """The check's config under `overrides`: its arguments less
        master_seed and threads, each one not overridden at the default of
        the check's own signature.  An argument the check does not have
        raises TypeError."""
        bound = inspect.signature(self.fn).bind(**overrides)
        bound.apply_defaults()
        return _config(bound.arguments)


ACCEPTANCE: dict[str, CheckSpec] = {spec.name: spec for spec in (
    CheckSpec("A1", check_a1, _refuse_a1, True, "variance of the unweighted statistic vs sigma^2"),
    CheckSpec("A2", check_a2, _refuse_a2, True, "unweighted statistic / sigma is standard normal"),
    CheckSpec("A3", check_a3, _refuse_a3, True, "weighted mixture law (midpoint weights)"),
    CheckSpec("A4", check_a4, _refuse_a4, True, "trapezoid mixture law + gap decay"),
    CheckSpec("A5", check_a5, _refuse_a5, False, "exact crossing/composition identities"),
    CheckSpec("A6", check_a6, _refuse_a6, True,
              "endpoint statistics converge to the derivative integral"),
    CheckSpec("A7", check_a7, _refuse_a7, True, "circulant generator vs the exact fBm law"),
    CheckSpec("A8", check_a8, _refuse_a8, False, "overlap-sum identity and coarse boundedness"),
    CheckSpec("A9", check_a9, _refuse_a9, True, "Brownian-time variance, mixture law, walk CLT"),
    CheckSpec("A10", check_a10, _refuse_a10, True, "window moment scaling band"),
)}


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
