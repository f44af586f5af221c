"""Harness tests: KS calibration, report determinism, and the checks built
on the replicate loop (mixture law A3, endpoint limits A6, moment scaling
A10)."""

import json
import math
import warnings

import numpy as np
import pytest
from scipy import stats as sps
from scipy.special import ndtri

from fbmvar import (
    FbmPath,
    GridSpec,
    SeedSpec,
    as_hurst,
    get_weight,
    ks_one_sample,
    ks_two_sample,
    limit_sigma,
    sample_fbm,
    variation,
)
from fbmvar import acceptance, harness
from fbmvar.acceptance import check_a3, check_a4, check_a5, check_a6, check_a10
from fbmvar.harness import describe, replicate_map


# --- Kolmogorov-Smirnov wrappers -------------------------------------------

def test_ks_one_sample_requires_enough_samples():
    with pytest.raises(ValueError):
        ks_one_sample(np.zeros(10))


def test_ks_one_sample_calibration():
    # under the null, p is uniform: fraction below 0.05 stays near 0.05
    rng = np.random.default_rng(404)
    hits = 0
    for _ in range(200):
        _, p = ks_one_sample(rng.standard_normal(100))
        hits += p < 0.05
    assert 0.01 < hits / 200 < 0.12


def test_ks_one_sample_degenerate():
    _, p = ks_one_sample(np.full(100, 0.7))
    assert p < 1e-6


def test_ks_one_sample_against_own_ecdf():
    # normal draws moved to the normal quantiles (i + 1/2)/n of their ranks
    # have an ECDF as close to N(0, 1) as n points allow: D = 1/(2n)
    n = 80
    x = ndtri((np.argsort(np.argsort(np.random.default_rng(405).standard_normal(n))) + 0.5) / n)
    stat, p = ks_one_sample(x)
    assert stat == pytest.approx(0.5 / n, abs=1e-12) and p == 1.0


def test_ks_two_sample_identical_batches():
    x = np.random.default_rng(1).standard_normal(200)
    stat, p = ks_two_sample(x, x.copy())
    assert stat == 0.0
    assert p == 1.0


def test_ks_two_sample_power():
    rng = np.random.default_rng(2)
    _, p = ks_two_sample(rng.standard_normal(1000), rng.standard_normal(1000) + 3.0)
    assert p < 1e-6


def test_ks_two_sample_calibration():
    rng = np.random.default_rng(3)
    ok = 0
    for _ in range(100):
        _, p = ks_two_sample(rng.standard_normal(150), rng.standard_normal(150))
        ok += p > 0.01
    assert ok >= 95


def test_ks_two_sample_requires_enough_samples():
    with pytest.raises(ValueError, match="samples must be >= 50 for a KS test, got 10"):
        ks_two_sample(np.zeros(10), np.zeros(10))


@pytest.mark.parametrize("m, n", [(50, 73), (73, 50), (300, 700)])
def test_ks_two_sample_refuses_unequal_batches(m, n):
    # the exact p-value is the equal-size lattice count; no check draws
    # batches of two sizes
    with pytest.raises(ValueError, match=f"one size for the exact KS test, got {m} and {n}"):
        ks_two_sample(np.zeros(m), np.zeros(n))


# --- parity with scipy.stats, bit for bit ----------------------------------

def _bits(*values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def _assert_ks_two_sample_matches_scipy(a, b):
    res = sps.ks_2samp(a, b, method="exact")
    assert _bits(*ks_two_sample(a, b)) == _bits(res.statistic, res.pvalue)


@pytest.mark.parametrize("m, n", [(50, 50), (51, 51), (200, 200), (500, 500), (5000, 5000),
                                  (8000, 8000)])
@pytest.mark.parametrize("shift", [0.0, 0.3, 5.0])
def test_ks_two_sample_matches_scipy(m, n, shift):
    rng = np.random.default_rng(m * n)
    a, b = rng.standard_normal(m), rng.standard_normal(n) + shift
    _assert_ks_two_sample_matches_scipy(a, b)
    _assert_ks_two_sample_matches_scipy(np.round(a, 1), np.round(b, 1))  # ties
    _assert_ks_two_sample_matches_scipy(a, a.copy())  # h = 0
    _assert_ks_two_sample_matches_scipy(a, a + 100.0 + shift)  # h = n


def test_ks_two_sample_is_one_where_scipy_leaves_the_exact_count():
    # pairs of a and of b alternate, so h = 2 at n = 60: the exact count
    # rounds above 1 there, and scipy falls back to the asymptotic law
    a = np.sort(np.concatenate([np.arange(0, 120, 4), np.arange(1, 120, 4)]))
    with pytest.warns(RuntimeWarning, match="Exact calculation unsuccessful"):
        res = sps.ks_2samp(a, a + 2.0, method="exact")
    assert res.statistic == 2 / 60 and res.pvalue < 1.0
    assert ks_two_sample(a, a + 2.0) == (2 / 60, 1.0)


@pytest.mark.parametrize("r", [60, 200, 500, 1000, 2000, 5000])
def test_exact_and_asymptotic_laws_reject_from_one_lattice_step(r):
    # at the replicate counts the checks run, the least h = R D whose
    # p-value is at or below ALPHA is the same under the exact count and
    # under Kolmogorov's finite-n law at round(R/2), the p-value of
    # ks_2samp's asymptotic method: no verdict at these sizes moves
    def least_rejecting(sf):
        return next(h for h in range(1, r + 1) if sf(h) <= acceptance.ALPHA)

    exact = least_rejecting(lambda h: harness._prob_outside_square(r, h))
    assert exact == least_rejecting(lambda h: sps.kstwo.sf(h / r, round(r / 2)))


@pytest.mark.parametrize("n", [50, 400, 20000], ids=lambda n: f"norm-{n}")
def test_ks_one_sample_matches_scipy(n):
    rng = np.random.default_rng(n)
    for x in (rng.standard_normal(n), 1.2 * rng.standard_normal(n) + 0.1, np.round(rng.standard_normal(n), 1)):
        res = sps.kstest(x, "norm", method="asymp")
        assert _bits(*ks_one_sample(x)) == _bits(res.statistic, res.pvalue)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["first", "second", "both"])
def test_ks_tests_match_scipy_on_nan_and_inf(bad, where):
    # scipy's nan_policy="propagate" gives (nan, nan) for a batch with a
    # NaN, which fails every KS gate; an infinity is a value like any other
    rng = np.random.default_rng(17)
    a, b = rng.standard_normal(100), rng.standard_normal(100)
    if where != "second":
        a[7] = bad
    if where != "first":
        b[3] = bad
    _assert_ks_two_sample_matches_scipy(a, b)
    for x in (a, b):
        res = sps.kstest(x, "norm", method="asymp")
        assert _bits(*ks_one_sample(x)) == _bits(res.statistic, res.pvalue)
    if bad != bad:
        assert all(math.isnan(v) for v in ks_two_sample(a, b))


def _assert_shape_matches_scipy(x):
    # the variance too: describe's is numpy's, from the squares it shares
    # with the shape
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")  # scipy's precision-loss warning on a constant sample
        want = np.var(x, ddof=1), sps.skew(x), sps.kurtosis(x)
    desc = describe(x)
    assert _bits(desc["variance"], desc["skewness"], desc["ex_kurtosis"]) == _bits(*want)


@pytest.mark.parametrize("n", [4, 50, 5000])
def test_describe_shape_matches_scipy(n):
    rng = np.random.default_rng(n)
    for x in (rng.standard_normal(n), rng.standard_gamma(2.0, n) * 30 + 1e3, np.full(n, 0.7), np.zeros(n)):
        _assert_shape_matches_scipy(x)


def test_describe_skewness_matches_scipy_at_three_samples():
    for x in ([1.0, 2.0, 4.0], [0.3, -1.0, 2.5], [5.0, 5.0, 5.0]):
        desc = describe(np.array(x))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert _bits(desc["skewness"]) == _bits(sps.skew(x))
        assert desc["ex_kurtosis"] == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, (np.inf, -np.inf)])
def test_describe_shape_matches_scipy_on_nan_and_inf(bad):
    # describe itself runs under Tier-1's warnings-as-errors
    x = np.random.default_rng(3).standard_normal(60)
    x[[4, 9]] = bad
    _assert_shape_matches_scipy(x)


def test_describe_gives_nan_variance_for_an_infinite_draw_without_a_warning():
    # an overflowing draw fails its gate on NaN estimates: it must not raise
    # numpy's invalid-value warning, an error under Tier-1
    x = np.random.default_rng(60).standard_normal(60)
    x[17] = np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        desc = describe(x)
    assert math.isnan(desc["variance"]) and math.isnan(desc["se_variance"])


@pytest.mark.parametrize("big, overflows", [(1e154, "fourth power"), (1e200, "square")])
def test_describe_gives_non_finite_estimates_for_an_overflowing_draw(big, overflows):
    # a draw whose fourth power or square overflows fails its gate on a NaN
    # variance SE: neither numpy's overflow warning, an error under Tier-1,
    # nor the OverflowError of the variance's float square may escape
    x = np.random.default_rng(61).standard_normal(60)
    x[23] = big
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        desc = describe(x)
    assert math.isnan(desc["se_variance"])
    assert math.isfinite(desc["variance"]) == (overflows == "fourth power")


# --- replicate loop and reports ---------------------------------------------

def _unit_weight_draw(seeds):
    paths = [sample_fbm(0.25, GridSpec(level=8, t_min=0.0, t_max=1.0), seed) for seed in seeds]
    return [variation(path, None, 2).value_at(1.0) for path in paths]


def test_se_shrinks_with_replicates():
    small = describe(replicate_map(_unit_weight_draw, 400, 21))
    large = describe(replicate_map(_unit_weight_draw, 800, 21))
    ratio = large["se_mean"] / small["se_mean"]
    assert abs(ratio - 1 / math.sqrt(2)) < 0.2 / math.sqrt(2)


def test_replicate_map_chunks_hold_consecutive_seeds_within_the_caps():
    seen = []

    def record(seeds):
        seen.append([seed.stream_id for seed in seeds])
        return np.zeros(len(seeds))

    # 16 rows at 2^10 steps, 4 at 2^12, one seed however large its grid,
    # and every seed at once when a row samples one step
    for steps, size in ((2**10, 16), (2**12, 4), (2**14, 1), (2**20, 1), (1, 37)):
        seen.clear()
        assert len(replicate_map(record, 37, 3, steps=steps)) == 37
        assert [i for chunk in seen for i in chunk] == list(range(37))
        assert [len(chunk) for chunk in seen[:-1]] == [size] * (len(seen) - 1)


@pytest.mark.parametrize("threads", [2, 3])
def test_replicate_map_splits_cheap_rows_across_threads(threads):
    # at steps=1 the step cap would take every seed at once; the thread
    # count still splits them, into chunks of ceil(replicates / threads)
    seen = []

    def record(seeds):
        seen.append([seed.stream_id for seed in seeds])
        return np.array([seed.stream_id for seed in seeds])

    got = replicate_map(record, 37, 3, threads=threads, steps=1)
    assert got.tolist() == list(range(37))
    assert len(seen) >= threads
    assert max(len(chunk) for chunk in seen) == -(-37 // threads)
    assert sorted(i for chunk in seen for i in chunk) == list(range(37))


@pytest.mark.parametrize("chunk_rows", [1, 3, 16])
def test_replicate_map_rows_do_not_depend_on_chunks_or_threads(chunk_rows, monkeypatch):
    # CHUNK_STEPS = 1 gives every chunk and grid batch one row; then it is
    # set so that chunks of the batch below hold chunk_rows rows
    h, weight = 0.3, get_weight("gauss")
    grid = GridSpec(level=6, t_min=-0.25, t_max=1.0)

    def batch(seeds):
        paths = FbmPath(grid=grid, h=as_hurst(h), values=sample_fbm(h, grid, seeds))
        return np.stack([variation(paths, weight, 2).value_at(1.0), paths.value_at(1.0)], axis=1)

    singles = (sample_fbm(h, grid, SeedSpec(77, i)) for i in range(50))
    want = np.array([[variation(p, weight, 2).value_at(1.0), p.value_at(1.0)] for p in singles])
    small = dict(master_seed=5, replicates=60, level=6)
    reports = {
        "A4": lambda: check_a4(**small, decay_levels=(4, 6), decay_replicates=20),
        "A6": lambda: check_a6(master_seed=5, replicates=20, n_list=(4, 6)),
        "A10": lambda: check_a10(master_seed=5, replicates=20, level=8, hs=(0.25,)),
    }
    monkeypatch.setattr(harness, "CHUNK_STEPS", 1)
    one_row = {name: run().canonical_json() for name, run in reports.items()}
    monkeypatch.setattr(harness, "CHUNK_STEPS", chunk_rows * (grid.npoints - 1))
    for threads in (1, 4):
        got = replicate_map(batch, 50, 77, threads=threads, steps=grid.npoints - 1)
        assert got.tobytes() == want.tobytes()
    assert {name: run().canonical_json() for name, run in reports.items()} == one_row


def test_experiment_determinism_and_thread_independence():
    kwargs = dict(master_seed=5, replicates=120, level=6, h=0.3)
    r1 = check_a3(**kwargs)
    r2 = check_a3(**kwargs)
    assert r1.canonical_json() == r2.canonical_json()
    r4 = check_a3(threads=4, **kwargs)
    d1, d4 = r1.to_dict(), r4.to_dict()
    assert (d1["estimates"], d1["tests"]) == (d4["estimates"], d4["tests"])


def test_report_serializes_python_and_numpy_bools_as_json_bools():
    # bool is an int subclass: it must not come out as 0 or 1
    flags = {"py": True, "np": np.bool_(False), "nested": [{"py": False}, (np.True_,)],
             "array": np.array([True, False])}
    report = harness.McReport(kind="t", config=dict(flags), master_seed=1, estimates=flags)
    plain = report.to_dict()["estimates"]
    assert plain == {"py": True, "np": False, "nested": [{"py": False}, [True]],
                     "array": [True, False]}
    assert all(type(v) is bool for v in (plain["py"], plain["np"], plain["nested"][0]["py"],
                                         plain["nested"][1][0], *plain["array"]))
    encoded = json.loads(report.canonical_json())
    assert encoded["config"] == encoded["estimates"] == plain
    assert '"py": true' in report.canonical_json()


def test_passed_is_derived_from_failures(monkeypatch):
    # a band below 1 fails every window narrower than the fitted one
    monkeypatch.setattr(acceptance, "A10_BAND_FACTOR", 0.1)
    report = check_a10(master_seed=7, replicates=60, level=8, hs=(0.25,))
    assert report.tests["band h=0.25"]["bound"] == 0.1
    assert report.failures and report.passed is False
    assert report.to_dict()["passed"] is False
    report.failures.clear()
    assert report.passed is True
    assert "wall_time_s" not in report.to_dict()


def test_exact_identity_gate_fails_on_nan_residuals():
    # at r = 2000 the odd power overflows, and every residual is NaN
    with pytest.warns(RuntimeWarning):
        report = check_a5(samples=30, r=2000)
    assert all(math.isnan(v) for v in report.estimates["max_residual"].values())
    assert not report.passed


# --- moment scaling (A10) ----------------------------------------------------

def test_moment_scaling_zero_width_pair():
    report = check_a10(master_seed=7, replicates=120, level=8, hs=(0.25,),
                       widths=(0.25, 0.125, 0.0))
    assert report.passed
    ratios = report.estimates["h=0.25"]["ratios"]
    assert ratios[0] == pytest.approx(1.0, rel=1e-12)  # the widest window fits the constant
    assert 0.0 < ratios[1] <= acceptance.A10_BAND_FACTOR
    assert math.isnan(ratios[2])


@pytest.mark.parametrize("level", [2, 3])
def test_moment_scaling_needs_two_live_windows(level):
    # at level 2 every default window is empty, at level 3 only the widest
    # is not, so no ratio would be tested against the band
    with pytest.raises(ValueError, match="positive width"):
        check_a10(replicates=100, level=level)


def test_moment_scaling_band_and_slope():
    h, p = 0.4, 4
    report = check_a10(master_seed=9, replicates=500, level=10, hs=(h,), p=p,
                       widths=(2**-3, 2**-5, 2**-7))
    assert report.passed
    # halving the window scales the moment like d^min(p/2, pH)
    assert abs(report.estimates[f"h={h}"]["slope_log2"] - min(p / 2.0, p * h)) <= 0.4


def test_moment_scaling_rejects_bad_p():
    with pytest.raises(ValueError):
        check_a10(replicates=100, level=8, p=3)


# --- endpoint limits (A6) ----------------------------------------------------

def test_l2_endpoint_constant_weight_converges_to_zero(monkeypatch):
    # f' = 0: the limit is 0 and the statistic itself must shrink; at n = 10
    # it is still above the shipped threshold, so the test sets its own
    monkeypatch.setattr(acceptance, "RMS_THRESHOLD", 0.8)
    report = check_a6(master_seed=13, replicates=150, f="one", n_list=(6, 10), t=1.0)
    assert report.passed
    assert report.tests["rms_at_last_level"]["bound"] == 0.8
    assert report.estimates["rms"]["10"]["left"] < report.estimates["rms"]["6"]["left"]


def test_l2_endpoint_requires_r_at_least_two():
    with pytest.raises(ValueError):
        check_a6(replicates=100, r=1, n_list=(6, 8), t=1.0)


def test_l2_endpoint_mu_factor():
    report = check_a6(master_seed=17, replicates=100, n_list=(6, 8), t=0.5)
    assert report.estimates["mu_2r_half"] == 1.5  # mu_4 / 2


# --- mixture law (A3) --------------------------------------------------------

def test_mixture_law_unit_weight_reduces_to_gaussian():
    report = check_a3(master_seed=19, replicates=600, level=10, f="one")
    assert report.tests["ks_two_sample"]["p_value"] > 0.01
    # the f=1 mixture collapses: check directly against N(0, sigma^2)
    sigma = limit_sigma(2, 0.25, 1e-8)
    draws = []
    for i in range(600):
        path = sample_fbm(0.25, GridSpec(level=10, t_min=0.0, t_max=1.0), SeedSpec(23, i))
        draws.append(variation(path, None, 2).value_at(1.0))
    _, p = ks_one_sample(np.array(draws) / sigma.value)
    assert p > 0.01


def test_mixture_law_limit_side_is_uncorrelated():
    report = check_a3(master_seed=31, replicates=500, level=8)
    assert abs(report.tests["corr_limit_side"]["value"]) < 3.0 / math.sqrt(500) + 0.02
