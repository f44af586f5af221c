"""Harness tests: KS calibration, report determinism, and the checks built
on the replicate loop (mixture law A3, endpoint limits A6, moment scaling
A10)."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from fbmvar import (
    GridSpec,
    SeedSpec,
    ks_one_sample,
    ks_two_sample,
    limit_sigma,
    sample_fbm,
    variation,
)
from fbmvar.acceptance import check_a3, check_a5, check_a6, check_a10
from fbmvar.harness import describe, replicate_map


# --- Kolmogorov-Smirnov wrappers -------------------------------------------

def test_ks_one_sample_requires_enough_samples():
    with pytest.raises(ValueError):
        ks_one_sample(np.zeros(10), sps.norm.cdf)


def test_ks_one_sample_calibration():
    # under the null, p is uniform: fraction below 0.05 stays near 0.05
    rng = np.random.default_rng(404)
    hits = 0
    for _ in range(200):
        _, p = ks_one_sample(rng.uniform(size=100), lambda x: np.clip(x, 0, 1))
        hits += p < 0.05
    assert 0.01 < hits / 200 < 0.12


def test_ks_one_sample_degenerate():
    _, p = ks_one_sample(np.full(100, 0.7), sps.norm.cdf)
    assert p < 1e-6


def test_ks_one_sample_against_own_ecdf():
    rng = np.random.default_rng(405)
    x = np.sort(rng.standard_normal(80))

    def ecdf(v):
        return np.searchsorted(x, v, side="right") / len(x)

    stat, _ = ks_one_sample(x, ecdf)
    assert stat <= 1.0 / len(x) + 1e-12


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
    with pytest.raises(ValueError):
        ks_two_sample(np.zeros(10), np.zeros(100))


# --- replicate loop and reports ---------------------------------------------

def _unit_weight_draw(seed):
    path = sample_fbm(0.25, GridSpec(level=8, t_min=0.0, t_max=1.0), seed)
    return variation(path, None, 2).value_at(1.0)


def test_se_shrinks_with_replicates():
    small = describe(replicate_map(_unit_weight_draw, 400, 21))
    large = describe(replicate_map(_unit_weight_draw, 800, 21))
    ratio = large["se_mean"] / small["se_mean"]
    assert abs(ratio - 1 / math.sqrt(2)) < 0.2 / math.sqrt(2)


def test_experiment_determinism_and_thread_independence():
    kwargs = dict(master_seed=5, replicates=120, level=6, h=0.3)
    r1 = check_a3(**kwargs)
    r2 = check_a3(**kwargs)
    assert r1.canonical_json() == r2.canonical_json()
    r4 = check_a3(threads=4, **kwargs)
    d1, d4 = r1.to_dict(), r4.to_dict()
    assert (d1["estimates"], d1["tests"]) == (d4["estimates"], d4["tests"])


def test_passed_is_derived_from_failures():
    report = check_a10(master_seed=7, replicates=60, level=8, hs=(0.25,), band_factor=0.1)
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
    report = check_a10(master_seed=7, replicates=120, level=8, hs=(0.25,), widths=(0.25, 0.0))
    assert report.passed
    ratios = report.estimates["h=0.25"]["ratios"]
    assert ratios[0] == pytest.approx(1.0, rel=1e-12)  # the widest window fits the constant
    assert math.isnan(ratios[1])


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

def test_l2_endpoint_constant_weight_converges_to_zero():
    # f' = 0: the limit is 0 and the statistic itself must shrink
    report = check_a6(master_seed=13, replicates=150, f="one", n_list=(6, 10), t=1.0,
                      rms_threshold=0.8)
    assert report.passed
    assert report.estimates["rms"]["10"]["left"] < report.estimates["rms"]["6"]["left"]


def test_l2_endpoint_requires_r_at_least_two():
    with pytest.raises(ValueError):
        check_a6(replicates=100, r=1, n_list=(6, 8), t=1.0)


def test_l2_endpoint_mu_factor():
    report = check_a6(master_seed=17, replicates=100, n_list=(6, 8), t=0.5, rms_threshold=10.0)
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
    _, p = ks_one_sample(np.array(draws) / sigma.value, sps.norm.cdf)
    assert p > 0.01


def test_mixture_law_degenerate_r1():
    report = check_a3(master_seed=29, replicates=400, level=10, r=1, f="one")
    assert report.passed
    assert report.estimates["sigma"] == 0.0
    v = report.estimates["variances"]
    decay = report.tests["variance_decay"]
    assert decay == {"ratio": v["10"]["variance"] / v["6"]["variance"], "bound": 0.7}
    # a zero weight has no variance to decay: a failure, not a ZeroDivisionError
    zero = check_a3(master_seed=29, replicates=60, level=6, r=1, f="zero")
    assert zero.tests["variance_decay"]["ratio"] == math.inf and not zero.passed
    # Var at level n is 2^(n(2H-1)) for f=1, r=1: each 4 levels divide it by 4
    ratio = v["10"]["variance"] / v["6"]["variance"]
    assert ratio == pytest.approx(2.0 ** (4 * (2 * 0.25 - 1)), rel=0.25)


def test_mixture_law_limit_side_is_uncorrelated():
    report = check_a3(master_seed=31, replicates=500, level=8)
    assert abs(report.tests["corr_limit_side"]["value"]) < 3.0 / math.sqrt(500) + 0.02
