"""Harness tests: KS calibration, report determinism, the MC test ops."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from fbmvar import (
    GridSpec,
    SeedSpec,
    ks_one_sample,
    ks_two_sample,
    l2_endpoint_test,
    limit_sigma,
    mixture_law_test,
    moment_scaling_test,
    sample_fbm,
    variation,
)
from fbmvar.harness import describe, replicate_map


# --- Kolmogorov-Smirnov wrappers -------------------------------------------

def test_ks_one_sample_requires_enough_samples():
    with pytest.raises(ValueError):
        ks_one_sample(np.zeros(10), sps.norm.cdf)


def test_ks_one_sample_small_sample_closed_form():
    # with a single observation the statistic is max(F(x), 1-F(x))
    for x in (-1.3, 0.2, 2.4):
        stat, _ = ks_one_sample([x], sps.norm.cdf, min_samples=1)
        assert stat == pytest.approx(max(sps.norm.cdf(x), 1 - sps.norm.cdf(x)), rel=1e-12)


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
    args = (0.3, 2, "gauss", 6, 120)
    r1 = mixture_law_test(*args, master_seed=5, statistic="trapezoid")
    r2 = mixture_law_test(*args, master_seed=5, statistic="trapezoid")
    assert r1.canonical_json() == r2.canonical_json()
    r4 = mixture_law_test(*args, master_seed=5, statistic="trapezoid", threads=4)
    d1, d4 = r1.to_dict(False), r4.to_dict(False)
    assert (d1["estimates"], d1["tests"]) == (d4["estimates"], d4["tests"])


# --- moment scaling ----------------------------------------------------------

def test_moment_scaling_zero_width_pair():
    report = moment_scaling_test(
        0.25, 2, "one", 8, 4, [(0.5, 0.75), (0.25, 0.25)], replicates=120, master_seed=7
    )
    assert report.passed
    assert report.estimates["moments"][1] == 0.0


def test_moment_scaling_band_and_slope():
    pairs = [(0.5, 0.5 + w) for w in (2**-3, 2**-5, 2**-7)]
    report = moment_scaling_test(0.4, 2, "one", 10, 4, pairs, replicates=500, master_seed=9)
    assert report.passed
    # halving the window scales the moment like d^min(p/2, pH)
    assert abs(report.estimates["slope_log2"] - report.estimates["slope_reference"]) <= 0.4


def test_moment_scaling_rejects_bad_p():
    with pytest.raises(ValueError):
        moment_scaling_test(0.25, 2, "one", 8, 3, [(0.0, 0.5)], replicates=100)


# --- endpoint limits ---------------------------------------------------------

def test_l2_endpoint_constant_weight_converges_to_zero():
    # f' = 0: the limit is 0 and the statistic itself must shrink
    report = l2_endpoint_test(0.3, 2, "one", (6, 10), 1.0, replicates=150, master_seed=13,
                              rms_threshold=0.8)
    assert report.passed
    assert report.estimates["rms"]["10"]["left"] < report.estimates["rms"]["6"]["left"]


def test_l2_endpoint_requires_r_at_least_two():
    with pytest.raises(ValueError):
        l2_endpoint_test(0.3, 1, "sin", (6, 8), 1.0, replicates=100)


def test_l2_endpoint_mu_factor():
    report = l2_endpoint_test(0.3, 2, "sin", (6, 8), 0.5, replicates=100, master_seed=17,
                              rms_threshold=10.0)
    assert report.estimates["mu_2r_half"] == 1.5  # mu_4 / 2


# --- mixture law -------------------------------------------------------------

def test_mixture_law_unit_weight_reduces_to_gaussian():
    report = mixture_law_test(0.25, 2, "one", 10, 600, master_seed=19, statistic="midpoint")
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
    report = mixture_law_test(0.25, 1, "one", 10, 400, master_seed=29, statistic="midpoint")
    assert report.passed
    v = report.estimates["variances"]
    # Var at level n is 2^(n(2H-1)) for f=1, r=1: each 4 levels divide it by 4
    ratio = v["10"]["variance"] / v["6"]["variance"]
    assert ratio == pytest.approx(2.0 ** (4 * (2 * 0.25 - 1)), rel=0.25)


def test_mixture_law_limit_side_is_uncorrelated():
    report = mixture_law_test(0.25, 2, "gauss", 8, 500, master_seed=31)
    assert abs(report.tests["corr_limit_side"]["value"]) < 3.0 / math.sqrt(500) + 0.02
