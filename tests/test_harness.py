"""Harness tests: KS calibration, report determinism, and the checks built
on the replicate loop (mixture law A3, endpoint limits A6, moment scaling
A10)."""

import json
import math
import warnings

import numpy as np
import pytest
from scipy import stats as sps

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


# --- parity with scipy.stats, bit for bit ----------------------------------

def _bits(*values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def _kstwo_branch(n: int, x: float) -> str:
    """The branch Simard and L'Ecuyer's algorithm takes for Pr(D_n > x)."""
    t, nxx = n * x, n * x * x
    if x <= 0.5 / n or x >= 1.0:
        return "support"
    if t <= 1.0:
        return "ruben-gambino low, product" if n <= 140 else "ruben-gambino low, stirling"
    if t >= n - 1:
        return "ruben-gambino high"
    if x >= 0.5:
        return "smirnov, x >= 1/2"
    if n <= 140:
        return "durbin" if nxx <= 0.754693 else "pomeranz" if nxx <= 4 else "smirnov, n <= 140"
    if nxx >= 370:
        return "zero"
    if nxx >= 2.2:
        return "smirnov, n > 140"
    return "durbin, n > 140" if n <= 100000 and n * x**1.5 <= 1.4 else "pelz-good"


#: the one function of `_kolmogorov` each branch calls, if any
KSTWO_CALLS = {
    "ruben-gambino low, stirling": "_log_nfactorial_div_n_pow_n",
    "smirnov, x >= 1/2": "smirnov",
    "durbin": "_kolmogn_DMTW",
    "pomeranz": "_kolmogn_Pomeranz",
    "smirnov, n <= 140": "smirnov",
    "smirnov, n > 140": "smirnov",
    "durbin, n > 140": "_kolmogn_DMTW",
    "pelz-good": "_kolmogn_PelzGood",
}


def _kstwo_grid():
    """(n, x) points in every branch: each n from 25 to 159, where the
    exact methods switch at 140, and larger n up to 150 000, past the
    Durbin cap of 100 000; x at both Ruben-Gambino edges, at z = x sqrt(n)
    from the lower tail to the far upper tail, and at x = 0.6."""
    zs = (0.1, 0.5, 0.8, 0.95, 1.2, 1.6, 2.5, 5.0, 25.0)
    for n in [*range(25, 160), 500, 2000, 20000, 100001, 150000]:
        xs = [0.75 / n, 1.0 / n, (n - 0.5) / n, 0.6, *(z / math.sqrt(n) for z in zs)]
        if n > 140:
            xs.append(0.9 * (1.4 / n) ** (2 / 3))  # Durbin's cap on n x^1.5
        yield from ((n, x) for x in xs)


def test_kstwo_sf_matches_scipy_on_every_branch(monkeypatch):
    from fbmvar import _kolmogorov

    calls = []
    for name in set(KSTWO_CALLS.values()):
        def spy(*args, _fn=getattr(_kolmogorov, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(_kolmogorov, name, spy)
    seen = set()
    for n, x in _kstwo_grid():
        calls.clear()
        branch = _kstwo_branch(n, x)
        got = _kolmogorov.kstwo_sf(x, np.float64(n))
        assert calls == ([KSTWO_CALLS[branch]] if branch in KSTWO_CALLS else []), (n, x, branch)
        assert _bits(got) == _bits(sps.kstwo.sf(x, n)), (n, x, branch)
        seen.add(branch)
    assert seen == {"support", "ruben-gambino low, product", "ruben-gambino high", "zero",
                    *KSTWO_CALLS}


def _assert_ks_two_sample_matches_scipy(a, b):
    res = sps.ks_2samp(a, b, method="asymp")
    assert _bits(*ks_two_sample(a, b)) == _bits(res.statistic, res.pvalue)


@pytest.mark.parametrize("m, n", [(200, 200), (50, 73), (73, 50), (300, 700)])
@pytest.mark.parametrize("shift", [0.0, 0.3, 5.0])
def test_ks_two_sample_matches_scipy(m, n, shift):
    rng = np.random.default_rng(m * n)
    a, b = rng.standard_normal(m), rng.standard_normal(n) + shift
    _assert_ks_two_sample_matches_scipy(a, b)
    _assert_ks_two_sample_matches_scipy(np.round(a, 1), np.round(b, 1))  # ties
    _assert_ks_two_sample_matches_scipy(a, a.copy())


@pytest.mark.parametrize("n", [50, 400, 20000])
@pytest.mark.parametrize("cdf", ["norm", lambda v: sps.norm.cdf(v, scale=1.1)], ids=["norm", "callable"])
def test_ks_one_sample_matches_scipy(n, cdf):
    rng = np.random.default_rng(n)
    for x in (rng.standard_normal(n), 1.2 * rng.standard_normal(n) + 0.1, np.round(rng.standard_normal(n), 1)):
        res = sps.kstest(x, cdf, method="asymp")
        assert _bits(*ks_one_sample(x, cdf)) == _bits(res.statistic, res.pvalue)


def test_ks_one_sample_refuses_other_distribution_names():
    with pytest.raises(ValueError, match="norm"):
        ks_one_sample(np.zeros(100), "uniform")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["first", "second", "both"])
def test_ks_tests_match_scipy_on_nan_and_inf(bad, where):
    # scipy's nan_policy="propagate" gives (nan, nan) for a batch with a
    # NaN, which fails every KS gate; an infinity is a value like any other
    rng = np.random.default_rng(17)
    a, b = rng.standard_normal(100), rng.standard_normal(80)
    if where != "second":
        a[7] = bad
    if where != "first":
        b[3] = bad
    _assert_ks_two_sample_matches_scipy(a, b)
    for x in (a, b):
        for cdf in ("norm", lambda v: (v > 0).astype(float)):
            res = sps.kstest(x, cdf, method="asymp")
            assert _bits(*ks_one_sample(x, cdf)) == _bits(res.statistic, res.pvalue)
    if bad != bad:
        assert all(math.isnan(v) for v in ks_two_sample(a, b))


def _assert_shape_matches_scipy(x):
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")  # scipy's precision-loss warning on a constant sample
        want = sps.skew(x), sps.kurtosis(x)
    desc = describe(x)
    assert _bits(desc["skewness"], desc["ex_kurtosis"]) == _bits(*want)


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
    x = np.random.default_rng(3).standard_normal(60)
    x[[4, 9]] = bad
    with np.errstate(all="ignore"):
        _assert_shape_matches_scipy(x)


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
    _, p = ks_one_sample(np.array(draws) / sigma.value, sps.norm.cdf)
    assert p > 0.01


def test_mixture_law_limit_side_is_uncorrelated():
    report = check_a3(master_seed=31, replicates=500, level=8)
    assert abs(report.tests["corr_limit_side"]["value"]) < 3.0 / math.sqrt(500) + 0.02
