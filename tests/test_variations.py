"""Variation-statistic tests: hand values, exact identities, limit draws."""

import math

import numpy as np
import pytest

from fbmvar import (
    GridSpec,
    SeedSpec,
    WeightFunction,
    get_weight,
    limit_conditional_std,
    limit_quadrature,
    limit_sigma,
    sample_fbm,
    step_summands,
    variation,
)
from fbmvar.variations import RULES, odd_power
from fbmvar.weights import REGISTRY
from helpers import check_derivatives, make_path

F_ONE = get_weight("one")
F_ZERO = get_weight("zero")
F_ID = get_weight("identity")
F_SQ = get_weight("square")
F_SIN = get_weight("sin")
F_GAUSS = get_weight("gauss")


def _path(level=8, h=0.25, seed=0, t_max=1.0, t_min=0.0):
    grid = GridSpec(level=level, t_min=t_min, t_max=t_max)
    return sample_fbm(h, grid, SeedSpec(seed, 0))


# --- weight registry -------------------------------------------------------

@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_derivatives_match_finite_differences(name):
    xs = np.linspace(-3, 3, 25)
    check_derivatives(REGISTRY[name], xs, k_max=6, tol=1e-6)


def test_weight_order_guard():
    f = WeightFunction("lin", 1, lambda k, x: x if k == 0 else np.ones_like(x))
    f.eval(1, 0.5)
    with pytest.raises(ValueError):
        f.eval(2, 0.5)


def test_bad_derivatives_are_caught():
    f = WeightFunction("broken", 2, lambda k, x: np.sin(x) if k == 0 else np.cos(x))
    with pytest.raises(ValueError):
        check_derivatives(f, np.linspace(-1, 1, 9), k_max=2)


# --- hand-computed values --------------------------------------------------

def test_midpoint_hand_example():
    path = make_path(1, [0.0, 1.0, 2.0], 0.25)
    series = variation(path, F_ID, 1)
    assert series.value_at(1.0) == pytest.approx(2.0**0.75, rel=1e-12)


def test_trapezoid_hand_example():
    path = make_path(1, [0.0, 1.0, 2.0], 0.25)
    series = variation(path, F_SQ, 1, "trapezoid")
    assert series.value_at(1.0) == pytest.approx(3.0 * 2.0**-0.25, rel=1e-12)


def test_zero_weight_gives_zero_series():
    path = _path()
    assert np.all(variation(path, F_ZERO, 2).values == 0.0)


def test_unit_weight_equals_unweighted():
    path = _path(seed=3)
    weighted = variation(path, F_ONE, 2)
    plain = variation(path, None, 2)
    assert np.array_equal(weighted.raw, plain.raw)
    assert np.array_equal(variation(path, F_ONE, 2, "trapezoid").raw, plain.raw)


# --- series mechanics ------------------------------------------------------

def test_series_starts_at_zero_and_is_right_continuous():
    path = _path(level=6)
    series = variation(path, F_GAUSS, 2)
    assert series.values[0] == 0.0
    k = 37
    t_lo, t_hi = k * 2.0**-6, (k + 1) * 2.0**-6
    assert series.value_at(t_lo) == series.value_at(t_hi - 1e-9)
    assert series.value_at(t_lo) == series.values[k]
    with pytest.raises(ValueError):
        series.value_at(2.0)


def test_empty_sum_below_first_step():
    path = _path(level=6)
    assert variation(path, None, 1).value_at(2.0**-7) == 0.0


def test_summands_recover_per_step_terms():
    path = _path(level=7, seed=5)
    series = variation(path, F_SIN, 2, "trapezoid")
    n = 7
    x = path.values[path.grid.zero_index :]
    xi = 2.0 ** (n * 0.25) * np.diff(x)
    expected = 2.0 ** (-n / 2) * 0.5 * (np.sin(x[:-1]) + np.sin(x[1:])) * xi * xi * xi
    # differencing recovers summands up to an ulp of the running sum
    atol = 1e-15 * (1.0 + np.max(np.abs(series.values)))
    assert np.allclose(series.scale * np.diff(series.raw), expected, rtol=1e-12, atol=atol)


# --- exact algebraic identities -------------------------------------------

def test_trapezoid_is_mean_of_endpoint_sums():
    for seed in range(5):
        path = _path(level=9, seed=seed)
        for r in (1, 2, 3):
            trap = variation(path, F_GAUSS, r, "trapezoid")
            left = variation(path, F_GAUSS, r, "left")
            right = variation(path, F_GAUSS, r, "right")
            mean_raw = 0.5 * (left.raw + right.raw)
            scale = np.max(np.abs(trap.raw)) + 1.0
            assert np.max(np.abs(trap.raw - mean_raw)) <= 1e-12 * scale


def test_affine_weight_collapses_trapezoid_to_midpoint():
    path = _path(level=8, seed=2)
    assert np.array_equal(
        variation(path, F_ID, 2, "trapezoid").raw, variation(path, F_ID, 2).raw
    )
    affine = WeightFunction(
        "affine", 8, lambda k, x: (1.7 * x + 0.3, np.full_like(x, 1.7), np.zeros_like(x))[min(k, 2)]
    )
    psi = variation(path, affine, 2, "trapezoid")
    phi = variation(path, affine, 2)
    assert np.allclose(psi.raw, phi.raw, rtol=1e-12, atol=1e-13)


def test_unweighted_r1_brownian_telescopes_to_path():
    path = _path(level=10, h=0.5, seed=7)
    series = variation(path, None, 1)
    n = 10
    for t in (0.25, 0.5, 1.0):
        recovered = 2.0 ** (n / 2) * series.value_at(t) * 2.0 ** (-n * 0.5)
        assert recovered == pytest.approx(path.value_at(t), rel=1e-12, abs=1e-14)


def test_odd_symmetry():
    path = _path(level=8, seed=11)
    flipped = make_path(8, -path.values, 0.25)
    reflected = WeightFunction("refl", 8, lambda k, x: F_GAUSS.eval(k, -x))
    for rule in RULES:
        for f, g in ((F_GAUSS, reflected), (None, None)):
            a, b = variation(path, f, 2, rule), variation(flipped, g, 2, rule)
            assert np.array_equal(a.raw, -b.raw)


def test_endpoint_left_r1_identity_and_limit():
    # identity: raw left sum with f(x)=x equals (X_t^2 - sum dX^2)/2
    path = _path(level=9, seed=13)
    n = 9
    left = variation(path, F_ID, 1, "left")
    x = path.values[path.grid.zero_index :]
    dx = np.diff(x)
    for t in (0.5, 1.0):
        k = math.floor(t * 2**n)
        expected_raw = 2.0 ** (n * 0.25) * 0.5 * (x[k] ** 2 - np.sum(dx[:k] ** 2))
        assert left.raw[k] == pytest.approx(expected_raw, rel=1e-10)
    # convergence of the statistic at t=1 toward -1/2 as n grows
    errs = {}
    for n in (8, 14):
        sq = []
        for i in range(150):
            p = _path(level=n, h=0.25, seed=1000 + i)
            sq.append((variation(p, F_ID, 1, "left").value_at(1.0) + 0.5) ** 2)
        errs[n] = np.mean(sq)
    assert errs[14] < errs[8]
    assert errs[14] < 0.05


# --- trapezoid - midpoint gap ----------------------------------------------
# The gap's Taylor expansion in the step has only even derivatives of f:
# none for an affine weight, and exactly the order-two term for a square.

def test_taylor_split_affine_vanishes():
    path = _path(level=8, seed=6)
    psi, phi = variation(path, F_ID, 2, "trapezoid"), variation(path, F_ID, 2)
    assert np.array_equal(psi.raw, phi.raw)


def test_taylor_split_square_is_exact_at_order_two():
    # per step (a^2 + b^2)/2 - ((a + b)/2)^2 = f''/8 D^2 = D^2/4
    path = _path(level=8, seed=8)
    gap = variation(path, F_SQ, 2, "trapezoid").raw - variation(path, F_SQ, 2).raw
    d = np.diff(path.values)
    term = np.cumsum(d * d / 4 * step_summands(path, None, 2))
    assert np.max(np.abs(gap[1:] - term)) <= 1e-12 * (np.max(np.abs(term)) + 1.0)


# --- quadrature and limit draws -------------------------------------------

def test_quadrature_constant_weight_is_exact():
    path = _path(level=8, seed=10)
    # the quadrand is f', constant for a linear weight
    assert limit_quadrature(path, F_ID, 1.0) == 1.0
    assert limit_quadrature(path, F_ID, 0.625) == 0.625

    def slope_eval(k, x):  # f(x) = 0.7 x
        return 0.7 * x if k == 0 else np.full_like(x, 0.7 if k == 1 else 0.0)

    slope = WeightFunction("s07", 4, slope_eval)
    assert limit_quadrature(path, slope, 1.0) == pytest.approx(0.7, rel=1e-12)


def _bridge_refine(values, level, h_rng):
    # Brownian midpoint refinement (exact for H = 1/2)
    mid = 0.5 * (values[:-1] + values[1:]) + h_rng.standard_normal(
        len(values) - 1
    ) * math.sqrt(2.0 ** -(level + 2))
    out = np.empty(2 * len(values) - 1)
    out[::2] = values
    out[1::2] = mid
    return out


def test_quadrature_refinement_is_cauchy():
    rng = np.random.default_rng(2024)
    diffs = {1: [], 2: []}
    for _ in range(60):
        path6 = _path(level=6, h=0.5, seed=int(rng.integers(1 << 30)))
        v6 = path6.values
        v8 = _bridge_refine(_bridge_refine(v6, 6, rng), 7, rng)
        v10 = _bridge_refine(_bridge_refine(v8, 8, rng), 9, rng)
        q6 = limit_quadrature(path6, F_SIN, 1.0)
        q8 = limit_quadrature(make_path(8, v8, 0.5), F_SIN, 1.0)
        q10 = limit_quadrature(make_path(10, v10, 0.5), F_SIN, 1.0)
        diffs[1].append(abs(q8 - q6))
        diffs[2].append(abs(q10 - q8))
    assert np.mean(diffs[2]) < np.mean(diffs[1])


def test_limit_conditional_std_zero_weight():
    path = _path(level=8)
    assert limit_conditional_std(path, F_ZERO, 2.0, 1.0) == 0.0


def test_limit_conditional_std_unit_weight_law():
    # f = 1: given any path the limit at t is N(0, sigma^2 floor(2^n t) 2^-n)
    sigma = limit_sigma(2, 0.25, 1e-8)
    path = _path(level=8, seed=20)
    for t, steps in ((1.0, 256), (0.3, 76)):
        expected = sigma.value * math.sqrt(steps / 256)
        assert limit_conditional_std(path, F_ONE, sigma, t) == pytest.approx(expected, rel=1e-14)


def test_limit_conditional_std_rejects_t_outside_the_path():
    path = _path(level=6)
    for t in (4.0, -1.0):
        with pytest.raises(ValueError, match="outside the path range"):
            limit_conditional_std(path, F_GAUSS, 2.0, t)


@pytest.mark.parametrize("weight", [None, "gauss", "sin"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_step_summands_pinned_to_per_step_reference(weight, r):
    path = _path(level=9, h=0.3, seed=17, t_min=-0.5)
    x = path.values
    lo, hi = x[:-1], x[1:]  # the two ends of every step of the whole grid
    power = odd_power(2.0 ** (9 * 0.3) * (hi - lo), r)
    f = None if weight is None else get_weight(weight)
    if f is None:
        expected = dict.fromkeys(RULES, power)
    else:
        expected = {
            "midpoint": f(0.5 * (lo + hi)) * power,
            "trapezoid": 0.5 * (f(lo) + f(hi)) * power,
            "left": f(lo) * power,
            "right": f(hi) * power,
        }
    for rule, summands in expected.items():
        got = step_summands(path, f, r, rule)
        assert len(got) == path.grid.npoints - 1 == 768
        assert np.array_equal(got, summands)


def _old_raw(summands):
    """Reference running sum: longdouble copy, cumsum, cast back."""
    out = np.zeros(len(summands) + 1)
    out[1:] = np.cumsum(summands.astype(np.longdouble)).astype(np.float64)
    return out


@pytest.mark.parametrize("weight", [None, "one", "gauss", "sin"])
@pytest.mark.parametrize("r", [1, 2, 3])
def test_raw_sums_pinned_to_reference_formulas(weight, r):
    path = _path(level=10, seed=5, t_min=-0.25)
    x = path.values[path.grid.zero_index :]
    power = odd_power(2.0 ** (10 * path.h.h) * np.diff(x), r)
    f = None if weight is None else get_weight(weight)
    if f is None:
        expected = dict.fromkeys(RULES, power)
    else:
        expected = {
            "midpoint": f(0.5 * (x[:-1] + x[1:])) * power,
            "trapezoid": 0.5 * (f(x[:-1]) + f(x[1:])) * power,
            "left": f(x[:-1]) * power,
            "right": f(x[1:]) * power,
        }
    clt_scale, endpoint_scale = 2.0**-5, 2.0 ** (10 * path.h.h - 10)
    for rule, summands in expected.items():
        series = variation(path, f, r, rule)
        assert np.array_equal(series.raw, _old_raw(summands))
        assert series.scale == (clt_scale if rule in ("midpoint", "trapezoid") else endpoint_scale)


def test_unknown_rule_is_rejected():
    path = _path(level=4)
    with pytest.raises(ValueError, match="unknown rule"):
        variation(path, F_GAUSS, 2, "simpson")
    with pytest.raises(ValueError, match="unknown rule"):
        variation(path, None, 2, "unweighted")
