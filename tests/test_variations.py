"""Variation-statistic tests: hand values, exact identities, limit draws."""

import math

import numpy as np
import pytest

from fbmvar import (
    FbmPath,
    GridSpec,
    SeedSpec,
    WeightFunction,
    as_hurst,
    get_weight,
    identity_residuals,
    limit_conditional_std,
    limit_quadrature,
    limit_sigma,
    sample_fbm,
    sample_fbmbt,
    step_summands,
    variation,
)
from fbmvar.acceptance import check_a5
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
    check_derivatives(REGISTRY[name], xs, tol=1e-6)


def _horner(coeffs, x):
    out = np.zeros_like(x)
    for c in reversed(coeffs):
        out = out * x + c
    return out


# Reference forms of f and f': Horner's scheme on the coefficients and on
# their formal derivative, the sine shifted by k pi/2, and
# (-1)^k H_k(x) exp(-x^2) with the physicists' H_0 = 1, H_1 = 2x.
REFERENCE_WEIGHTS = {
    "zero": (np.zeros_like, np.zeros_like),
    "one": (np.ones_like, np.zeros_like),
    "identity": (lambda x: _horner([0.0, 1.0], x), lambda x: _horner([1.0], x)),
    "square": (lambda x: _horner([0.0, 0.0, 1.0], x), lambda x: _horner([0.0, 2.0], x)),
    "sin": (lambda x: np.sin(x + 0 * np.pi / 2.0), lambda x: np.sin(x + 1 * np.pi / 2.0)),
    "gauss": (
        lambda x: (-1.0) ** 0 * np.ones_like(x) * np.exp(-(x**2)),
        lambda x: (-1.0) ** 1 * (2.0 * x) * np.exp(-(x**2)),
    ),
}
PINNED_XS = np.array([0.0, -0.0, 1e-300, -1e-300, np.pi, -np.pi, 40.0, -40.0, 0.3, -1.7, 2.5])


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_weights_keep_their_bytes(name):
    weight = REGISTRY[name]
    for k, reference in enumerate(REFERENCE_WEIGHTS[name]):
        assert weight.eval(k, PINNED_XS).tobytes() == reference(PINNED_XS).tobytes(), (name, k)


def test_weight_order_guard():
    f = WeightFunction("lin", lambda x: x, np.ones_like)
    assert f.eval(1, 0.5) == 1.0
    for k in (-1, 2):
        with pytest.raises(ValueError):
            f.eval(k, 0.5)


def test_bad_derivatives_are_caught():
    f = WeightFunction("broken", np.sin, lambda x: -np.cos(x))
    with pytest.raises(ValueError):
        check_derivatives(f, np.linspace(-1, 1, 9))


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
    affine = WeightFunction("affine", lambda x: 1.7 * x + 0.3, lambda x: np.full_like(x, 1.7))
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
    reflected = WeightFunction("refl", lambda x: F_GAUSS(-x), lambda x: -F_GAUSS.eval(1, -x))
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
    slope = WeightFunction("s07", lambda x: 0.7 * x, lambda x: np.full_like(x, 0.7))
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
        assert limit_conditional_std(path, F_ONE, sigma.value, t) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("weight", ["one", "gauss", "sin"])
def test_limit_conditional_std_reads_one_time_per_row(weight):
    # each row's std at its own time, or at one time for every row, equals
    # the row read alone, at k = 0, 1, a middle step and the last step
    grid = GridSpec(level=7, t_min=-0.25, t_max=1.0)
    values = sample_fbm(0.3, grid, [SeedSpec(9, i) for i in range(4)])
    batch = FbmPath(grid, as_hurst(0.3), values)
    f, sigma, last = get_weight(weight), limit_sigma(2, 0.3).value, 2**7
    alone = [FbmPath(grid, batch.h, row) for row in values]
    for ks in ((0, 1, last // 2, last), (last, last // 2, 1, 0), (1, 1, last, last)):
        t = np.array(ks) * 2.0**-7
        want = [limit_conditional_std(p, f, sigma, s) for p, s in zip(alone, t)]
        assert limit_conditional_std(batch, f, sigma, t).tobytes() == np.array(want).tobytes()
        for s in t:
            want = [limit_conditional_std(p, f, sigma, s) for p in alone]
            assert limit_conditional_std(batch, f, sigma, s).tobytes() == np.array(want).tobytes()
    # a time outside the path in any one row is refused
    for bad in (last + 1, -1):
        with pytest.raises(ValueError, match="outside the series range"):
            limit_conditional_std(batch, f, sigma, np.array([0, 1, bad, last]) * 2.0**-7)
    for times in ([0.5, 0.5], [0.5] * 5):
        with pytest.raises(ValueError, match="one time, or one per row"):
            limit_conditional_std(batch, f, sigma, times)


def test_limit_conditional_std_rejects_t_outside_the_path():
    path = _path(level=6)
    for t in (4.0, -1.0):
        with pytest.raises(ValueError, match="outside the series range"):
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


def _reference_raw(summands):
    """Reference running sum: a leading 0, then the float64 cumsum."""
    return np.concatenate(([0.0], np.cumsum(summands)))


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
        assert np.array_equal(series.raw, _reference_raw(summands))
        assert series.scale == (clt_scale if rule in ("midpoint", "trapezoid") else endpoint_scale)


def test_unknown_rule_is_rejected():
    path = _path(level=4)
    with pytest.raises(ValueError, match="unknown rule"):
        variation(path, F_GAUSS, 2, "simpson")
    with pytest.raises(ValueError, match="unknown rule"):
        variation(path, None, 2, "unweighted")


@pytest.mark.parametrize("rows", [None, 3])
def test_value_at_reads_the_same_bits_as_scale_times_raw(rows):
    # value_at reads the kept float64 sums `raw` at one step or one per row
    grid = GridSpec(level=7, t_min=-0.25, t_max=1.0)
    seed = SeedSpec(8, 0) if rows is None else [SeedSpec(8, i) for i in range(rows)]
    values = sample_fbm(0.3, grid, seed)
    path = values if rows is None else FbmPath(grid, as_hurst(0.3), values)
    for rule in RULES:
        series = variation(path, F_GAUSS, 2, rule)
        raw = series.raw
        last = raw.shape[-1] - 1
        assert raw.shape[-1] == 2**7 + 1 and np.all(raw[..., 0] == 0.0)
        assert raw.dtype == np.float64 and not raw.flags.writeable
        for k in (0, 1, last // 2, last):
            got = series.value_at(k * 2.0**-7)
            expected = series.scale * raw[..., k]
            if rows is None:
                assert isinstance(got, float) and got == float(expected)
            else:
                assert got.tobytes() == expected.tobytes()
        assert series.values.tobytes() == (series.scale * raw).tobytes()
        with pytest.raises(ValueError, match="outside the series range"):
            series.value_at((last + 1) * 2.0**-7)
        if rows is None:
            continue
        # one time per row: each row reads what it reads alone, at k = 0, 1,
        # a middle step and the last step
        for ks in ((0, 1, last), (1, last // 2, 0), (last, last // 2, 1)):
            t = np.array(ks) * 2.0**-7
            alone = [variation(FbmPath(grid, path.h, row), F_GAUSS, 2, rule).value_at(s)
                     for row, s in zip(values, t)]
            assert series.value_at(t).tobytes() == np.array(alone).tobytes()
        for ks in ((0, last + 1, 1), (-1, 0, 1)):
            with pytest.raises(ValueError, match="outside the series range"):
                series.value_at(np.array(ks) * 2.0**-7)
        with pytest.raises(ValueError, match="one time, or one per row"):
            series.value_at([0.5, 0.5])


# --- float64 summation accuracy --------------------------------------------
# math.fsum is the correctly rounded sum, the reference the float64 sums are
# held to.  The worst-case bound of a running sum is (N-1) u sum|x_j|, with
# u = 2^-53; at 2^16 steps that is 7e-12 sum|x_j|, and the measured error
# sits under 2e-16 sum|x_j|.


@pytest.mark.parametrize("level", [12, 16])
@pytest.mark.parametrize("weight", [None, "gauss"])
def test_running_sums_match_the_correctly_rounded_sum(level, weight):
    path = _path(level=level, h=0.3, seed=26)
    f = None if weight is None else get_weight(weight)
    for r in (1, 2, 3):
        summands = step_summands(path, f, r)
        raw = variation(path, f, r).raw
        assert abs(raw[-1] - math.fsum(summands)) <= 1e-15 * math.fsum(np.abs(summands))


@pytest.mark.parametrize("level", [12, 16])
def test_limit_functionals_match_the_correctly_rounded_sum(level):
    path = _path(level=level, h=0.3, seed=26)
    x = path.values[path.grid.zero_index :]
    expected = 1.7 * math.sqrt(math.fsum(F_GAUSS(x[:-1]) ** 2) * path.grid.spacing)
    got = limit_conditional_std(path, F_GAUSS, 1.7, 1.0)
    assert abs(got - expected) <= 1e-14 * expected
    g = F_GAUSS.eval(1, x)
    steps = 0.5 * (g[:-1] + g[1:]) * path.grid.spacing
    got = limit_quadrature(path, F_GAUSS, 1.0)
    assert abs(got - math.fsum(steps)) <= 1e-14 * math.fsum(np.abs(steps))
    # an off-grid t floors: 0.3 reads the first floor(0.3 2^n) steps
    k = math.floor(0.3 * 2**level)
    got = limit_quadrature(path, F_GAUSS, 0.3)
    assert abs(got - math.fsum(steps[:k])) <= 1e-14 * math.fsum(np.abs(steps[:k]))
    # one time per row: each row's prefix of its own length
    grid = GridSpec(level=level, t_min=0.0, t_max=1.0)
    batch = FbmPath(grid, as_hurst(0.3), sample_fbm(0.3, grid, [SeedSpec(26, i) for i in range(4)]))
    ks = (1, 2**level // 3, 2**level - 1, 2**level)
    t = np.array(ks) * grid.spacing
    stds = limit_conditional_std(batch, F_GAUSS, 1.7, t)
    quads = limit_quadrature(batch, F_GAUSS, t)
    for row, k, std, quad in zip(batch.values, ks, stds, quads):
        sq = F_GAUSS(row[:k]) ** 2 * grid.spacing
        assert abs(std - 1.7 * math.sqrt(math.fsum(sq))) <= 1e-14 * std
        g = F_GAUSS.eval(1, row[: k + 1])
        steps = 0.5 * (g[:-1] + g[1:]) * grid.spacing
        assert abs(quad - math.fsum(steps)) <= 1e-14 * math.fsum(np.abs(steps))
    # the composition form at a negative terminal site S_K: minus the sum
    # over [S_K, 0), a window of a running sum that starts at the lattice's
    # left end, so its bound counts every term left of the origin
    samples = sample_fbmbt(0.3, level, 1.0, [SeedSpec(27, i) for i in range(8)])
    sample = next(s for s in samples if s.walk.s[-1] < 0)
    res = identity_residuals(sample, F_GAUSS, 2)
    table = step_summands(sample.spatial, F_GAUSS, 2, "trapezoid")
    zero, m = sample.spatial.grid.zero_index, res["terminal_site"]
    assert m == sample.walk.s[-1] < 0
    want = -math.fsum(table[zero + m : zero])
    assert abs(res["composed"] - want) <= 1e-14 * math.fsum(np.abs(table[:zero]))


def test_a5_residuals_stay_at_rounding_at_walk_level_20():
    # 2^20 walk steps per sample; the gate's RESIDUAL_TOL is 1e-9
    report = check_a5(levels=(20,), samples=10)
    assert max(report.estimates["max_residual"].values()) <= 1e-12
