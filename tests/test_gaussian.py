"""Exact-kernel tests: Hermite algebra, moments, correlations, sigma."""

import math

import numpy as np
import pytest

from fbmvar import (
    ConvergenceError,
    bivariate_odd_moment,
    coarse_increment_overlap,
    double_factorial,
    fbm_covariance,
    fgn_correlation,
    gaussian_moment,
    hermite_coeffs,
    hermite_eval,
    limit_sigma,
    midpoint_increment_overlap,
    midpoint_increment_overlap_closed,
    sample_fgn_circulant,
    SeedSpec,
)


def test_hermite_eval_examples():
    assert hermite_eval(0, 7.3) == 1.0
    assert hermite_eval(2, 0.0) == -1.0
    assert hermite_eval(3, 2.0) == 2.0  # 8 - 6


def test_hermite_eval_vectorized():
    x = np.linspace(-3, 3, 11)
    out = hermite_eval(4, x)
    expected = x**4 - 6 * x**2 + 3
    assert np.allclose(out, expected, rtol=1e-12)


def test_hermite_eval_rejects_negative_order():
    with pytest.raises(ValueError):
        hermite_eval(-1, 0.0)


def _hermite_poly_int(p):
    """Exact integer coefficient list (ascending) of H_p via the recurrence."""
    a, b = [1], [0, 1]
    if p == 0:
        return a
    for k in range(1, p):
        nxt = [0] + b  # x * H_k
        for i, ai in enumerate(a):
            nxt[i] -= k * ai
        a, b = b, nxt + [0] * (len(a) + 2 - len(nxt))
        b = b[: k + 2]
    return b


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_hermite_coeffs_against_polynomial_expansion(r):
    # oracle: expand sum_u c_u H_{2(r-u)+1} in exact integer arithmetic and
    # compare with the monomial x^(2r-1)
    hc = hermite_coeffs(r)
    total = [0] * (2 * r)
    for cu, w in zip(hc.c, hc.orders):
        poly = _hermite_poly_int(w)
        for i, ai in enumerate(poly):
            total[i] += cu * ai
    expected = [0] * (2 * r)
    expected[2 * r - 1] = 1
    assert total == expected


def test_hermite_coeffs_examples():
    assert hermite_coeffs(1).c == (1,)
    assert hermite_coeffs(2).c == (1, 3)
    assert hermite_coeffs(3).c == (1, 10, 15)


def test_hermite_coeffs_leading_is_one():
    for r in range(1, 12):
        assert hermite_coeffs(r).c[0] == 1


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_hermite_reconstruction(r):
    rng = np.random.default_rng(7)
    hc = hermite_coeffs(r)
    x = rng.uniform(-5, 5, size=100)
    err = np.abs(hc.reconstruct(x) - x ** (2 * r - 1))
    assert np.all(err <= 1e-9 * (1 + np.abs(x) ** (2 * r - 1)))


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_moment_identity_exact_integers(r):
    hc = hermite_coeffs(r)
    total = sum(c * c * math.factorial(w) for c, w in zip(hc.c, hc.orders))
    assert total == double_factorial(4 * r - 2)


def test_gaussian_moment_values():
    assert gaussian_moment(2) == 1.0
    assert gaussian_moment(3) == 0.0
    assert gaussian_moment(6) == 15.0
    assert gaussian_moment(0) == 1.0


def test_gaussian_moment_rejects_negative():
    with pytest.raises(ValueError):
        gaussian_moment(-2)


def test_factorial_overflow_reported():
    with pytest.raises(OverflowError):
        gaussian_moment(400)
    with pytest.raises(OverflowError):
        hermite_coeffs(200)
    # mu_{4r-2} = (4r-3)!! fits a float up to r = 75; r = 10**9 would need a
    # factorial of about 1.7e10 digits, so it is refused from a bound
    assert math.isfinite(float(double_factorial(4 * 75 - 2)))
    assert len(hermite_coeffs(75).c) == 75
    for r in (76, 10**9):
        with pytest.raises(OverflowError, match="does not fit a float"):
            hermite_coeffs(r)
        with pytest.raises(OverflowError, match="does not fit a float"):
            limit_sigma(r, 0.3)


def test_fbm_covariance_examples():
    for h in (0.1, 0.3, 0.5, 0.8):
        for t in (-1.5, 0.25, 2.0):
            assert fbm_covariance(h, t, t) == pytest.approx(abs(t) ** (2 * h), rel=1e-12)
            assert fbm_covariance(h, 0.0, t) == 0.0
    assert fbm_covariance(0.25, 1.0, 2.0) == pytest.approx(0.5 * math.sqrt(2), rel=1e-12)


def test_fbm_covariance_symmetric():
    rng = np.random.default_rng(3)
    for _ in range(50):
        h = rng.uniform(0.05, 0.95)
        s, t = rng.uniform(-2, 2, size=2)
        assert fbm_covariance(h, s, t) == fbm_covariance(h, t, s)


def test_fgn_correlation_examples():
    assert fgn_correlation(0.3, 0) == 1.0
    assert fgn_correlation(0.5, 3) == 0.0
    assert fgn_correlation(0.25, 1) == pytest.approx(0.5 * (math.sqrt(2) - 2), rel=1e-12)
    assert fgn_correlation(0.3, -5) == fgn_correlation(0.3, 5)


def test_fgn_correlation_telescoping():
    rng = np.random.default_rng(11)
    for _ in range(20):
        h = rng.uniform(0.05, 0.95)
        n = int(rng.integers(10, 10_001))
        lhs = math.fsum(fgn_correlation(h, np.arange(1, n + 1)))
        rhs = 0.5 * ((n + 1) ** (2 * h) - n ** (2 * h) - 1)
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(rhs))


def test_fgn_correlation_sharp_bound():
    # the lemma behind limit_sigma's tail: |rho_H(j)| <= H(1-2H) j^(2H-2) / (1 - j^-2)
    j = np.arange(2, 100_001, dtype=float)
    for h in (0.001, *np.linspace(0.01, 0.49, 49), 0.499, 0.4999):
        bound = h * (1.0 - 2.0 * h) * j ** (2.0 * h - 2.0) / (1.0 - j**-2)
        assert np.all(np.abs(fgn_correlation(h, j.astype(np.int64))) <= bound * (1.0 + 1e-12))


def test_fgn_correlation_matches_sampled_noise():
    # cross-check rho(1) against the lag-1 sample correlation of generated fGn
    h = 0.25
    count = 1 << 12
    fgn = sample_fgn_circulant(h, count, 1.0, SeedSpec(21, 0), size=50)
    prod = fgn[:, :-1] * fgn[:, 1:]
    est = prod.mean()
    se = prod.std(ddof=1) / math.sqrt(prod.size)
    assert abs(est - fgn_correlation(h, 1)) < 4 * se


def test_bivariate_odd_moment_trivial_and_extremes():
    for r in (1, 2, 3):
        assert bivariate_odd_moment(r, 0.0) == 0.0
        mu = gaussian_moment(4 * r - 2)
        assert bivariate_odd_moment(r, 1.0) == pytest.approx(mu, rel=1e-12)
        assert bivariate_odd_moment(r, -1.0) == pytest.approx(-mu, rel=1e-12)


def test_bivariate_odd_moment_odd_in_rho():
    rng = np.random.default_rng(5)
    for _ in range(30):
        r = int(rng.integers(1, 5))
        rho = rng.uniform(-1, 1)
        assert bivariate_odd_moment(r, -rho) == pytest.approx(
            -bivariate_odd_moment(r, rho), abs=1e-14
        )


def test_bivariate_odd_moment_closed_form_r2():
    rho = 0.5 * (math.sqrt(2) - 2)
    assert bivariate_odd_moment(2, rho) == pytest.approx(6 * rho**3 + 9 * rho, rel=1e-12)
    assert bivariate_odd_moment(2, rho) == pytest.approx(-2.786796564403574, rel=1e-9)


def test_bivariate_odd_moment_monte_carlo_oracle():
    rho = -0.35
    rng = np.random.default_rng(1234)
    n = 1_000_000
    u = rng.standard_normal(n)
    v = rho * u + math.sqrt(1 - rho**2) * rng.standard_normal(n)
    prod = (u * v) ** 3
    se = prod.std(ddof=1) / math.sqrt(n)
    assert abs(prod.mean() - bivariate_odd_moment(2, rho)) < 3 * se


def test_sigma_r1_is_exactly_zero():
    for h in (0.05, 0.1, 0.25, 0.4, 0.49):
        s = limit_sigma(1, h, 1e-10)
        assert s.value == 0.0
        assert s.tail_bound == 0.0


def test_sigma_r2_quarter():
    s = limit_sigma(2, 0.25, 1e-8)
    assert s.tail_bound <= 1e-8
    assert s.value == pytest.approx(2.3868122329548074, abs=1e-6)


def test_sigma_invariants():
    for r in (2, 3):
        for h in (0.1, 0.3, 0.45):
            s = limit_sigma(r, h, 1e-8)
            assert s.value >= 0.0
            assert s.value**2 >= -s.tail_bound


def test_sigma_limit_at_half():
    # as H -> 1/2 every rho_H(j) -> 0, so sigma^2 -> mu_{4r-2} - c_r^2
    assert limit_sigma(2, 0.4999).value ** 2 == pytest.approx(15 - 3**2, abs=1e-6)
    assert limit_sigma(3, 0.4999).value ** 2 == pytest.approx(945 - 15**2, abs=1e-6)


def test_sigma_strict_mode_rejects_large_h():
    with pytest.raises(ValueError):
        limit_sigma(2, 0.6, 1e-8)
    with pytest.raises(ValueError):
        limit_sigma(2, 0.5)
    # just below 1/2 the tail constant H(1-2H) is small, so few terms certify it
    s = limit_sigma(3, 0.499, 1e-10)
    assert s.tail_bound <= 1e-10
    # a tolerance this far below rounding needs about 3.2e12 terms
    with pytest.raises(ConvergenceError, match="cap 5000000"):
        limit_sigma(3, 0.45, 1e-30)


def test_overlap_sum_examples():
    # window inside one grid cell: empty sum
    assert midpoint_increment_overlap(0.3, 2, 0.26, 0.49) == 0.0
    assert midpoint_increment_overlap(0.25, 1, 0.0, 1.0) == pytest.approx(0.5, rel=1e-12)
    assert midpoint_increment_overlap(0.5, 4, 0.0, 1.0) == pytest.approx(0.5, rel=1e-12)


def test_overlap_sum_identity_random():
    rng = np.random.default_rng(17)
    for _ in range(100):
        h = rng.uniform(0.05, 0.95)
        n = int(rng.integers(1, 9))
        t = rng.uniform(2.0**-n, 3.0)
        s = rng.uniform(0.0, t)
        direct = midpoint_increment_overlap(h, n, s, t)
        closed = midpoint_increment_overlap_closed(h, n, s, t)
        assert abs(direct - closed) <= 1e-12 * max(1.0, abs(closed))


def test_overlap_sum_upper_bound_form():
    # for H <= 1/2 the telescoped value is dominated by the window-length form
    rng = np.random.default_rng(19)
    for _ in range(50):
        h = rng.uniform(0.05, 0.5)
        n = int(rng.integers(1, 8))
        t = rng.uniform(2.0**-n, 3.0)
        s = rng.uniform(0.0, t)
        lo = math.floor(2**n * s)
        hi = math.floor(2**n * t)
        if hi <= lo:
            continue
        direct = midpoint_increment_overlap(h, n, s, t)
        window_form = 0.5 * 2.0 ** (-2 * n * h) * (hi - lo) ** (2 * h)
        assert direct <= window_form * (1 + 1e-12)


def test_overlap_sum_rejects_bad_window():
    with pytest.raises(ValueError):
        midpoint_increment_overlap(0.3, 4, 0.5, 0.5)
    with pytest.raises(ValueError):
        midpoint_increment_overlap(0.3, 4, 0.7, 0.5)


def test_coarse_overlap_trivial_and_band():
    assert coarse_increment_overlap(0.25, 10, 4, 2.0**-11) == 0.0
    v = coarse_increment_overlap(0.25, 10, 4, 1.0)
    assert v > 0.0
    # empirical boundedness: ratio to 2^(m(1-2H)) stays in a factor-4 band
    ratios = [
        coarse_increment_overlap(0.3, 12, m, 1.0) / 2.0 ** (m * (1.0 - 0.6))
        for m in (3, 4, 5, 6)
    ]
    assert max(ratios) / min(ratios) < 4.0


def test_coarse_overlap_rejects_bad_levels():
    with pytest.raises(ValueError):
        coarse_increment_overlap(0.25, 4, 4, 1.0)
    with pytest.raises(ValueError):
        coarse_increment_overlap(0.25, 4, 1, 1.0)
