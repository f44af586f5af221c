"""Exact scalar kernels for fractional Gaussian analysis.

The exact integer coefficients of x^(2r-1) in probabilists' Hermite
polynomials (`hermite_coeffs`; the polynomials themselves are never
evaluated, only their orthogonality is used), Gaussian moments, the fBm
covariance

    C_H(s, t) = (|s|^2H + |t|^2H - |t-s|^2H) / 2,

the fractional-Gaussian-noise correlation rho_H(j), bivariate odd moments
from those coefficients, and the limiting standard deviation of
normalized odd-power variations,

    sigma^2 = mu_{4r-2} + 2 * sum_{j>=1} E[(U (V_{1+j} - V_j))^(2r-1)],

with a certified truncation error.  Everything here is a pure function of
its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ConvergenceError(RuntimeError):
    """A certified series truncation could not reach the requested tolerance."""


#: `limit_sigma`'s default bound on its certified tail; the checks and the
#: `sigma` command evaluate sigma at it
SIGMA_TOL = 1e-10

#: most correlation-series terms `limit_sigma` sums before refusing
SIGMA_MAX_TERMS = 5_000_000

#: `limit_sigma` sums its series in blocks of this many terms, so its
#: memory does not grow with the term count
_SIGMA_BLOCK = 1 << 16


@dataclass(frozen=True)
class HurstParam:
    """Hurst parameter, constrained to the open interval (0, 1)."""

    h: float

    def __post_init__(self):
        if not 0.0 < self.h < 1.0:
            raise ValueError(f"Hurst parameter must lie in (0, 1), got {self.h}")

    @property
    def subdiffusive(self) -> bool:
        return self.h < 0.5


def as_hurst(h) -> HurstParam:
    """Coerce a float (or HurstParam) to a validated HurstParam."""
    if isinstance(h, HurstParam):
        return h
    return HurstParam(float(h))


def double_factorial(p: int) -> int:
    """(p-1)!! for even p >= 0 as an exact integer; used for E[N^p]."""
    if p < 0 or p % 2:
        raise ValueError("double_factorial expects an even p >= 0")
    out = 1
    for k in range(1, p, 2):
        out *= k
    return out


def gaussian_moment(p: int) -> float:
    """E[N^p] for N standard normal: (p-1)!! for even p, 0 for odd p.

    Raises OverflowError if the exact integer does not fit a float.
    """
    if p < 0:
        raise ValueError("moment order must be >= 0")
    if p % 2:
        return 0.0
    return float(double_factorial(p))


@dataclass(frozen=True)
class HermiteCoeffs:
    """Coefficients c[u], u = 1..r, of x^(2r-1) = sum_u c[u] H_{2(r-u)+1}(x).

    The coefficients are exact integers; c[1] = 1 for every r.
    """

    r: int
    c: tuple[int, ...]

    @property
    def orders(self) -> tuple[int, ...]:
        """Hermite orders w(u) = 2(r-u)+1 aligned with `c`."""
        return tuple(2 * (self.r - u) + 1 for u in range(1, self.r + 1))


def hermite_coeffs(r: int) -> HermiteCoeffs:
    """Hermite expansion coefficients of x^(2r-1), computed exactly.

    c[u] = (2r-1)! / (2^(u-1) (u-1)! (2(r-u)+1)!) for u = 1..r.  Raises
    OverflowError, before any factorial is formed, when mu_{4r-2} does not
    fit a float (r > 75), since downstream use is floating point; every
    c[u]^2 w! is at most mu_{4r-2}, so the coefficients then fit too.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    # (4r-3)!! = (4r-2)! / (2^(2r-1) (2r-1)!)
    log_mu = math.lgamma(4 * r - 1) - (2 * r - 1) * math.log(2.0) - math.lgamma(2 * r)
    if log_mu > np.log(np.finfo(float).max):
        raise OverflowError(f"mu_{{4r-2}} = (4r-3)!! does not fit a float for r={r}")
    num = math.factorial(2 * r - 1)
    c = []
    for u in range(1, r + 1):
        den = (1 << (u - 1)) * math.factorial(u - 1) * math.factorial(2 * (r - u) + 1)
        cu, rem = divmod(num, den)
        if rem:
            raise ArithmeticError("Hermite coefficient is not an integer; bad formula")
        c.append(cu)
    return HermiteCoeffs(r=r, c=tuple(c))


def fbm_covariance(h, s, t):
    """Two-sided fBm covariance C_H(s,t) = (|s|^2H + |t|^2H - |t-s|^2H)/2."""
    hh = 2.0 * as_hurst(h).h
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    out = 0.5 * (np.abs(s) ** hh + np.abs(t) ** hh - np.abs(t - s) ** hh)
    return out if out.ndim else float(out)


def _second_difference_power(a: float, j: np.ndarray) -> np.ndarray:
    """(j+1)^a - 2 j^a + (j-1)^a for integer j >= 1, evaluated stably.

    The naive form loses all relative accuracy for large j (the result is
    ~ a(a-1) j^(a-2) while the summands are ~ j^a).  For j >= 8 we use the
    even binomial series

        (1+x)^a + (1-x)^a - 2 = 2 * sum_{k>=1} C(a, 2k) x^(2k),  x = 1/j,

    whose terms shrink by a factor <= x^2 <= 1/64, truncated once below
    relative 1e-18.
    """
    j = np.asarray(j, dtype=float)
    out = np.empty_like(j)
    small = j < 8
    if np.any(small):
        js = j[small]
        out[small] = (js + 1.0) ** a - 2.0 * js**a + (js - 1.0) ** a
    big = ~small
    if np.any(big):
        x2 = 1.0 / j[big] ** 2
        coef = a * (a - 1.0) / 2.0  # C(a, 2)
        acc = np.full_like(x2, coef)
        xpow = np.ones_like(x2)
        m = 2
        while m < 40:
            coef *= (a - m) * (a - m - 1.0) / ((m + 1.0) * (m + 2.0))
            m += 2
            xpow *= x2
            acc += coef * xpow
            if abs(coef) * x2.max() ** (m // 2 - 1) < 1e-18 * max(abs(a * (a - 1.0) / 2.0), 1e-300):
                break
        out[big] = 2.0 * acc * x2 * j[big] ** a
    return out


def fgn_correlation(h, j):
    """Correlation rho_H(j) of unit-grid fGn: rho(0)=1, rho(-j)=rho(j),

    rho(j) = ((j+1)^2H - 2 j^2H + (j-1)^2H) / 2 for j >= 1.

    `j` may be an integer or an integer array.
    """
    a = 2.0 * as_hurst(h).h
    j_arr = np.atleast_1d(np.abs(np.asarray(j, dtype=np.int64))).astype(float)
    out = np.ones_like(j_arr)
    pos = j_arr >= 1
    out[pos] = 0.5 * _second_difference_power(a, j_arr[pos])
    if np.ndim(j) == 0:
        return float(out[0])
    return out


def bivariate_odd_moment(r: int, rho: float) -> float:
    """E[U^(2r-1) V^(2r-1)] for standard bivariate normals with corr(U,V)=rho.

    Equals sum_u c[u]^2 w! rho^w with w = 2(r-u)+1, by Hermite orthogonality.
    """
    if abs(rho) > 1.0 + 1e-12:
        raise ValueError("correlation must lie in [-1, 1]")
    rho = min(1.0, max(-1.0, rho))
    coeffs = hermite_coeffs(r)
    return float(
        sum(cu * cu * math.factorial(w) * rho**w for cu, w in zip(coeffs.c, coeffs.orders))
    )


@dataclass(frozen=True)
class LimitSigma:
    """Limiting standard deviation of the normalized odd-power variation.

    `value`**2 carries a certified truncation error of at most `tail_bound`.
    """

    r: int
    h: HurstParam
    value: float
    tail_bound: float
    terms_used: int

    def __post_init__(self):
        if self.value < 0.0:
            raise ValueError("sigma is a standard deviation; must be >= 0")


def limit_sigma(r: int, h, tol: float = SIGMA_TOL) -> LimitSigma:
    """Evaluate the variance-series constant sigma for power 2r-1 at Hurst h < 1/2.

    sigma^2 = mu_{4r-2} + 2 sum_{j>=1} bivariate_odd_moment(r, rho_H(j)).

    The Hermite-rank-1 part of the series telescopes and is summed in closed
    form (it contributes exactly -c_r^2 for h < 1/2); only the rank >= 3
    chaos terms are truncated after J = `terms_used` terms.  Their tail is
    at most

        2 (mu_{4r-2} - c_r^2) sum_{j>J} |rho_H(j)|^3
            <= 2 (mu_{4r-2} - c_r^2) kappa^3 J^(6H-5) / (5-6H) = `tail_bound`,

    with kappa = (64/63) H(1-2H), because for j >= 8

        |rho_H(j)| <= H(1-2H) j^(2H-2) / (1 - j^-2) <= kappa j^(2H-2).

    That bound holds since rho_H(j) = sum_{k>=1} C(2H, 2k) j^(2H-2k) (the
    series `_second_difference_power` sums): for 0 < 2H < 1 the ratio of
    successive coefficients, (2H-2k)(2H-2k-1) / ((2k+1)(2k+2)), lies in
    (0, 1), so every term has the sign of C(2H, 2) = -H(1-2H) and is no
    larger in size than H(1-2H) j^(2H-2) j^(2-2k).  J is the least integer
    >= 8 whose `tail_bound`, as computed in floating point, is <= `tol`; if J
    would exceed SIGMA_MAX_TERMS, ConvergenceError is raised.  The J terms
    are summed in blocks of 2^16, from j = J downwards.  The constant
    vanishes as H -> 1/2, so the whole range H < 1/2 needs few terms.  For
    r = 1 the result is exactly 0.
    """
    if r < 1:
        raise ValueError("r must be a positive integer")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    hp = as_hurst(h)
    if not hp.subdiffusive:
        raise ValueError(f"sigma requires h < 1/2, got h={hp.h}")
    coeffs = hermite_coeffs(r)
    mu = float(double_factorial(4 * r - 2))
    c_lin = float(coeffs.c[-1])  # coefficient of the rho^1 term

    # Exact rank-1 contribution: 2 c_r^2 sum_j rho_j = -c_r^2.
    lin = -c_lin * c_lin
    hi_mass = mu - c_lin * c_lin  # sum over w >= 3 of c_u^2 w!
    if hi_mass == 0.0:  # r == 1
        var = mu + lin
        tail = 0.0
        j_stop = 0
    else:
        a = 5.0 - 6.0 * hp.h
        kappa = 64.0 / 63.0 * hp.h * (1.0 - 2.0 * hp.h)
        scale = 2.0 * hi_mass * kappa**3 / a  # tail after J terms: scale * J^-a
        terms = (scale / tol) ** (1.0 / a)
        if terms > SIGMA_MAX_TERMS:
            raise ConvergenceError(
                f"certified tail <= {tol:g} needs {terms:.4g} terms (cap {SIGMA_MAX_TERMS})"
            )
        j_stop = max(math.ceil(terms), 8)
        tail = scale * j_stop**-a
        while tail > tol:  # rounding in `terms` may leave J one short
            j_stop += 1
            tail = scale * j_stop**-a
        hi_sum = 0.0
        for stop in range(j_stop, 0, -_SIGMA_BLOCK):  # smallest terms first
            rhos = fgn_correlation(hp, np.arange(max(stop - _SIGMA_BLOCK, 0) + 1, stop + 1))
            hi = np.zeros_like(rhos)
            for cu, w in zip(coeffs.c, coeffs.orders):
                if w >= 3:
                    hi += (cu * cu * math.factorial(w)) * rhos**w
            hi_sum += float(np.sum(hi[::-1]))
        var = mu + lin + 2.0 * hi_sum
    if var < -max(tol, tail):
        raise ArithmeticError(f"sigma^2 evaluated to {var}, below -tolerance")
    value = math.sqrt(max(var, 0.0))
    return LimitSigma(r=r, h=hp, value=value, tail_bound=tail, terms_used=j_stop)


def midpoint_increment_overlap(h, n: int, s: float, t: float) -> float:
    """Sum over grid steps in [s, t) of |Cov(increment, midpoint average)|.

    For each j in [floor(2^n s), floor(2^n t)) the summand is
    |E[(X_b - X_a) (X_b + X_a)]| / 2 with a = j 2^-n, b = (j+1) 2^-n,
    evaluated directly from the covariance.  The sum telescopes to
    midpoint_increment_overlap_closed; acceptance check A8 compares the two.
    """
    if not 0.0 <= s < t:
        raise ValueError("need 0 <= s < t")
    if n < 1:
        raise ValueError("n must be a positive integer")
    hp = as_hurst(h)
    lo = math.floor((2**n) * s)
    hi = math.floor((2**n) * t)
    if hi <= lo:
        return 0.0
    step = 2.0**-n
    j = np.arange(lo, hi, dtype=float)
    a = j * step
    b = (j + 1.0) * step
    direct = 0.5 * np.abs(
        fbm_covariance(hp, b, b)
        + fbm_covariance(hp, b, a)
        - fbm_covariance(hp, a, b)
        - fbm_covariance(hp, a, a)
    )
    return float(np.sum(direct))


def midpoint_increment_overlap_closed(h, n: int, s: float, t: float) -> float:
    """Closed form of midpoint_increment_overlap (telescoped sum)."""
    if not 0.0 <= s < t:
        raise ValueError("need 0 <= s < t")
    hp = as_hurst(h)
    lo = math.floor((2**n) * s)
    hi = math.floor((2**n) * t)
    return 0.5 * 2.0 ** (-2 * n * hp.h) * (hi ** (2 * hp.h) - lo ** (2 * hp.h))


def _coarse_levels(n: int, m: int) -> None:
    """Refuse the levels of `coarse_increment_overlap` unless n > m >= 2."""
    if m < 2 or n <= m:
        raise ValueError("need n > m >= 2")


def coarse_increment_overlap(h, n: int, m: int) -> float:
    """Sum over the 2^n level-n steps j of [0, 1] of |Cov(fine increment,
    coarse midpoint avg)|.

    The coarse index is k(j) = floor(j 2^(m-n)), i.e. the largest level-m
    grid point at or below j 2^-n.  No closed form exists; the value is used
    for empirical boundedness checks against 2^(m(1-2H)).
    """
    _coarse_levels(n, m)
    hp = as_hurst(h)
    j = np.arange(2**n, dtype=np.int64)
    k = j >> (n - m)
    a = j * 2.0**-n
    b = (j + 1) * 2.0**-n
    u = k * 2.0**-m
    v = (k + 1) * 2.0**-m
    ip = 0.5 * (
        fbm_covariance(hp, b, u)
        + fbm_covariance(hp, b, v)
        - fbm_covariance(hp, a, u)
        - fbm_covariance(hp, a, v)
    )
    return float(np.sum(np.abs(ip)))
