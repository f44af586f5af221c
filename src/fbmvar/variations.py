"""Weighted odd-power variation statistics as partial-sum processes.

For a level-n path X on the dyadic grid, with increments
D_j = X_{(j+1)2^-n} - X_{j2^-n} and midpoints b_j = (X_j + X_{j+1})/2,
the statistics below are running sums over j = 0..floor(2^n t)-1 of

    weight_j * (2^{nH} D_j)^(2r-1)

under four weight conventions (midpoint f(b_j), trapezoid
(f(X_j)+f(X_{j+1}))/2, left/right endpoint, constant 1) and two
normalizations (2^{-n/2} for the CLT-scale statistics, 2^{nH-n} for the
endpoint statistics with deterministic limits).

Partial sums are accumulated in extended precision so that differencing
recovers the per-step summands and window increments are one subtraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fbm import FbmPath, SeedSpec
from .weights import WeightFunction


@dataclass(frozen=True)
class VariationSeries:
    """Partial-sum process on the dyadic time grid.

    `raw` holds the unnormalized running sums (raw[0] = 0); `scale` is the
    statistic's normalization, so the series value is scale * raw.  Window
    algebra (exact identities, moment scaling) lives on `raw`.
    """

    level: int
    raw: np.ndarray
    scale: float

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.raw)) * 2.0**-self.level

    @property
    def values(self) -> np.ndarray:
        return self.scale * self.raw

    def index_at(self, t: float) -> int:
        k = math.floor(t * 2**self.level)
        if not 0 <= k < len(self.raw):
            raise ValueError(f"t={t} outside the series range")
        return k

    def value_at(self, t: float) -> float:
        """Right-continuous step evaluation: the sum over j < floor(2^n t)."""
        return float(self.values[self.index_at(t)])

    def summands(self) -> np.ndarray:
        return self.scale * np.diff(self.raw)


def _running_sum(summands: np.ndarray) -> np.ndarray:
    out = np.empty(len(summands) + 1)
    out[0] = 0.0
    out[1:] = np.cumsum(summands, dtype=np.longdouble)
    return out


def odd_power(x: np.ndarray, r: int):
    """x^(2r-1) computed as x * (x*x)^(r-1).

    Exactly sign-symmetric (negating x negates the result bitwise), which
    plain x**(2r-1) is not on every libm.
    """
    return x * (x * x) ** (r - 1)


def _series(level: int, summands: np.ndarray, scale: float) -> VariationSeries:
    return VariationSeries(level=level, raw=_running_sum(summands), scale=scale)


def _positive_steps(path: FbmPath):
    """(x, dx, xi, n): values X_0..X_{t_max}, raw and normalized increments."""
    n = path.grid.level
    x = path.values[path.grid.zero_index :]
    if len(x) < 2:
        raise ValueError("path must cover at least one step right of t=0")
    dx = np.diff(x)
    xi = 2.0 ** (n * path.h.h) * dx
    return x, dx, xi, n


def midpoint_variation(path: FbmPath, f: WeightFunction, r: int) -> VariationSeries:
    """Sum of f((X_j+X_{j+1})/2) (2^nH D_j)^(2r-1), normalized by 2^(-n/2)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    x, _, xi, n = _positive_steps(path)
    beta = 0.5 * (x[:-1] + x[1:])
    return _series(n, f(beta) * odd_power(xi, r), 2.0 ** (-n / 2.0))


def trapezoidal_variation(path: FbmPath, f: WeightFunction, r: int) -> VariationSeries:
    """As midpoint_variation with weight (f(X_j)+f(X_{j+1}))/2."""
    if r < 1:
        raise ValueError("r must be >= 1")
    x, _, xi, n = _positive_steps(path)
    fx = f(x)
    w = 0.5 * (fx[:-1] + fx[1:])
    return _series(n, w * odd_power(xi, r), 2.0 ** (-n / 2.0))


def endpoint_variation(path: FbmPath, f: WeightFunction, r: int, side: str) -> VariationSeries:
    """Left/right endpoint weights with the 2^(nH-n) normalization."""
    if r < 1:
        raise ValueError("r must be >= 1")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    x, _, xi, n = _positive_steps(path)
    nodes = x[:-1] if side == "left" else x[1:]
    return _series(n, f(nodes) * odd_power(xi, r), 2.0 ** (n * path.h.h - n))


def unweighted_variation(path: FbmPath, r: int) -> VariationSeries:
    """Sum of (2^nH D_j)^(2r-1), normalized by 2^(-n/2)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    _, _, xi, n = _positive_steps(path)
    return _series(n, odd_power(xi, r), 2.0 ** (-n / 2.0))


def coarse_weight_variation(path: FbmPath, f: WeightFunction, r: int, m: int) -> VariationSeries:
    """Midpoint weight frozen on the coarser level-m grid.

    The j-th summand uses f evaluated at the level-m midpoint of the coarse
    interval containing j 2^-n (k(j) = floor(j 2^(m-n))); a diagnostic for
    the frozen-weight decomposition.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    x, _, xi, n = _positive_steps(path)
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= path level {n}, got m={m}")
    stride = 1 << (n - m)
    nsteps = len(xi)
    if nsteps % stride:
        raise ValueError("path must end on a level-m grid point")
    j = np.arange(nsteps)
    k = j >> (n - m)
    beta_m = 0.5 * (x[k * stride] + x[(k + 1) * stride])
    return _series(n, f(beta_m) * odd_power(xi, r), 2.0 ** (-n / 2.0))


def taylor_remainder_split(
    path: FbmPath, f: WeightFunction, r: int, n_order: int
) -> tuple[VariationSeries, VariationSeries]:
    """Split of (trapezoid - midpoint) into the even-derivative Taylor sum
    and its residual.

    The first component accumulates, per step,

        sum_{k=1}^{floor(N/2)} f^(2k)(b_j) D_j^(2k) / (4^k (2k)!)
            * (2^nH D_j)^(2r-1),

    with the 2^(-n/2) normalization; the second is the exact residual, so
    the two always add up to trapezoidal - midpoint.
    """
    if n_order < 1:
        raise ValueError("Taylor order must be >= 1")
    kmax = n_order // 2
    if f.order < 2 * kmax:
        raise ValueError(f"weight '{f.name}' lacks derivatives up to {2 * kmax}")
    x, dx, xi, n = _positive_steps(path)
    beta = 0.5 * (x[:-1] + x[1:])
    power = odd_power(xi, r)
    corr = np.zeros_like(dx)
    for k in range(1, kmax + 1):
        corr += f.eval(2 * k, beta) * (dx * dx) ** k / (4.0**k * math.factorial(2 * k))
    a_series = _series(n, corr * power, 2.0 ** (-n / 2.0))
    psi = trapezoidal_variation(path, f, r)
    phi = midpoint_variation(path, f, r)
    b_raw = psi.raw - phi.raw - a_series.raw
    b_series = VariationSeries(level=n, raw=b_raw, scale=a_series.scale)
    return a_series, b_series


def limit_quadrature(path: FbmPath, f: WeightFunction, which: str, t: float) -> float:
    """Trapezoid-rule quadrature of f(X_s) or f'(X_s) over [0, t]."""
    if which not in ("f", "f_prime"):
        raise ValueError("which must be 'f' or 'f_prime'")
    n = path.grid.level
    k = path.grid.index_of(t) - path.grid.zero_index
    if k < 0:
        raise ValueError("t must be >= 0")
    x = path.values[path.grid.zero_index : path.grid.zero_index + k + 1]
    g = f.eval(0 if which == "f" else 1, x)
    steps = 0.5 * (g[:-1] + g[1:])
    return float(np.sum(steps.astype(np.longdouble)) * np.longdouble(2.0**-n))


def limit_conditional_std(path: FbmPath, f: WeightFunction, sigma, t: float) -> float:
    """Conditional std of the simulated limit given the path:
    sigma * sqrt(sum_j f(X_j)^2 2^-n)."""
    s = getattr(sigma, "value", sigma)
    n = path.grid.level
    k = math.floor(t * 2**n)
    x = path.values[path.grid.zero_index : path.grid.zero_index + k]
    return float(s) * math.sqrt(float(np.sum(f(x).astype(np.longdouble) ** 2)) * 2.0**-n)


def simulate_limit(path: FbmPath, f: WeightFunction, sigma, t: float, seed: SeedSpec) -> float:
    """One draw from the limiting mixture law, conditionally on the path:
    sigma * sum_j f(X_j) dW_j with fresh independent dW_j ~ N(0, 2^-n)."""
    s = getattr(sigma, "value", sigma)
    n = path.grid.level
    k = math.floor(t * 2**n)
    if k < 0 or path.grid.zero_index + k > path.grid.npoints - 1:
        raise ValueError(f"t={t} outside the path range")
    x = path.values[path.grid.zero_index : path.grid.zero_index + k]
    dw = 2.0 ** (-n / 2.0) * seed.rng().standard_normal(k)
    return float(s) * float(np.sum((f(x) * dw).astype(np.longdouble)))
