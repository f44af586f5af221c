"""Weighted odd-power variation of a sampled path, and its limit objects.

For a level-n path X on the dyadic grid, with increments
D_j = X_{(j+1)2^-n} - X_{j2^-n}, one kernel,
`step_summands(path, f, r, rule)`, returns the per-step summands

    w_j * (2^{nH} D_j)^(2r-1)

over the path's whole grid, on both sides of t = 0.  The node rule says
where the weight f is read on each step: at the midpoint (X_j + X_{j+1})/2
(the symmetric rule of the non-central limit theorem), as the trapezoid
(f(X_j) + f(X_{j+1}))/2, or at the left or right endpoint; f=None is the
unit weight.  `variation(path, f, r, rule)` is the running sum of these
summands over j = 0..floor(2^n t)-1, as a `VariationSeries`; the rule also
fixes its normalization: 2^{-n/2} for midpoint and trapezoid, whose limit
is the mixture law, and 2^{nH-n} for the endpoint rules, whose limits are
deterministic.  The Brownian-time sums of `brownian_time` index the
trapezoid table of the spatial path.

Partial sums are accumulated in extended precision so that differencing
recovers the per-step summands and window increments are one subtraction.
The remaining functions give the Taylor split of the trapezoid-midpoint gap
and the path functionals of the limits (quadrature, and the conditional
std of the mixture law given the path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fbm import FbmPath
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
        return float(self.scale * self.raw[self.index_at(t)])


def odd_power(x: np.ndarray, r: int):
    """x^(2r-1) computed as x * (x*x)^(r-1).

    Exactly sign-symmetric (negating x negates the result bitwise), which
    plain x**(2r-1) is not on every libm.
    """
    return x * (x * x) ** (r - 1)


def _series(level: int, summands: np.ndarray, scale: float) -> VariationSeries:
    raw = np.empty(len(summands) + 1)
    raw[0] = 0.0
    raw[1:] = np.cumsum(summands, dtype=np.longdouble)
    return VariationSeries(level=level, raw=raw, scale=scale)


#: node rules of `variation`: where the weight is read on each step
RULES = ("midpoint", "trapezoid", "left", "right")


def step_summands(
    path: FbmPath, f: WeightFunction | None, r: int, rule: str = "midpoint"
) -> np.ndarray:
    """Unnormalized summands w_j (2^nH D_j)^(2r-1), one per step of the
    path's whole grid, on both sides of t = 0.

    The weight w_j is f((X_j+X_{j+1})/2) for "midpoint",
    (f(X_j)+f(X_{j+1}))/2 for "trapezoid", f(X_j) for "left" and f(X_{j+1})
    for "right"; f=None is the unit weight and evaluates nothing.  Entry i
    belongs to the step that starts at grid index i.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if rule not in RULES:
        raise ValueError(f"unknown rule '{rule}'; known: {', '.join(RULES)}")
    x = path.values
    summands = odd_power(2.0 ** (path.grid.level * path.h.h) * np.diff(x), r)
    if f is None:
        return summands
    if rule == "midpoint":
        w = f(0.5 * (x[:-1] + x[1:]))
    elif rule == "trapezoid":
        fx = f(x)
        w = 0.5 * (fx[:-1] + fx[1:])
    else:
        w = f(x[:-1] if rule == "left" else x[1:])
    return w * summands


def variation(
    path: FbmPath, f: WeightFunction | None, r: int, rule: str = "midpoint"
) -> VariationSeries:
    """Running sum over the steps right of t = 0 of `step_summands`.

    The normalization is 2^(-n/2) for midpoint and trapezoid, 2^(nH-n) for
    the endpoint rules.
    """
    summands = step_summands(path, f, r, rule)[path.grid.zero_index :]
    n = path.grid.level
    scale = 2.0 ** (-n / 2.0) if rule in ("midpoint", "trapezoid") else 2.0 ** (n * path.h.h - n)
    return _series(n, summands, scale)


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
    n = path.grid.level
    x = path.values[path.grid.zero_index :]
    dx = np.diff(x)
    beta = 0.5 * (x[:-1] + x[1:])
    power = step_summands(path, None, r)[path.grid.zero_index :]
    corr = np.zeros_like(dx)
    for k in range(1, kmax + 1):
        corr += f.eval(2 * k, beta) * (dx * dx) ** k / (4.0**k * math.factorial(2 * k))
    a_series = _series(n, corr * power, 2.0 ** (-n / 2.0))
    psi = variation(path, f, r, "trapezoid")
    phi = variation(path, f, r)
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
    """Conditional std of the mixture-law limit at t given the path:
    sigma * sqrt(sum_j f(X_j)^2 2^-n) over the floor(2^n t) steps of [0, t],
    the weight read at each step's left end.  Given the path, the limit is
    exactly normal with this std, so one draw is this std times a standard
    normal."""
    k = math.floor(t * 2**path.grid.level)
    if k < 0 or path.grid.zero_index + k > path.grid.npoints - 1:
        raise ValueError(f"t={t} outside the path range")
    x = path.values[path.grid.zero_index : path.grid.zero_index + k]
    s = getattr(sigma, "value", sigma)
    return float(s) * math.sqrt(float(np.sum(f(x).astype(np.longdouble) ** 2)) * path.grid.spacing)
