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

Every function reads the path's grid along the last axis of its values,
so the same code evaluates one path or a batch of paths on one grid
(`FbmPath` with values of shape (rows, npoints)), row by row: a batch row
gives the same bits as the path alone.  Partial sums are float64 running
sums, one sequential add per step, so window increments are one
subtraction; their rounding error is at most (N-1) u sum|x_j| (u = 2^-53),
far below any Monte Carlo error, and their bits do not depend on the
platform's long double.  A series keeps the sums as one read-only array
`raw`, and `value_at` reads it directly: at floor(2^n t), so an off-grid
t floors, and, for a batch, at one time or at one time per row.
The remaining functions give the path functionals of the limits: the
quadrature of f' that the endpoint rules converge to, and the conditional
std of the mixture law given the path.  Each is the same kind of running
sum, of its own per-step terms, read by `value_at`.  The trapezoid-midpoint
gap has no function of its own; it is the difference of the two rules'
series, whose decay check A4 gates.
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

    `raw` holds the unnormalized float64 running sums (raw[..., 0] = 0)
    along its last axis, one series per row for a batch, read-only;
    `scale` is the statistic's normalization, so the series value is
    scale * raw.  Window algebra (exact identities, moment scaling) lives
    on `raw`.
    """

    level: int
    raw: np.ndarray
    scale: float

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.raw.shape[-1]) * 2.0**-self.level

    @property
    def values(self) -> np.ndarray:
        return self.scale * self.raw

    def value_at(self, t):
        """Right-continuous step evaluation: the sum over j < floor(2^n t),
        scale * raw[..., k]; a float for one series; for a batch, one value
        per row, at one time or at one time per row."""
        k = _steps(t, self.level, self.raw.shape[:-1], self.raw.shape[-1] - 1,
                   "series")
        rows = np.arange(len(k)) if np.ndim(k) else Ellipsis
        value = self.scale * self.raw[rows, k]
        return float(value) if value.ndim == 0 else value


def _steps(t, level: int, rows: tuple, last: int, what: str):
    """floor(2^level t) for one time, or an array of them for one time per
    row of a batch of leading shape `rows`; refused outside 0..last."""
    if np.ndim(t) and rows != (len(t),):
        raise ValueError(f"{len(t)} times for a {what} of {rows} rows: give one time, or one per row")
    k = [math.floor(s * 2**level) for s in np.ravel(t).tolist()]  # floats: numpy scalars are slow
    if not all(0 <= i <= last for i in k):
        raise ValueError(f"t={t} outside the {what} range")
    return np.array(k) if np.ndim(t) else k[0]


def _odd_order(r: int) -> None:
    """Refuse r < 1: the power 2r-1 of an odd-power variation is positive."""
    if r < 1:
        raise ValueError("r must be >= 1")


def odd_power(x: np.ndarray, r: int):
    """x^(2r-1) computed as x * (x*x)^(r-1).

    Exactly sign-symmetric (negating x negates the result bitwise), which
    plain x**(2r-1) is not on every libm.
    """
    return x * (x * x) ** (r - 1)


def _series(level: int, summands: np.ndarray, scale: float) -> VariationSeries:
    # one sequential float64 cumsum straight into the sums after the
    # leading 0, so a batch row gets the bits of the path alone
    raw = np.empty(summands.shape[:-1] + (summands.shape[-1] + 1,))
    raw[..., 0] = 0.0
    np.cumsum(summands, axis=-1, out=raw[..., 1:])
    raw.flags.writeable = False
    return VariationSeries(level, raw, scale)


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
    (of the last axis, for a batch) belongs to the step that starts at grid
    index i.
    """
    _odd_order(r)
    if rule not in RULES:
        raise ValueError(f"unknown rule '{rule}'; known: {', '.join(RULES)}")
    x = path.values
    # x[1:] - x[:-1] is what np.diff computes, without its call overhead
    summands = odd_power(2.0 ** (path.grid.level * path.h.h) * (x[..., 1:] - x[..., :-1]), r)
    if f is None:
        return summands
    if rule == "midpoint":
        w = f(0.5 * (x[..., :-1] + x[..., 1:]))
    elif rule == "trapezoid":
        fx = f(x)
        w = 0.5 * (fx[..., :-1] + fx[..., 1:])
    else:
        w = f(x[..., :-1] if rule == "left" else x[..., 1:])
    return w * summands


def variation(
    path: FbmPath, f: WeightFunction | None, r: int, rule: str = "midpoint"
) -> VariationSeries:
    """Running sum over the steps right of t = 0 of `step_summands`.

    The normalization is 2^(-n/2) for midpoint and trapezoid, 2^(nH-n) for
    the endpoint rules.
    """
    summands = step_summands(path, f, r, rule)[..., path.grid.zero_index :]
    n = path.grid.level
    scale = 2.0 ** (-n / 2.0) if rule in ("midpoint", "trapezoid") else 2.0 ** (n * path.h.h - n)
    return _series(n, summands, scale)


def limit_quadrature(path: FbmPath, f: WeightFunction, t):
    """Trapezoid-rule quadrature of f'(X_s) over the floor(2^n t) steps of
    [0, t]: the running sum of (f'(X_j) + f'(X_{j+1}))/2 2^-n read by
    `value_at`, so an off-grid t floors.  A float; or, for a batch, one
    value per row, at one time or at one time per row."""
    g = f.eval(1, path.values[..., path.grid.zero_index :])
    return _series(path.grid.level, 0.5 * (g[..., :-1] + g[..., 1:]), path.grid.spacing).value_at(t)


def limit_conditional_std(path: FbmPath, f: WeightFunction, sigma, t):
    """Conditional std of the mixture-law limit at t given the path:
    sigma * sqrt(sum_j f(X_j)^2 2^-n) over the floor(2^n t) steps of [0, t],
    the weight read at each step's left end; the sum is a running sum read
    by `value_at`, so an off-grid t floors.  Given the path, the limit is
    exactly normal with this std, so one draw is this std times a standard
    normal.  A float; or, for a batch, one std per row, at one time or at
    one time per row."""
    # f on whole rows, then the last column dropped: f is slower on a strided view
    sq = f(path.values[..., path.grid.zero_index :]) ** 2
    std = float(getattr(sigma, "value", sigma)) * np.sqrt(
        _series(path.grid.level, sq[..., :-1], path.grid.spacing).value_at(t))
    return float(std) if std.ndim == 0 else std
