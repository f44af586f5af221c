"""Smooth weight functions with exact derivative callbacks.

Rate measurements must not be polluted by numerical differentiation, so
every registry entry carries closed-form derivatives of all orders it
declares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class WeightFunction:
    """Weight f with derivatives: eval(k, x) returns f^(k)(x) for k <= order."""

    name: str
    order: int
    _eval: Callable = field(repr=False)

    def eval(self, k: int, x):
        if not 0 <= k <= self.order:
            raise ValueError(f"weight '{self.name}' provides derivatives 0..{self.order}, got {k}")
        return self._eval(k, np.asarray(x, dtype=float))

    def __call__(self, x):
        return self.eval(0, x)


def _poly_eval(coeffs):
    # coeffs ascending; derivatives by repeated formal differentiation
    def ev(k, x):
        c = list(coeffs)
        for _ in range(k):
            c = [i * ci for i, ci in enumerate(c)][1:] or [0.0]
        out = np.zeros_like(x)
        for ci in reversed(c):
            out = out * x + ci
        return out

    return ev


def _sin_eval(k, x):
    return np.sin(x + k * np.pi / 2.0)


def _hermite_phys(k, x):
    """Physicists' Hermite polynomial by recurrence H_{k+1} = 2x H_k - 2k H_{k-1}."""
    h_prev = np.ones_like(x)
    if k == 0:
        return h_prev
    h = 2.0 * x
    for i in range(1, k):
        h_prev, h = h, 2.0 * x * h - 2.0 * i * h_prev
    return h


def _gauss_eval(k, x):
    # d^k/dx^k exp(-x^2) = (-1)^k H_k(x) exp(-x^2), physicists' H_k
    return (-1.0) ** k * _hermite_phys(k, x) * np.exp(-(x**2))


def _xsq_gauss_eval(k, x):
    # product rule on x^2 * exp(-x^2); only three terms survive
    out = x**2 * _gauss_eval(k, x)
    if k >= 1:
        out = out + 2.0 * k * x * _gauss_eval(k - 1, x)
    if k >= 2:
        out = out + k * (k - 1) * _gauss_eval(k - 2, x)
    return out


_ANALYTIC_ORDER = 64

REGISTRY: dict[str, WeightFunction] = {
    "zero": WeightFunction("zero", _ANALYTIC_ORDER, lambda k, x: np.zeros_like(x)),
    "one": WeightFunction("one", _ANALYTIC_ORDER, lambda k, x: np.ones_like(x) if k == 0 else np.zeros_like(x)),
    "identity": WeightFunction("identity", _ANALYTIC_ORDER, _poly_eval([0.0, 1.0])),
    "square": WeightFunction("square", _ANALYTIC_ORDER, _poly_eval([0.0, 0.0, 1.0])),
    "sin": WeightFunction("sin", _ANALYTIC_ORDER, _sin_eval),
    "gauss": WeightFunction("gauss", _ANALYTIC_ORDER, _gauss_eval),
    "xsq_gauss": WeightFunction("xsq_gauss", _ANALYTIC_ORDER, _xsq_gauss_eval),
}


def get_weight(name: str) -> WeightFunction:
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown weight '{name}'; known: {sorted(REGISTRY)}") from None

