"""Smooth weight functions with their exact first derivatives.

The symmetric (midpoint, trapezoid) statistics converge to sigma *
integral f(X) dW and the endpoint statistics to +-mu_{2r}/2 * integral
f'(X) ds, so no limit reads a higher derivative.  Rate measurements must
not be polluted by numerical differentiation: each entry carries f and f'.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class WeightFunction:
    """Weight f with its derivative: eval(0, x) is f(x), eval(1, x) is f'(x)."""

    name: str
    f: Callable = field(repr=False)
    df: Callable = field(repr=False)

    def eval(self, k: int, x):
        if k not in (0, 1):
            raise ValueError(f"weight '{self.name}' provides f and f' (k = 0, 1), got {k}")
        return (self.df if k else self.f)(np.asarray(x, dtype=float))

    def __call__(self, x):
        return self.eval(0, x)


# `+ 0.0` maps -0.0 to +0.0, and sin's f' is a shifted sine, not np.cos:
# both fix the bits every recorded statistic was computed with.
REGISTRY: dict[str, WeightFunction] = {
    "zero": WeightFunction("zero", np.zeros_like, np.zeros_like),
    "one": WeightFunction("one", np.ones_like, np.zeros_like),
    "identity": WeightFunction("identity", lambda x: x + 0.0, np.ones_like),
    "square": WeightFunction("square", lambda x: x * x, lambda x: 2.0 * x + 0.0),
    "sin": WeightFunction("sin", lambda x: np.sin(x + 0.0), lambda x: np.sin(x + np.pi / 2.0)),
    "gauss": WeightFunction("gauss", lambda x: np.exp(-(x**2)), lambda x: -(2.0 * x) * np.exp(-(x**2))),
}


def get_weight(name: str) -> WeightFunction:
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown weight '{name}'; known: {sorted(REGISTRY)}") from None
