"""Test helpers: hand-built paths and a finite-difference derivative check."""

import numpy as np

from fbmvar import FbmPath, GridSpec, WeightFunction, as_hurst


def make_path(level: int, values, h, t_min: float = 0.0) -> FbmPath:
    """Wrap explicit grid values (e.g. hand-built test paths) as an FbmPath."""
    values = np.asarray(values, dtype=float)
    t_max = t_min + (len(values) - 1) * 2.0**-level
    grid = GridSpec(level=level, t_min=t_min, t_max=t_max)
    return FbmPath(grid=grid, h=as_hurst(h), values=values)


def check_derivatives(f: WeightFunction, xs, k_max: int, tol: float = 1e-6) -> float:
    """Validate eval(k+1, .) against a central difference of eval(k, .).

    Returns the worst relative discrepancy; raises if it exceeds `tol`.
    """
    xs = np.asarray(xs, dtype=float)
    worst = 0.0
    for k in range(k_max):
        step = (np.finfo(float).eps ** (1.0 / 3.0)) * (1.0 + np.abs(xs))
        fd = (f.eval(k, xs + step) - f.eval(k, xs - step)) / (2.0 * step)
        exact = f.eval(k + 1, xs)
        err = np.max(np.abs(fd - exact) / (1.0 + np.abs(exact)))
        worst = max(worst, float(err))
    if worst > tol:
        raise ValueError(f"derivatives of '{f.name}' disagree with finite differences: {worst:.2e}")
    return worst
