"""Test helpers: hand-built paths and a finite-difference derivative check."""

import numpy as np

from fbmvar import FbmPath, GridSpec, WeightFunction, as_hurst


def make_path(level: int, values, h, t_min: float = 0.0) -> FbmPath:
    """Wrap explicit grid values (e.g. hand-built test paths) as an FbmPath."""
    values = np.asarray(values, dtype=float)
    t_max = t_min + (len(values) - 1) * 2.0**-level
    grid = GridSpec(level=level, t_min=t_min, t_max=t_max)
    return FbmPath(grid=grid, h=as_hurst(h), values=values)


def check_derivatives(f: WeightFunction, xs, tol: float = 1e-6) -> float:
    """Validate f' (eval(1, .)) against a central difference of f.

    Returns the worst relative discrepancy; raises if it exceeds `tol`.
    """
    xs = np.asarray(xs, dtype=float)
    step = (np.finfo(float).eps ** (1.0 / 3.0)) * (1.0 + np.abs(xs))
    fd = (f.eval(0, xs + step) - f.eval(0, xs - step)) / (2.0 * step)
    exact = f.eval(1, xs)
    worst = float(np.max(np.abs(fd - exact) / (1.0 + np.abs(exact))))
    if worst > tol:
        raise ValueError(f"derivative of '{f.name}' disagrees with finite differences: {worst:.2e}")
    return worst
