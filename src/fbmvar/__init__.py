"""Weighted odd-power variations of fractional Brownian motion.

A simulation library for subdiffusive (H < 1/2) fBm and fBm-in-Brownian-
time, the odd-power variation statistics built on them, the exact
constants entering their limit laws, and a Monte Carlo harness that turns
each limit theorem into a desk-scale pass/fail check.
"""

from .brownian_time import (
    CrossingCounts,
    EmbeddedWalk,
    FbmbtSample,
    crossing_counts,
    identity_residuals,
    sample_fbmbt,
    sample_walk,
)
from .fbm import (
    FbmPath,
    GridSpec,
    SeedSpec,
    SpectralError,
    sample_fbm,
    sample_fgn_circulant,
)
from .gaussian import (
    ConvergenceError,
    HermiteCoeffs,
    HurstParam,
    LimitSigma,
    as_hurst,
    bivariate_odd_moment,
    coarse_increment_overlap,
    double_factorial,
    fbm_covariance,
    fgn_correlation,
    gaussian_moment,
    hermite_coeffs,
    limit_sigma,
    midpoint_increment_overlap,
    midpoint_increment_overlap_closed,
)
from .harness import McReport, ks_one_sample, ks_two_sample
from .acceptance import ACCEPTANCE, DEFAULT_MASTER_SEEDS, run_check
from .variations import (
    RULES,
    VariationSeries,
    limit_conditional_std,
    limit_quadrature,
    step_summands,
    variation,
)
from .version import VERSION as __version__
from .weights import REGISTRY as WEIGHTS
from .weights import WeightFunction, get_weight

__all__ = [name for name in dir() if not name.startswith("_")]
