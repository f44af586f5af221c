"""Property tests of the exact identities behind A5 and A8, of the
certified tail of `limit_sigma`, and of the batched fBm sampler, whose rows
are the single-seed paths bit for bit.

Examples are derandomized and nothing is stored between runs, so the
suite draws the same inputs every time.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmvar import (
    WEIGHTS,
    GridSpec,
    SeedSpec,
    get_weight,
    identity_residuals,
    limit_sigma,
    midpoint_increment_overlap,
    midpoint_increment_overlap_closed,
    sample_fbm,
    sample_fbmbt,
)

EXACT = settings(max_examples=300, derandomize=True, database=None, deadline=None)


@EXACT
@given(
    h=st.floats(min_value=0.05, max_value=0.95),
    r=st.sampled_from((1, 2, 3)),
    n=st.sampled_from((2, 4, 6, 8, 10, 12)),
    t=st.floats(min_value=0.25, max_value=2.0),  # at least one walk step at n = 2
    f=st.sampled_from(sorted(WEIGHTS)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_a5_crossing_and_composition_identities(h, r, n, t, f, seed):
    sample = sample_fbmbt(h, n, t, SeedSpec(seed, 0))
    res = identity_residuals(sample, get_weight(f), r, t)
    assert res["residual_crossing"] <= 1e-9
    assert res["residual_composition"] <= 1e-9


@EXACT
@given(
    h=st.floats(min_value=0.05, max_value=0.95),
    n=st.integers(min_value=1, max_value=8),
    t_frac=st.floats(min_value=0.0, max_value=1.0),
    s_frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_a8_overlap_sum_telescopes(h, n, t_frac, s_frac):
    t = 2.0**-n + t_frac * (4.0 - 2.0**-n)  # 2^-n <= t <= 4, as in check A8
    s = s_frac * t
    if math.floor(2**n * s) >= math.floor(2**n * t):
        s = 0.0
    direct = midpoint_increment_overlap(h, n, s, t)
    closed = midpoint_increment_overlap_closed(h, n, s, t)
    assert abs(direct - closed) / max(1.0, abs(closed)) <= 1e-12


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(
    h=st.floats(min_value=0.01, max_value=0.4999),
    r=st.sampled_from((2, 3, 4)),
    log10_tol=st.floats(min_value=-12.0, max_value=-6.0),
)
def test_sigma_tail_certificate_holds(h, r, log10_tol):
    tol = 10.0**log10_tol
    coarse = limit_sigma(r, h, tol)
    fine = limit_sigma(r, h, tol / 100)
    assert coarse.tail_bound <= tol
    assert fine.tail_bound <= tol / 100
    # both truncations err on the same side, by at most their tail bounds;
    # rounding adds a few ulps of sigma^2 (1.1e-13 at r = 3, 1.5e-11 at r = 4)
    rounding = 4 * math.ulp(coarse.value**2)
    assert abs(coarse.value**2 - fine.value**2) <= 1.01 * tol + rounding


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    h=st.floats(min_value=0.05, max_value=0.95),
    level=st.integers(min_value=1, max_value=8),
    left=st.integers(min_value=0, max_value=40),  # grid sites left of t = 0
    right=st.integers(min_value=1, max_value=40),  # ... and right of it, so count >= 1
    seeds=st.lists(
        st.builds(SeedSpec, st.integers(min_value=0, max_value=2**32 - 1),
                  st.integers(min_value=0, max_value=10**6),
                  st.lists(st.integers(min_value=0, max_value=9), max_size=2).map(tuple)),
        min_size=1, max_size=7),
)
def test_batched_sample_fbm_rows_are_the_single_seed_paths(h, level, left, right, seeds):
    grid = GridSpec(level=level, t_min=-left * 2.0**-level, t_max=right * 2.0**-level)
    batch = sample_fbm(h, grid, seeds)
    assert isinstance(batch, np.ndarray) and batch.shape == (len(seeds), grid.npoints)
    for seed, row in zip(seeds, batch):
        assert row.tobytes() == sample_fbm(h, grid, seed).values.tobytes()
