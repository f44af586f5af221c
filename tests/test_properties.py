"""Property tests of the exact identities behind A5 and A8.

Examples are derandomized and nothing is stored between runs, so the
suite draws the same inputs every time.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from fbmvar import (
    WEIGHTS,
    SeedSpec,
    get_weight,
    identity_residuals,
    midpoint_increment_overlap,
    midpoint_increment_overlap_closed,
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
