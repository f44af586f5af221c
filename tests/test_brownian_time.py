"""Walk embedding tests: crossing algebra, exact identities, composition."""

import math

import numpy as np
import pytest

from fbmvar import (
    EmbeddedWalk,
    FbmbtSample,
    GridSpec,
    SeedSpec,
    crossing_counts,
    get_weight,
    identity_residuals,
    sample_fbm,
    sample_fbmbt,
    sample_walk,
    step_summands,
)
from fbmvar import brownian_time, harness
from fbmvar.brownian_time import RESIDUAL_TOL
from fbmvar.variations import odd_power
from helpers import make_path

F_ONE = get_weight("one")
F_GAUSS = get_weight("gauss")


def _walk(steps, level=2):
    return EmbeddedWalk(level=level, steps=steps)


@pytest.mark.parametrize(
    "steps",
    [[1, 0, -1], [1, 2], np.array([1.0, -1.0]), [[1, -1]], np.diff([0, 2, 3, 2, 3])],
    ids=["step 0", "step 2", "float steps", "2-D steps", "steps of sites 0,2,3,2,3"],
)
def test_walk_refuses_steps_other_than_integer_plus_minus_one(steps):
    with pytest.raises(ValueError, match="integers"):
        EmbeddedWalk(level=2, steps=steps)


def test_walk_sites_are_derived_from_the_steps():
    # sites that disagree with the steps cannot be written down
    with pytest.raises(TypeError):
        EmbeddedWalk(level=2, steps=np.array([1, 1, -1, 1]), s=np.array([0, 2, 3, 2, 3]))
    walk = _walk([1, 1, -1, 1])
    assert walk.s.tolist() == [0, 1, 2, 1, 2] and walk.s.dtype == np.int64


def test_sample_walk_sites_equal_the_cumsum_of_its_draw():
    # the steps are the top bits of the raw words' 32-bit halves, which are
    # numpy's integers(0, 2) draw bit for bit; odd step counts end on a low
    # half whose high half is dropped
    for n, t in ((1, 1.0), (4, 1.0), (9, 1.0), (2, 0.25), (3, 0.375), (4, 15 / 16),
                 (12, 4095 / 4096), (12, 1.0)):
        k = math.floor(t * 2**n)
        for index in range(4):
            seed = SeedSpec(300 + n, index)
            draw = seed.rng().integers(0, 2, size=k, dtype=np.int64) * 2 - 1
            expected = np.concatenate([[0], np.cumsum(draw)])
            walk = sample_walk(n, t, seed)
            assert len(walk.steps) == k
            assert walk.s.dtype == expected.dtype and walk.s.tobytes() == expected.tobytes()
            assert walk.steps.tobytes() == draw.tobytes()


def test_crossing_counts_hand_example():
    walk = _walk([1, 1, -1, 1])
    cc = crossing_counts(walk, 1.0)
    assert dict(zip(cc.sites().tolist(), cc.up.tolist())) == {0: 1, 1: 2}
    assert dict(zip(cc.sites().tolist(), cc.down.tolist())) == {0: 0, 1: 1}
    assert cc.up.sum() + cc.down.sum() == 4


def test_crossing_counts_empty_horizon():
    walk = _walk([1, -1, 1, -1])
    cc = crossing_counts(walk, 2.0**-4)
    assert cc.up.sum() + cc.down.sum() == 0
    assert len(cc.up) == 0


def test_crossing_conservation_random():
    rng = np.random.default_rng(77)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        walk = sample_walk(n, 1.0, SeedSpec(int(rng.integers(1 << 30)), 0))
        t = rng.uniform(2.0**-n, 1.0)
        cc = crossing_counts(walk, t)
        assert cc.up.sum() + cc.down.sum() == math.floor(t * 2**n)


def test_terminal_site_matches_indicator_profile():
    walk = _walk([1, 1, -1, 1])
    assert crossing_counts(walk, 1.0).terminal == 2
    down = _walk([-1, -1, -1], level=2)
    cc = crossing_counts(down, 0.76)
    assert cc.terminal == -3
    assert np.array_equal(cc.net(), [-1, -1, -1])
    flat = _walk([1, -1])
    assert crossing_counts(flat, 0.5).terminal == 0
    # on every random walk the net profile is +1 on [0, S_K), -1 on [S_K, 0)
    rng = np.random.default_rng(78)
    for _ in range(25):
        walk = sample_walk(int(rng.integers(3, 10)), 1.0, SeedSpec(int(rng.integers(1 << 30)), 0))
        cc = crossing_counts(walk, 1.0)
        m, j = cc.terminal, cc.sites()
        assert m == walk.s[-1]
        assert np.array_equal(cc.net(), ((0 <= j) & (j < m)).astype(int) - ((m <= j) & (j < 0)))


def test_walk_steps_and_sites_are_read_only():
    # a built walk cannot change, so its sites stay the partial sums of its steps
    steps = np.array([1, -1, 1])
    walk = _walk(steps)
    steps[0] = -1  # the caller's writable array was copied
    assert walk.steps.tolist() == [1, -1, 1] and walk.s.tolist() == [0, 1, 0, 1]
    for w in (walk, sample_walk(3, 1.0, SeedSpec(4, 0))):
        for array in (w.steps, w.s):
            with pytest.raises(ValueError, match="read-only"):
                array[:] = 1


def _crossing_counts_per_step(walk, t):
    """Reference: up/down counts, lowest site and terminal site, one step at a time."""
    k = math.floor(t * 2**walk.level)
    s = [int(v) for v in walk.s[: k + 1]]
    j_lo = min(s)
    up = [0] * (max(s) - j_lo)
    down = [0] * (max(s) - j_lo)
    for i in range(k):
        if walk.steps[i] > 0:
            up[s[i] - j_lo] += 1  # up from j crosses [j, j+1]
        else:
            down[s[i + 1] - j_lo] += 1  # down to j crosses [j, j+1]
    return up, down, j_lo, s[k]


def test_crossing_counts_equal_per_step_loop():
    walks = [(_walk([-1, -1, 1, -1]), 1.0), (_walk([1, -1, 1, -1]), 2.0**-4)]
    rng = np.random.default_rng(79)
    for _ in range(40):
        n = int(rng.integers(2, 9))
        walk = sample_walk(n, 1.0, SeedSpec(int(rng.integers(1 << 30)), 0))
        walks.append((walk, rng.uniform(0.0, 1.0)))
    terminals = set()
    for walk, t in walks:
        cc = crossing_counts(walk, t)
        up, down, j_lo, terminal = _crossing_counts_per_step(walk, t)
        assert cc.up.tolist() == up and cc.down.tolist() == down
        assert cc.j_lo == j_lo and cc.terminal == terminal
        assert cc.up.dtype == cc.down.dtype == np.int64
        terminals.add(int(np.sign(terminal)))
    assert terminals == {-1, 0, 1}
    assert crossing_counts(*walks[1]).horizon == 0


def test_identity_residuals_builds_one_table_and_one_crossing_pass(monkeypatch):
    calls = {"step_summands": 0, "crossing_counts": 0}

    def counted(name):
        fn = getattr(brownian_time, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(brownian_time, name, counted(name))
    sample = sample_fbmbt(0.25, 8, 1.0, SeedSpec(5, 0))
    identity_residuals(sample, F_GAUSS, 2, 1.0)
    assert calls == {"step_summands": 1, "crossing_counts": 1}


@pytest.mark.parametrize("weight", ["one", "gauss", "sin"])
def test_identity_forms_equal_sums_over_a_direct_table(weight):
    f = get_weight(weight)
    for i in range(6):
        n = (4, 8, 12)[i % 3]
        sample = sample_fbmbt(0.3, n, 1.0, SeedSpec(70 + n, i))
        for r in (1, 2, 3):
            for t in (0.4, 1.0):
                res = identity_residuals(sample, f, r, t)
                table = step_summands(sample.spatial, f, r, "trapezoid")
                zero = sample.spatial.grid.zero_index
                up, down, j_lo, j_star = _crossing_counts_per_step(sample.walk, t)
                sites = zero + np.arange(j_lo, j_lo + len(up))
                net = np.array(up, dtype=np.int64) - np.array(down, dtype=np.int64)
                crossing = float(np.sum(table[sites] * net))
                # the window of the table's running sum from the origin to
                # the terminal site, for either sign of it
                raw = np.concatenate(([0.0], np.cumsum(table)))
                composed = float(raw[zero + j_star] - raw[zero])
                assert res["crossing"] == crossing
                assert res["composed"] == composed
                assert res["terminal_site"] == j_star


def test_sample_walk_contracts():
    walk = sample_walk(8, 1.0, SeedSpec(3, 1))
    assert walk.s[0] == 0
    assert set(np.unique(walk.steps)) <= {-1, 1}
    assert len(walk.steps) == 256
    again = sample_walk(8, 1.0, SeedSpec(3, 1))
    assert np.array_equal(walk.steps, again.steps)
    with pytest.raises(ValueError):
        sample_walk(4, 0.01, SeedSpec(0, 0))


@pytest.mark.parametrize("n", [23, 60, 2000])
def test_sample_walk_refuses_walks_above_the_cap_before_drawing(n, monkeypatch):
    # 2^n steps above SAMPLE_WALK_CAP, levels beyond any float included
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled an oversized walk")

    monkeypatch.setattr(SeedSpec, "rng", no_sampling)
    with pytest.raises(ValueError, match=f"and the sampling cap {brownian_time.SAMPLE_WALK_CAP}"):
        sample_walk(n, 1.0, SeedSpec(0, 0))


def test_sample_walk_moments():
    k = 256
    rows = np.stack([sample_walk(8, 1.0, SeedSpec(200, i)).s[-1] for i in range(3000)])
    se_mean = math.sqrt(k / 3000)
    assert abs(rows.mean()) < 4 * se_mean
    se_var = k * math.sqrt(2.0 / 3000)  # rough Gaussian approximation
    assert abs(rows.var(ddof=1) - k) < 4 * se_var


def test_sample_fbmbt_requires_even_level():
    with pytest.raises(ValueError):
        sample_fbmbt(0.25, 7, 1.0, SeedSpec(1, 0))


def test_sample_fbmbt_refuses_a_bad_h_before_drawing_any_walk(monkeypatch):
    def no_draw(self):
        raise AssertionError("drew a walk before refusing h")

    monkeypatch.setattr(SeedSpec, "rng", no_draw)
    with pytest.raises(ValueError):
        sample_fbmbt(1.5, 8, 1.0, SeedSpec(0, 0))


def test_sample_covers_walk_range():
    sample = sample_fbmbt(0.25, 10, 1.0, SeedSpec(9, 0))
    lo, hi = sample.walk.s.min(), sample.walk.s.max()
    assert sample.spatial.grid.i_min <= lo and sample.spatial.grid.i_max >= hi
    assert len(sample.z_values()) == len(sample.walk.s)
    grid = GridSpec(level=2, t_min=0.0, t_max=0.25)
    tiny = make_path(2, [0.0, 1.0], 0.25)
    with pytest.raises(ValueError):
        FbmbtSample(walk=sample.walk, spatial=tiny)
    del grid


def test_variation_trivial_cases():
    sample = sample_fbmbt(0.25, 8, 1.0, SeedSpec(10, 0))
    assert identity_residuals(sample, get_weight("zero"), 2, 1.0)["direct"] == 0.0
    assert identity_residuals(sample, F_GAUSS, 2, 2.0**-9)["direct"] == 0.0


def test_walk_returning_to_origin_gives_zero():
    walk = _walk([1, -1, 1, -1])
    grid = GridSpec(level=1, t_min=-1.0, t_max=1.0)
    spatial = sample_fbm(0.25, grid, SeedSpec(11, 0))
    sample = FbmbtSample(walk=walk, spatial=spatial)
    res = identity_residuals(sample, F_GAUSS, 2, 1.0)
    assert res["direct"] == res["crossing"] == res["composed"] == 0.0


def test_single_step_reduces_to_one_trapezoid_term():
    walk = _walk([1])
    grid = GridSpec(level=1, t_min=-0.5, t_max=1.0)
    spatial = sample_fbm(0.3, grid, SeedSpec(12, 0))
    sample = FbmbtSample(walk=walk, spatial=spatial)
    x0 = spatial.value_at(0.0)
    x1 = spatial.value_at(0.5)
    scale = 2.0 ** (2 * 0.3 / 2.0)
    expected = 0.5 * (math.exp(-x0 * x0) + math.exp(-x1 * x1)) * (scale * (x1 - x0)) ** 3
    direct = identity_residuals(sample, F_GAUSS, 2, 0.25)["direct"]
    assert direct == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("n", [4, 8, 12])
def test_identities_on_random_samples(n):
    for i in range(40):
        sample = sample_fbmbt(0.25, n, 1.0, SeedSpec(1000 + n, i))
        res = identity_residuals(sample, F_GAUSS, 2, 1.0)
        assert res["residual_crossing"] <= RESIDUAL_TOL
        assert res["residual_composition"] <= RESIDUAL_TOL


def test_identities_at_partial_horizons():
    sample = sample_fbmbt(0.3, 10, 1.0, SeedSpec(2020, 0))
    for t in (0.25, 0.5, 0.75, 1.0):
        res = identity_residuals(sample, F_GAUSS, 2, t)
        assert res["residual_crossing"] <= RESIDUAL_TOL
        assert res["residual_composition"] <= RESIDUAL_TOL


def test_spatial_variation_edges():
    # the composed form reads the spatial path up to the terminal site: 0 at
    # site 0, and a path short of the walk's range (site +-24 on a grid of
    # sites -16..16) is refused
    grid = GridSpec(level=4, t_min=-1.0, t_max=1.0)
    path = sample_fbm(0.25, grid, SeedSpec(13, 0))
    home = FbmbtSample(walk=_walk([1, -1, -1, 1], level=8), spatial=path)
    assert identity_residuals(home, F_GAUSS, 2, 4 / 2**8)["composed"] == 0.0
    for sign in (1, -1):
        with pytest.raises(ValueError):
            FbmbtSample(walk=_walk([sign] * 24, level=8), spatial=path)


def test_spatial_variation_telescopes_for_unit_weight():
    # for f = 1 and r = 1 the composed sum telescopes to 2^(LH) X at the
    # terminal site, whichever way the walk went
    grid = GridSpec(level=5, t_min=-1.0, t_max=1.0)
    path = sample_fbm(0.3, grid, SeedSpec(14, 0))
    for steps in ([1] * 16, [1] * 32 + [-1] * 8, [-1] * 25 + [1]):
        sample = FbmbtSample(walk=_walk(steps, level=10), spatial=path)
        res = identity_residuals(sample, F_ONE, 1, len(steps) / 2**10)
        target = 2.0 ** (5 * 0.3) * path.values[path.grid.zero_index + sum(steps)]
        assert res["composed"] == pytest.approx(target, rel=1e-12, abs=1e-13)


def test_fbmbt_determinism():
    a = sample_fbmbt(0.25, 8, 1.0, SeedSpec(42, 7))
    b = sample_fbmbt(0.25, 8, 1.0, SeedSpec(42, 7))
    assert np.array_equal(a.walk.steps, b.walk.steps)
    assert np.array_equal(a.spatial.values, b.spatial.values)
    assert not np.array_equal(
        a.spatial.values, sample_fbmbt(0.25, 8, 1.0, SeedSpec(42, 8)).spatial.values
    )


@pytest.mark.parametrize("chunk_steps", [None, 64], ids=["uncapped", "capped"])
def test_batch_sample_fbmbt_rows_equal_each_seed_alone(chunk_steps, monkeypatch):
    # 32 level-8 samples fall on 11 spatial grids of 24 to 56 steps; at
    # CHUNK_STEPS = 64 a grid's batch holds at most 2 rows, so groups split
    h, n = 0.3, 8
    if chunk_steps:
        monkeypatch.setattr(harness, "CHUNK_STEPS", chunk_steps)
    batches, real = [], brownian_time.sample_fbm

    def spy(h, grid, seeds, size=None):
        batches.append((grid, len(seeds)))
        return real(h, grid, seeds, size)

    monkeypatch.setattr(brownian_time, "sample_fbm", spy)
    seeds = [SeedSpec(90, i) for i in range(32)]
    got = sample_fbmbt(h, n, 1.0, seeds)
    monkeypatch.setattr(brownian_time, "sample_fbm", real)
    grids = [sample.spatial.grid for sample in got]
    assert 1 < len(set(grids)) < len(grids)  # rows on one grid and rows on different grids
    assert sum(rows for _, rows in batches) == len(seeds) and max(rows for _, rows in batches) > 1
    if chunk_steps:
        assert all(rows <= max(1, chunk_steps // (grid.npoints - 1)) for grid, rows in batches)
        assert len(batches) > len(set(grids))  # some grid was split at the cap
    else:
        assert len(batches) == len(set(grids))
    for seed, sample in zip(seeds, got):
        alone = sample_fbmbt(h, n, 1.0, seed)
        assert sample.walk.steps.tobytes() == alone.walk.steps.tobytes()
        assert sample.spatial.grid == alone.spatial.grid
        assert sample.spatial.values.tobytes() == alone.spatial.values.tobytes()
        # and both are the walk and the path drawn from the seed's substreams directly
        assert sample.walk.steps.tobytes() == sample_walk(n, 1.0, seed.substream(0)).steps.tobytes()
        path = sample_fbm(h, sample.spatial.grid, seed.substream(1))
        assert sample.spatial.values.tobytes() == path.values.tobytes()


def _walk_power_variation_per_step(sample, f, r, t):
    """Reference: the weight and power evaluated at every walk step."""
    z = sample.z_values()[: sample.walk.horizon(t) + 1]
    if len(z) < 2:
        return 0.0
    dz = 2.0 ** (sample.walk.level * sample.spatial.h.h / 2.0) * np.diff(z)
    w = 0.5 * (f(z[:-1]) + f(z[1:]))
    return float(np.sum(w * odd_power(dz, r)))


@pytest.mark.parametrize("weight", ["one", "gauss", "sin"])
@pytest.mark.parametrize("n", [4, 8, 14])
def test_walk_variation_table_equals_per_step_formula(n, weight):
    f = get_weight(weight)
    for i in range(4):
        sample = sample_fbmbt(0.25, n, 1.0, SeedSpec(60 + n, i))
        for r in (1, 2, 3):
            for t in (0.7, 1.0):
                got = identity_residuals(sample, f, r, t)["direct"]
                assert got == _walk_power_variation_per_step(sample, f, r, t)
            assert identity_residuals(sample, f, r, 0.5 / 2**n)["direct"] == 0.0


@pytest.mark.parametrize("steps", [
    np.array([1, 0, -1]), np.array([1, -2]), np.array([2, 1]), np.array([-2]),
    np.array([1.0, -1.0]), np.array([True, True]), np.array([1, 1], dtype=np.uint8),
    np.array([[1, -1]]), np.array([1, np.iinfo(np.int64).min]),
], ids=["zero", "minus-two", "two", "only-minus-two", "float", "bool", "unsigned", "2-D",
        "int64-min"])
def test_walk_validation_rejects_what_it_always_rejected(steps):
    with pytest.raises(ValueError, match="integers"):
        EmbeddedWalk(level=2, steps=steps)


@pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64])
def test_walk_validation_accepts_signed_plus_minus_one_and_empty(dtype):
    walk = EmbeddedWalk(level=2, steps=np.array([1, -1, -1], dtype=dtype))
    assert walk.s.tolist() == [0, 1, 0, -1]
    empty = EmbeddedWalk(level=2, steps=np.array([], dtype=dtype))
    assert empty.s.tolist() == [0] and crossing_counts(empty, 0.0).horizon == 0


def test_crossed_sites_are_read_only_and_built_once():
    walk = sample_walk(6, 1.0, SeedSpec(9, 0))
    first = walk.crossed(64)
    assert np.array_equal(first, np.minimum(walk.s[:-1], walk.s[1:]))
    assert not first.flags.writeable
    assert np.shares_memory(first, walk.crossed(10))
