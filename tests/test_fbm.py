"""Generator tests: determinism, spectra, covariance law, exact-law agreement."""

import copy
import math
import pickle
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import fbmvar.fbm as fbm_mod
from fbmvar import (
    GridSpec,
    SeedSpec,
    SpectralError,
    fgn_correlation,
    ks_one_sample,
    ks_two_sample,
    sample_fbm,
    sample_fgn_circulant,
)


def test_seedspec_determinism_and_streams():
    a = SeedSpec(123, 4).rng().standard_normal(8)
    b = SeedSpec(123, 4).rng().standard_normal(8)
    c = SeedSpec(123, 5).rng().standard_normal(8)
    d = SeedSpec(123, 4).substream(0).rng().standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# --- seed derivation, against numpy's SeedSequence -----------------------------

_MASTERS = [0, 1, 2**32 - 1, 2**32, 2**70 + 5,
            *(random.Random(i).getrandbits(140) for i in range(4))]
_SUBS = [(), (0,), (3, 2**32 + 7), (1, 2**40, 5)]


def _reference(master, stream_id, sub):
    return np.random.SeedSequence(master, spawn_key=(stream_id, *sub))


@pytest.mark.parametrize("master", _MASTERS)
@pytest.mark.parametrize("sub", _SUBS, ids=str)
def test_seed_words_match_seedsequence(master, sub):
    # a block of ids at either end of the one-word range, and one id alone of any size
    for ids in (range(0, 40), range(2**32 - 40, 2**32)):
        want = np.array([_reference(master, i, sub).generate_state(4, np.uint64) for i in ids])
        assert fbm_mod._seed_words(master, ids, sub).tobytes() == want.tobytes()
    for i in (0, 7, 2**32 - 1, 2**32, 2**64 + 3):
        want = _reference(master, i, sub).generate_state(4, np.uint64)
        assert fbm_mod._seed_words(master, range(i, i + 1), sub)[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("master", _MASTERS)
def test_first_draws_match_seedsequence(master):
    # alone, through substream and through replicate_map, every stream draws
    # numpy's bits, on both sides of the one-word id range too
    from fbmvar.harness import replicate_map

    def draw(seed, sub):
        for k in sub:
            seed = seed.substream(k)
        return seed.rng().standard_normal(3)

    def want(i, sub):
        return np.random.default_rng(_reference(master, i, sub)).standard_normal(3)

    for sub in _SUBS:
        for i in range(2**32 - 3, 2**32 + 2):
            for got in (SeedSpec(master, i, sub).rng().standard_normal(3),
                        draw(SeedSpec(master, i), sub)):
                assert got.tobytes() == want(i, sub).tobytes()
    got = replicate_map(lambda seeds: np.array([[draw(s, sub) for sub in _SUBS] for s in seeds]),
                        5, master)
    assert got.tobytes() == np.array([[want(i, sub) for sub in _SUBS] for i in range(5)]).tobytes()


@pytest.mark.parametrize("spec", [SeedSpec(-1, 0), SeedSpec(1, -1), SeedSpec(1, 0, (2, -3))],
                         ids=repr)
def test_negative_seed_entries_raise_like_numpy(spec):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        _reference(spec.master_seed, spec.stream_id, spec.sub)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        spec.rng()


def test_seedspec_is_a_plain_value():
    spec = SeedSpec(9, 2).substream(1)
    same = SeedSpec(9, 2, (1,))
    assert vars(spec) == {"master_seed": 9, "stream_id": 2, "sub": (1,)}  # no hidden state
    assert spec == same and hash(spec) == hash(same) and len({spec, same}) == 1
    assert spec != SeedSpec(9, 2) and spec != SeedSpec(9, 3, (1,))
    assert repr(spec) == "SeedSpec(master_seed=9, stream_id=2, sub=(1,))"
    for copied in (pickle.loads(pickle.dumps(spec)), copy.deepcopy(spec)):
        assert copied == spec and vars(copied) == vars(spec)
        assert copied.rng().random() == spec.rng().random()


@pytest.fixture
def derived(monkeypatch):
    """(first id, count, sub) of each block of seed words derived during the
    test, from an empty cache, which is emptied again afterwards."""
    log, real = [], fbm_mod._seed_words
    monkeypatch.setattr(fbm_mod, "_seed_words", lambda m, ids, sub: log.append(
        (ids.start, len(ids), sub)) or real(m, ids, sub))
    fbm_mod._word_block.cache_clear()
    yield log
    fbm_mod._word_block.cache_clear()


def test_word_cache_derives_bounded_blocks_and_is_thread_safe(monkeypatch, derived):
    # 76 blocks of 8 ids churn through the 64-block cache while 8 threads on
    # 2 cores read across their boundaries; every stream must still get its
    # own words
    monkeypatch.setattr(fbm_mod, "_STREAM_BLOCK", 8)
    ids, subs = range(300), ((), (1,))
    order = [(i, sub) for i in ids for sub in subs] * 3
    random.Random(0).shuffle(order)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda key: SeedSpec(5, *key).rng().bit_generator.state,
                                order, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(g == np.random.PCG64(_reference(5, i, sub)).state for g, (i, sub) in zip(got, order))
    assert {count for _, count, _ in derived} == {8}
    assert fbm_mod._word_block.cache_info().currsize <= 64 < len(derived)  # blocks were evicted


def test_replicate_map_threads_derive_each_block_once(derived):
    # two threads walking far-apart halves of one call share the cache's
    # blocks, and a second call with the same master and sub derives nothing
    from fbmvar.harness import replicate_map

    want = [np.random.default_rng(_reference(8, i, (1,))).random() for i in range(3000)]

    def call():
        return replicate_map(lambda seeds: np.array([s.substream(1).rng().random() for s in seeds]),
                             3000, 8, threads=2).tolist()

    assert call() == want
    # blocks 0, 1024 and 2048; both threads may miss the shared one at once
    assert len(derived) <= 4 and {first for first, _, _ in derived} == {0, 1024, 2048}
    derived.clear()
    assert call() == want and derived == []


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(level=0, t_min=0.0, t_max=1.0)
    with pytest.raises(ValueError):
        GridSpec(level=3, t_min=0.5, t_max=1.0)  # t_min > 0
    with pytest.raises(ValueError):
        GridSpec(level=3, t_min=0.0, t_max=0.3)  # off-grid t_max
    for level, t_max in ((1100, 1.0), (1023, 4.0)):  # 2^level * t_max overflows a float
        with pytest.raises(ValueError, match="more points than a float can count"):
            GridSpec(level=level, t_min=0.0, t_max=t_max)
    g = GridSpec(level=3, t_min=-0.5, t_max=1.0)
    assert g.npoints == 13
    assert g.zero_index == 4
    assert g.times()[g.zero_index] == 0.0
    assert g.index_of(0.125) == g.zero_index + 1
    with pytest.raises(ValueError):
        g.index_of(0.3)


@pytest.mark.parametrize("sampler", [sample_fbm])
@pytest.mark.parametrize("grid", [GridSpec(1, 0.0, 0.5), GridSpec(2, -0.5, 0.5)],
                         ids=lambda g: f"{g.npoints}pt")
@pytest.mark.parametrize("size", [-3, -1, 0])
def test_samplers_refuse_sizes_below_one(sampler, grid, size):
    # refused before any stream is made: this seed's stream would raise otherwise
    with pytest.raises(ValueError, match=f"size must be >= 1, got {size}"):
        sampler(0.25, grid, SeedSpec(-1, 0), size=size)


@pytest.mark.parametrize("size", [2.5, np.float64(2.0)], ids=repr)
def test_sample_fbm_refuses_fractional_sizes(size):
    # a fractional size is refused, not truncated; an integer of any type is a size
    grid = GridSpec(2, -0.5, 0.5)
    with pytest.raises(TypeError):
        sample_fbm(0.25, grid, SeedSpec(1, 0), size=size)
    assert sample_fbm(0.25, grid, SeedSpec(1, 0), size=np.int64(3)).shape == (3, grid.npoints)


def test_fgn_deterministic_for_fixed_seed():
    s = SeedSpec(9, 2)
    a = sample_fgn_circulant(0.25, 257, 0.5, s)
    b = sample_fgn_circulant(0.25, 257, 0.5, s)
    assert np.array_equal(a, b)


def test_fgn_brownian_case_iid():
    count = 1 << 14
    x = sample_fgn_circulant(0.5, count, 0.25, SeedSpec(31, 0))
    lag1 = np.corrcoef(x[:-1], x[1:])[0, 1]
    assert abs(lag1) < 3.0 / math.sqrt(count)
    se = math.sqrt(2.0 / (count - 1)) * 0.25
    assert abs(x.var(ddof=1) - 0.25) < 3 * se


def test_fgn_variance_subdiffusive():
    count = 1 << 14
    spacing = 2.0**-10
    target = spacing**0.5  # variance at H = 0.25
    x = sample_fgn_circulant(0.25, count, spacing, SeedSpec(32, 0))
    # SE of the mean of squares for a correlated Gaussian sequence:
    # Var = (2/N) * sum_j rho(j)^2 * target^2
    rho_sq = fgn_correlation(0.25, np.arange(1, 2000)) ** 2
    var_mean_sq = 2.0 * (1.0 + 2.0 * rho_sq.sum()) / count * target**2
    se = math.sqrt(var_mean_sq)
    assert abs((x**2).mean() - target) < 3 * se


@pytest.mark.parametrize("h", [0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45])
def test_circulant_spectrum_nonnegative(h):
    lam = fbm_mod._circulant_spectrum(h, 1 << 18)
    assert lam.min() >= 0.0


def test_spectral_failure_aborts(monkeypatch):
    def fake_corr(h, j):
        j = np.atleast_1d(np.asarray(j))
        out = np.full(j.shape, -0.6)
        out[j == 0] = 1.0
        return out

    monkeypatch.setattr(fbm_mod, "fgn_correlation", fake_corr)
    fbm_mod._circulant_spectrum.cache_clear()
    with pytest.raises(SpectralError):
        sample_fgn_circulant(0.17, 64, 1.0, SeedSpec(0, 0))
    fbm_mod._circulant_spectrum.cache_clear()


def test_gridspec_refuses_more_points_than_the_sampling_cap():
    # refused when the grid is built, before anything is sampled on it:
    # SAMPLE_FBM_CAP points fit, one more does not
    cap = fbm_mod.SAMPLE_FBM_CAP
    assert GridSpec(level=22, t_min=-0.5, t_max=0.5 - 2.0**-22).npoints == cap
    for level, t_min, t_max in ((22, 0.0, 1.0), (21, -1.0, 1.0), (40, 0.0, 0.5)):
        npoints = round((t_max - t_min) * 2**level) + 1
        with pytest.raises(ValueError, match=f"grid has {npoints} points, above the sampling cap {cap}"):
            GridSpec(level=level, t_min=t_min, t_max=t_max)


def test_two_sided_halves_are_correlated():
    # kills the "two independent halves" shortcut
    h = 0.35
    grid = GridSpec(level=5, t_min=-1.0, t_max=1.0)
    vals = sample_fbm(h, grid, SeedSpec(8, 0), size=60_000)
    i, j = grid.index_of(-0.5), grid.index_of(0.5)
    prod = vals[:, i] * vals[:, j]
    target = 0.5 * (0.5 ** (2 * h) + 0.5 ** (2 * h) - 1.0)
    se = prod.std(ddof=1) / math.sqrt(len(prod))
    assert abs(prod.mean() - target) < 4 * se


def test_fbm_anchored_at_zero():
    grid = GridSpec(level=7, t_min=-1.0, t_max=1.0)
    path = sample_fbm(0.25, grid, SeedSpec(10, 0))
    assert path.value_at(0.0) == 0.0
    assert len(path.values) == grid.npoints


def test_fbm_self_similarity_variance():
    h = 0.25
    grid = GridSpec(level=5, t_min=-1.0, t_max=1.0)
    vals = sample_fbm(h, grid, SeedSpec(12, 0), size=60_000)
    for t in (-0.5, 0.25, 1.0):
        col = vals[:, grid.index_of(t)]
        sq = col**2
        se = sq.std(ddof=1) / math.sqrt(len(sq))
        assert abs(sq.mean() - abs(t) ** (2 * h)) < 3 * se


def test_circulant_terminal_value_has_the_exact_law():
    # X(1) on a two-sided level-5 grid is exactly N(0, 1)
    grid = GridSpec(level=5, t_min=-1.0, t_max=1.0)
    terminal = sample_fbm(0.3, grid, SeedSpec(13, 0), size=10_000)[:, -1]
    _, p = ks_one_sample(terminal)
    assert p > 0.01


def test_refinement_consistency():
    # a level-6 path restricted to the level-5 grid has the level-5 law
    h = 0.3
    fine = GridSpec(level=6, t_min=0.0, t_max=1.0)
    coarse = GridSpec(level=5, t_min=0.0, t_max=1.0)
    fine_vals = sample_fbm(h, fine, SeedSpec(15, 0), size=8000)[:, ::2]
    coarse_vals = sample_fbm(h, coarse, SeedSpec(16, 0), size=8000)
    for idx in (coarse.index_of(0.5), coarse.index_of(1.0)):
        _, p = ks_two_sample(fine_vals[:, idx], coarse_vals[:, idx])
        assert p > 0.01


def test_deterministic_across_thread_counts():
    from fbmvar.harness import replicate_map

    def draw(seeds) -> np.ndarray:
        grid = GridSpec(level=6, t_min=0.0, t_max=1.0)
        return sample_fbm(0.25, grid, seeds)[:, -1]

    serial = replicate_map(draw, 120, 77, threads=1)
    threaded = replicate_map(draw, 120, 77, threads=4)
    assert np.array_equal(serial, threaded)


def _full_spectrum_fgn(h, count, spacing, seed, size):
    """Reference: the same normals at the same frequencies, inverted with a
    full-length complex FFT over the explicitly mirrored spectrum."""
    rho = fgn_correlation(h, np.arange(count + 1))
    lam = np.clip(np.fft.fft(np.concatenate([rho, rho[-2:0:-1]])).real, 0.0, None)
    m2 = 2 * count
    rows = 1 if size is None else size
    normals = seed.rng().standard_normal((rows, m2))
    z = np.empty((rows, m2), dtype=complex)
    z[:, 0] = normals[:, 0]
    z[:, count] = normals[:, 1]
    z[:, 1:count] = (normals[:, 2 : count + 1] + 1j * normals[:, count + 1 :]) / math.sqrt(2.0)
    z[:, count + 1 :] = np.conj(z[:, 1:count][:, ::-1])
    fgn = np.fft.ifft(np.sqrt(lam) * z, axis=1).real[:, :count] * math.sqrt(m2) * spacing**h
    return fgn[0] if size is None else fgn


@pytest.mark.parametrize("size", [None, 1, 50])
@pytest.mark.parametrize("count", [1, 2, 255, 256])
def test_half_spectrum_matches_full_spectrum_reference(count, size):
    seed = SeedSpec(41, count)
    got = sample_fgn_circulant(0.3, count, 2.0**-8, seed, size=size)
    want = _full_spectrum_fgn(0.3, count, 2.0**-8, seed, size)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("size", [None, 1, 50])
@pytest.mark.parametrize("t_min", [0.0, -0.5, -63 / 128])  # even and odd step counts
def test_sample_fbm_matches_full_spectrum_reference(t_min, size):
    grid = GridSpec(level=7, t_min=t_min, t_max=1.0)
    seed = SeedSpec(42, 0)
    got = sample_fbm(0.3, grid, seed, size=size)
    got = np.atleast_2d(got.values if size is None else got)
    fgn = np.atleast_2d(_full_spectrum_fgn(0.3, grid.npoints - 1, grid.spacing, seed, size))
    want = np.concatenate([np.zeros((len(fgn), 1)), np.cumsum(fgn, axis=1)], axis=1)
    want -= want[:, grid.zero_index : grid.zero_index + 1]
    assert got.shape == want.shape
    assert np.all(got[:, grid.zero_index] == 0.0)
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("count,size", [(16, None), (4096, 4), (16384, None)])
def test_sampler_results_never_share_memory_with_the_scratch(count, size):
    # the normals and half-spectrum buffers are kept per thread and reused;
    # what a sampler returns is always its own memory
    first = sample_fgn_circulant(0.25, count, 1.0 / count, SeedSpec(3, 0), size=size)
    kept = first.copy()
    second = sample_fgn_circulant(0.25, count, 1.0 / count, SeedSpec(3, 1), size=size)
    assert not np.shares_memory(first, second)
    assert np.array_equal(first, kept)
    rows = 1 if size is None else size
    for buf in fbm_mod._buffers(rows, count):
        assert not np.shares_memory(first, buf) and not np.shares_memory(second, buf)
    grid = GridSpec(level=4, t_min=-1.0, t_max=1.0)
    seeds = [SeedSpec(4, i) for i in range(3)]
    batch, again = sample_fbm(0.3, grid, seeds), sample_fbm(0.3, grid, seeds)
    path, other = sample_fbm(0.3, grid, seeds[0]), sample_fbm(0.3, grid, seeds[1])
    assert not np.shares_memory(batch, again) and np.array_equal(batch, again)
    assert not np.shares_memory(path.values, other.values)
    assert np.array_equal(path.values, batch[0])


def test_scratch_is_one_pair_per_thread():
    # every draw of at most _SCRATCH_POINTS points works in views of its
    # thread's one pair of flat buffers; a larger draw gets fresh buffers
    def flat_pair():
        for rows, count in ((1, 16), (4, 4096), (2, 3), (16, 2048), (1, fbm_mod._SCRATCH_POINTS)):
            sample_fgn_circulant(0.25, count, 1.0 / count, [SeedSpec(1, i) for i in range(rows)])
        flat = fbm_mod._scratch.buffers
        assert [buf.size for buf in flat] == [2 * fbm_mod._SCRATCH_POINTS] * 2
        for rows, count in ((1, 16), (4, 4096), (16, 2048), (1, fbm_mod._SCRATCH_POINTS)):
            normals, half = fbm_mod._buffers(rows, count)
            assert normals.shape == (rows, 2 * count) and half.shape == (rows, count + 1)
            assert np.shares_memory(normals, flat[0]) and np.shares_memory(half, flat[1])
        big = fbm_mod._SCRATCH_POINTS + 1
        sample_fgn_circulant(0.25, big, 1.0 / big, SeedSpec(1, 0))
        assert fbm_mod._scratch.buffers is flat
        assert not any(np.shares_memory(buf, kept) for buf in fbm_mod._buffers(1, big) for kept in flat)
        return flat

    here = flat_pair()
    with ThreadPoolExecutor(max_workers=1) as pool:
        there = pool.submit(flat_pair).result()
    assert not any(np.shares_memory(a, b) for a in here for b in there)
