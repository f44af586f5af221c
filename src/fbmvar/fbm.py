"""Exact sampling of (two-sided) fractional Brownian motion on dyadic grids.

Two generators with one law:

* circulant embedding of the fGn correlation sequence (Davies-Harte /
  Wood-Chan, O(N log N), the workhorse): the embedding's spectrum is
  real and symmetric, so only its Hermitian half is scaled by the cached
  amplitudes and inverted with one real FFT, and
* dense Cholesky factorization of the full covariance matrix (O(N^3), the
  small-scale oracle the fast path is validated against).

Both are deterministic functions of a SeedSpec.  Increments of two-sided
fBm form a single stationary fGn stream across the origin, so a two-sided
path is one circulant draw, cumulatively summed and re-anchored so that
the value at t = 0 is exactly zero.  The circulant sampler also draws a
batch, one row per SeedSpec, through one spectrum scaling, one FFT and
one cumulative sum; each row is bit-identical to its seed's single path.

`scipy.linalg` is imported by the oracle's factorization on its first
call; the circulant path needs numpy alone.
"""

from __future__ import annotations

import functools
import math
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .gaussian import HurstParam, as_hurst, fbm_covariance, fgn_correlation


class SpectralError(RuntimeError):
    """The circulant embedding produced a genuinely negative eigenvalue."""


class CholeskyError(RuntimeError):
    """The dense covariance factorization failed (non-PD numerical matrix)."""


#: eigenvalues of the unit-spacing correlation circulant below this abort;
#: tiny negatives above it are clamped to zero.
EIGENVALUE_FLOOR = -1e-9

#: point-count cap for the O(N^3) Cholesky oracle
CHOLESKY_CAP = 2048

#: point-count cap for `sample_fbm` (level 21 over [0, 1] fits); the
#: circulant sampler's buffers take about 64 bytes per point
SAMPLE_FBM_CAP = 1 << 22

#: most points (rows * count) of a draw whose work buffers come from its
#: thread's scratch: 2 * _SCRATCH_POINTS floats and as many complex, 1.5 MiB
_SCRATCH_POINTS = 1 << 15

_scratch = threading.local()


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic RNG derivation: (master_seed, stream_id) -> generator.

    The generator state is seeded from SeedSequence(entropy=master_seed,
    spawn_key=(stream_id, *sub)), which is injective in the triple.
    Substreams extend the spawn key by one more index and are independent
    of the parent stream and of each other.
    """

    master_seed: int
    stream_id: int = 0
    sub: tuple[int, ...] = ()

    def rng(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_id, *self.sub)
        )
        return np.random.default_rng(seq)

    def substream(self, k: int) -> "SeedSpec":
        return SeedSpec(self.master_seed, self.stream_id, self.sub + (k,))


@dataclass(frozen=True)
class GridSpec:
    """Dyadic grid of level n (spacing 2^-n) spanning [t_min, t_max] with
    t_min <= 0 < t_max, both multiples of 2^-n.

    Its integer index range (i_min, i_max, npoints, zero_index) is worked
    out once, when the grid is built."""

    level: int
    t_min: float
    t_max: float
    i_min: int = field(init=False, repr=False, compare=False)
    i_max: int = field(init=False, repr=False, compare=False)
    npoints: int = field(init=False, repr=False, compare=False)
    zero_index: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("grid level must be a positive integer")
        if not (math.isfinite(self.t_min) and math.isfinite(self.t_max)):
            raise ValueError("grid endpoints must be finite")
        if not self.t_min <= 0.0 < self.t_max:
            raise ValueError("need t_min <= 0 < t_max")
        for name in ("t_min", "t_max"):
            val = getattr(self, name) * 2.0**self.level
            if abs(val - round(val)) > 1e-9:
                raise ValueError(f"{name} must be a multiple of 2^-level")
        i_min, i_max = round(self.t_min * 2.0**self.level), round(self.t_max * 2.0**self.level)
        for name, value in (("i_min", i_min), ("i_max", i_max),
                            ("npoints", i_max - i_min + 1), ("zero_index", -i_min)):
            object.__setattr__(self, name, value)

    @property
    def spacing(self) -> float:
        return 2.0**-self.level

    def times(self) -> np.ndarray:
        return np.arange(self.i_min, self.i_max + 1) * self.spacing

    def index_of(self, t: float) -> int:
        """Array index of the grid point t; rejects off-grid t."""
        i = t * 2**self.level
        if abs(i - round(i)) > 1e-9:
            raise ValueError(f"t={t} is not on the level-{self.level} grid")
        i = round(i)
        if not self.i_min <= i <= self.i_max:
            raise ValueError(f"t={t} lies outside [{self.t_min}, {self.t_max}]")
        return i - self.i_min


@dataclass(frozen=True)
class FbmPath:
    """fBm values on a dyadic grid, anchored so the value at t = 0 is 0.

    `values` is one path, of shape (npoints,), or a batch of paths on the
    same grid, of shape (rows, npoints); grid positions run along the last
    axis, so every path functional reads a batch row by row.
    """

    grid: GridSpec
    h: HurstParam
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape[-1] != self.grid.npoints:
            raise ValueError("values length does not match grid point count")
        if (self.values[..., self.grid.zero_index] != 0.0).any():
            raise ValueError("path must be anchored: value at t=0 must be exactly 0")

    def value_at(self, t: float):
        """X_t: a float for one path, one value per row for a batch."""
        value = self.values[..., self.grid.index_of(t)]
        return float(value) if value.ndim == 0 else value


@functools.lru_cache(maxsize=64)
def _circulant_spectrum(h: float, count: int) -> np.ndarray:
    """Pre-scaled half-spectrum amplitudes of the fGn correlation circulant.

    The correlation sequence rho(0..count) is embedded in a circulant of
    length 2*count, whose eigenvalues lam are real and symmetric.  Entry k
    of the result, for k = 0..count, is sqrt(lam[k] * 2*count), times
    1/sqrt(2) at the interior frequencies 0 < k < count, whose complex
    normal is split into a real and an imaginary part.  Eigenvalues below
    EIGENVALUE_FLOOR abort (silent regularization would corrupt rate
    measurements); tiny negatives are clamped to zero.
    """
    rho = fgn_correlation(HurstParam(h), np.arange(count + 1))
    emb = np.concatenate([rho, rho[-2:0:-1]])
    lam = np.fft.fft(emb).real
    lam_min = float(lam.min())
    if lam_min < EIGENVALUE_FLOOR:
        raise SpectralError(
            f"circulant embedding for h={h}, count={count} has eigenvalue "
            f"{lam_min:.3e} < {EIGENVALUE_FLOOR:g}"
        )
    amp = np.sqrt(np.clip(lam[: count + 1], 0.0, None) * (2 * count))
    amp[1:count] *= math.sqrt(0.5)
    amp.flags.writeable = False
    return amp


def _buffers(rows: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Work buffers of a (rows, count) draw: (rows, 2*count) floats for the
    normals and (rows, count+1) complex for the half spectrum.  A draw of at
    most _SCRATCH_POINTS points gets views of this thread's one pair of flat
    scratch buffers, at its own shape; a larger one gets fresh buffers."""
    shapes = (rows, 2 * count), (rows, count + 1)
    if rows * count > _SCRATCH_POINTS:
        return np.empty(shapes[0]), np.empty(shapes[1], dtype=complex)
    flat = getattr(_scratch, "buffers", None)
    if flat is None:
        flat = _scratch.buffers = (np.empty(2 * _SCRATCH_POINTS),
                                   np.empty(2 * _SCRATCH_POINTS, dtype=complex))
    return tuple(buf[: math.prod(shape)].reshape(shape) for buf, shape in zip(flat, shapes))


def _fill_normals(seed: SeedSpec | Sequence[SeedSpec], out: np.ndarray) -> None:
    """The standard normals of a draw, into the (rows, width) `out`: its
    rows consecutive from one SeedSpec's stream, or, for a sequence of
    SeedSpecs, row i from the stream of seed[i] alone."""
    if isinstance(seed, SeedSpec):
        seed.rng().standard_normal(out=out)
        return
    for spec, row in zip(seed, out):
        spec.rng().standard_normal(out=row)


def sample_fgn_circulant(
    h, count: int, spacing: float, seed: SeedSpec | Sequence[SeedSpec], size: int | None = None
):
    """Stationary fGn with covariance spacing^2H * rho_H(|i-j|).

    Davies-Harte / Wood-Chan circulant embedding, inverted over the
    Hermitian half of the spectrum only.  One row takes 2*count standard
    normals: the first drives frequency 0, the second frequency count, and
    the remaining ones the real, then the imaginary, parts of frequencies
    1..count-1.  Each is scaled by its amplitude from _circulant_spectrum
    and the real inverse FFT of length 2*count gives the path; its first
    `count` entries are the fGn.

    `seed` is one SeedSpec: the result is a vector of length `count`, or
    a (size, count) array when `size` is given (batch rows are consecutive
    draws from the same stream).  Or `seed` is a sequence of SeedSpecs:
    the result is a (len(seed), count) array whose row i is bit-identical
    to the vector drawn from seed[i] alone.  Fixed seed means bit-identical
    output.  The result never shares memory with the sampler's scratch.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if spacing <= 0.0:
        raise ValueError("spacing must be positive")
    if size is not None and not isinstance(seed, SeedSpec):
        raise ValueError("size applies to one SeedSpec; a batch has one row per seed")
    hp = as_hurst(h)
    amp = _circulant_spectrum(hp.h, count)
    rows = (1 if size is None else int(size)) if isinstance(seed, SeedSpec) else len(seed)
    normals, half = _buffers(rows, count)
    _fill_normals(seed, normals)
    half.real[:, 0] = normals[:, 0]
    half.real[:, count] = normals[:, 1]
    half.real[:, 1:count] = normals[:, 2 : count + 1]
    half.imag[:, 1:count] = normals[:, count + 1 :]
    half.imag[:, 0] = half.imag[:, count] = 0.0
    half *= amp * spacing**hp.h
    fgn = np.fft.irfft(half, n=2 * count, axis=1)[:, :count]
    return fgn[0] if size is None and isinstance(seed, SeedSpec) else fgn


@functools.lru_cache(maxsize=32)
def _cholesky_factor(h: float, grid: GridSpec) -> np.ndarray:
    """Lower Cholesky factor of C_H on the grid points with t=0 removed."""
    import scipy.linalg

    pts = grid.times()
    pts = np.delete(pts, grid.zero_index)
    cov = fbm_covariance(HurstParam(h), pts[:, None], pts[None, :])
    try:
        chol = scipy.linalg.cholesky(cov, lower=True)
    except scipy.linalg.LinAlgError as exc:  # report the offending minor
        raise CholeskyError(f"covariance factorization failed on {grid}: {exc}") from exc
    chol.flags.writeable = False
    return chol


def sample_fbm_cholesky(h, grid: GridSpec, seed: SeedSpec, size: int | None = None):
    """Exact-law fBm path via dense Cholesky; the small-scale oracle.

    The point t=0 is excluded from the factorized set and pinned to 0.
    """
    if grid.npoints > CHOLESKY_CAP:
        raise ValueError(
            f"grid has {grid.npoints} points, above the Cholesky cap {CHOLESKY_CAP}"
        )
    hp = as_hurst(h)
    chol = _cholesky_factor(hp.h, grid)
    rows = 1 if size is None else int(size)
    rng = seed.rng()
    z = rng.standard_normal((rows, chol.shape[0]))
    vals = z @ chol.T
    vals = np.insert(vals, grid.zero_index, 0.0, axis=1)
    if size is None:
        return FbmPath(grid=grid, h=hp, values=vals[0])
    return vals


def sample_fbm(h, grid: GridSpec, seed: SeedSpec | Sequence[SeedSpec], size: int | None = None):
    """Two-sided fBm path: one stationary fGn stream over [t_min, t_max],
    cumulatively summed and re-anchored to 0 at t = 0.

    For one SeedSpec the result is an FbmPath, or a plain (size, npoints)
    array of consecutive draws from its stream when `size` is given.  For
    a sequence of SeedSpecs it is a plain (len(seed), npoints) array, drawn
    as one batch (one spectrum scaling, one FFT, one cumulative sum, one
    anchoring), whose row i is bit-identical to the values of the path of
    seed[i] alone.  A grid above SAMPLE_FBM_CAP points raises ValueError.
    """
    if grid.npoints > SAMPLE_FBM_CAP:
        raise ValueError(f"grid has {grid.npoints} points, above the sampling cap {SAMPLE_FBM_CAP}")
    hp = as_hurst(h)
    fgn = sample_fgn_circulant(hp, grid.npoints - 1, grid.spacing, seed, size=size)
    fgn = np.atleast_2d(fgn)
    vals = np.empty((fgn.shape[0], grid.npoints))
    vals[:, 0] = 0.0
    np.cumsum(fgn, axis=1, out=vals[:, 1:])
    if grid.zero_index:
        vals -= vals[:, grid.zero_index : grid.zero_index + 1]
    if size is None and isinstance(seed, SeedSpec):
        return FbmPath(grid=grid, h=hp, values=vals[0])
    return vals
