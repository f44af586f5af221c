"""Exact sampling of (two-sided) fractional Brownian motion on dyadic grids.

One generator: circulant embedding of the fGn correlation sequence
(Davies-Harte / Wood-Chan, O(N log N)).  The embedding's spectrum is real
and symmetric, so only its Hermitian half is scaled by the cached
amplitudes and inverted with one real FFT.  Its draws have exactly the
law of fBm whenever that spectrum is nonnegative, which
`_circulant_spectrum` checks, raising SpectralError when it fails; A7
checks the draws against the covariance C_H and the exact normal law of
X(t).

Every draw is a deterministic function of a SeedSpec.  Increments of
two-sided fBm form a single stationary fGn stream across the origin, so a
two-sided path is one circulant draw, cumulatively summed and re-anchored
so that the value at t = 0 is exactly zero.  The sampler also draws a
batch, one row per SeedSpec, through one spectrum scaling, one FFT and
one cumulative sum; each row is bit-identical to its seed's single path.

Every stream is numpy's PCG64 seeded by SeedSequence, whose fixed 32-bit
hash `_seed_words` computes in numpy for a block of stream ids at once,
so that a Monte Carlo call derives its thousands of streams in a few
passes instead of one SeedSequence each.  The words are a function of
(master seed, stream id, sub) alone, so the bounded cache of blocks
(`_word_block`) changes no bit; numpy.random itself is loaded on the
first draw.  The sampler needs numpy alone.
"""

from __future__ import annotations

import functools
import math
import operator
import threading
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .gaussian import HurstParam, as_hurst, fgn_correlation


class SpectralError(RuntimeError):
    """The circulant embedding produced a genuinely negative eigenvalue."""


#: eigenvalues of the unit-spacing correlation circulant below this abort;
#: tiny negatives above it are clamped to zero.
EIGENVALUE_FLOOR = -1e-9

#: most points of a `GridSpec` (level 21 over [0, 1] fits), so that every
#: grid can be sampled; the circulant sampler's buffers take about 64 bytes
#: per point
SAMPLE_FBM_CAP = 1 << 22

#: most points (rows * count) of a draw whose work buffers come from its
#: thread's scratch: 2 * _SCRATCH_POINTS floats and as many complex, 1.5 MiB
_SCRATCH_POINTS = 1 << 15

_scratch = threading.local()


#: numpy's SeedSequence hash constants (documented as stable)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _MASK = 0xCA01F9DD, 0x4973F715, 0xFFFFFFFF

#: stream ids whose seed words `_word_block` derives, and caches, together
_STREAM_BLOCK = 1024


def _u32_words(n) -> list[int]:
    """The 32-bit words SeedSequence reads a non-negative integer as, least
    significant first (0 is one word)."""
    n = operator.index(n)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & _MASK]
    while n >> 32:
        n >>= 32
        words.append(n & _MASK)
    return words


def _hasher(const: int, mult: int):
    """SeedSequence's running 32-bit hash: each call xors in the constant,
    steps it by `mult` and multiplies.  Takes Python ints or uint32 arrays."""
    def hash32(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK
        value = value * const & _MASK
        return value ^ value >> 16
    return hash32


def _mix(x, y):
    """SeedSequence's mix of two 32-bit words (Python ints or uint32 arrays)."""
    value = ((_MIX_L * x & _MASK) - (_MIX_R * y & _MASK)) & _MASK
    return value ^ value >> 16


def _seed_words(master_seed, ids: range, sub: tuple[int, ...]) -> np.ndarray:
    """Row j is SeedSequence(master_seed, spawn_key=(ids[j], *sub))
    .generate_state(4, np.uint64), for all of `ids` in one pass.

    The ids enter the hash as one uint32 column after the master seed's
    words, which SeedSequence pads to its pool of four; the pool's own
    mixing is done once, on Python ints.  Several ids must lie below 2^32
    (one word each); one id may be any non-negative integer."""
    run = _u32_words(master_seed)
    run += [0] * (4 - len(run))
    if len(ids) == 1:
        key = _u32_words(ids[0])
    elif ids.start < 0 or ids.stop > 1 << 32:
        raise ValueError(f"stream ids {ids} must lie in [0, 2^32) to be derived together")
    else:
        key = [np.arange(ids.start, ids.stop, dtype=np.uint32)]
    entropy = run + key + [w for k in sub for w in _u32_words(k)]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for w in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(w))
    out_hash = _hasher(_INIT_B, _MULT_B)
    state = np.empty((8, len(ids)), dtype=np.uint64)
    for i in range(8):
        state[i] = out_hash(pool[i % 4])
    # uint32 pairs, low word first, make the uint64 words
    return np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)


@functools.cache
def _words_seed():
    """The seed sequence that hands PCG64 precomputed words; defined on the
    first draw, so that importing fbmvar does not load numpy.random."""
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words  # PCG64 asks for its 4 uint64 words alone

    return Words


@functools.lru_cache(maxsize=64)
def _word_block(master_seed: int, first: int, sub: tuple[int, ...]) -> np.ndarray:
    """The read-only seed words of the _STREAM_BLOCK stream ids from
    `first` on (32 KiB), or of `first` alone outside the one-word range."""
    size = _STREAM_BLOCK if 0 <= first < 1 << 32 else 1
    words = _seed_words(master_seed, range(first, first + size), sub)
    words.flags.writeable = False
    return words


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic RNG derivation: (master_seed, stream_id) -> generator.

    The generator is PCG64 seeded with the words of SeedSequence(entropy=
    master_seed, spawn_key=(stream_id, *sub)), which is injective in the
    triple; a negative entry raises ValueError.  Substreams extend the
    spawn key by one more index and are independent of the parent stream
    and of each other.

    The words of the block of _STREAM_BLOCK ids holding stream_id are
    derived in one pass on the first draw of any of them and kept in a
    small cache shared by every SeedSpec and thread (`_word_block`), so a
    Monte Carlo call's streams cost a few derivations.
    """

    master_seed: int
    stream_id: int = 0
    sub: tuple[int, ...] = ()

    def rng(self) -> np.random.Generator:
        i = self.stream_id
        first = i - i % _STREAM_BLOCK if 0 <= i < 1 << 32 else i
        words = _word_block(self.master_seed, first, self.sub)[i - first]
        return np.random.Generator(np.random.PCG64(_words_seed()(words)))

    def substream(self, k: int) -> "SeedSpec":
        return SeedSpec(self.master_seed, self.stream_id, self.sub + (k,))


@dataclass(frozen=True)
class GridSpec:
    """Dyadic grid of level n (spacing 2^-n) spanning [t_min, t_max] with
    t_min <= 0 < t_max, both multiples of 2^-n.

    Its integer index range (i_min, i_max, npoints, zero_index) is worked
    out once, when the grid is built.  A grid above SAMPLE_FBM_CAP points
    is refused then, before anything is sampled on it."""

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
        try:  # the endpoints in units of the spacing
            ends = [math.ldexp(getattr(self, name), self.level) for name in ("t_min", "t_max")]
        except OverflowError:
            raise ValueError(f"a level-{self.level} grid over [{self.t_min}, {self.t_max}] "
                             "has more points than a float can count") from None
        for name, val in zip(("t_min", "t_max"), ends):
            if abs(val - round(val)) > 1e-9:
                raise ValueError(f"{name} must be a multiple of 2^-level")
        i_min, i_max = (round(val) for val in ends)
        npoints = i_max - i_min + 1
        if npoints > SAMPLE_FBM_CAP:
            raise ValueError(f"grid has {npoints} points, above the sampling cap {SAMPLE_FBM_CAP}")
        for name, value in (("i_min", i_min), ("i_max", i_max),
                            ("npoints", npoints), ("zero_index", -i_min)):
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
    if size is not None and size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    hp = as_hurst(h)
    amp = _circulant_spectrum(hp.h, count)
    rows = (1 if size is None else operator.index(size)) if isinstance(seed, SeedSpec) else len(seed)
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


def sample_fbm(h, grid: GridSpec, seed: SeedSpec | Sequence[SeedSpec], size: int | None = None):
    """Two-sided fBm path: one stationary fGn stream over [t_min, t_max],
    cumulatively summed and re-anchored to 0 at t = 0.

    For one SeedSpec the result is an FbmPath, or a plain (size, npoints)
    array of consecutive draws from its stream when `size` is given.  For
    a sequence of SeedSpecs it is a plain (len(seed), npoints) array, drawn
    as one batch (one spectrum scaling, one FFT, one cumulative sum, one
    anchoring), whose row i is bit-identical to the values of the path of
    seed[i] alone.
    """
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
