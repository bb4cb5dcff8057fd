"""Seeded Monte Carlo for directional moments.

The generator is a counter-based SplitMix64 finalizer, fully specified
here so any implementation can reproduce the streams bit for bit:

- mix64(v): v ^= v >> 30; v *= 0xBF58476D1CE4E5B9; v ^= v >> 27;
  v *= 0x94D049BB133111EB; v ^= v >> 31  (all mod 2^64)
- key(seed, stream) = mix64(mix64(seed + 0x9E3779B97F4A7C15)
                            XOR mix64(stream + 0x6A09E667F3BCC909))
- raw output i (i >= 0): mix64(key + (i+1) * 0x9E3779B97F4A7C15)
- uniform i: (raw >> 11) * 2^-53, in [0, 1)
- standard normals come from the polar method; attempt j consumes
  uniforms 2j and 2j+1 exactly, a = 2u-1, b = 2v-1, s = a^2 + b^2 is
  accepted iff 0 < s < 1, and emits a*m then b*m with
  m = sqrt(-2 ln(s) / s). Takes read the normals off in this order.

Row-major consumption: a draw matrix of shape (rows, n) takes rows*n
normals in one run of the stream. Work is split into shards of 65536
rows; shard i of a request seeded (seed, stream) uses the stream
(seed, stream + i), which makes results independent of shard batching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index as _int_index

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionError,
    DomainError,
    UndefinedMeanDirectionError,
)
from .moments import GaussianModel, MomentSummary, _mean_direction
from .sphere import (_ROW_BLOCK_VALUES, UNIT_TOL, UnitDirection, _column_sums,
                     _row_sums, standardize, standardize_rows)

__all__ = [
    "SHARD_ROWS",
    "STREAM_BLOCK",
    "SeededStream",
    "DirectionalSample",
    "DensityEstimate",
    "ProjectedMomentsMC",
    "PerturbationPoint",
    "sample_mvn",
    "sample_chi",
    "estimate_md_mrl",
    "estimate_cov",
    "scatter_matrix",
    "estimate_chi_mrl",
    "projected_moments_mc",
    "kde",
    "ic_distribution",
    "md_perturbation_experiment",
]

SHARD_ROWS = 65536
# Stream spacing for logically separate sub-experiments (e.g. one per
# perturbation factor), leaving room for shard offsets underneath.
STREAM_BLOCK = 1 << 32

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_STREAM_SALT = 0x6A09E667F3BCC909

_U_M1 = np.uint64(0xBF58476D1CE4E5B9)
_U_M2 = np.uint64(0x94D049BB133111EB)
_U30 = np.uint64(30)
_U27 = np.uint64(27)
_U31 = np.uint64(31)
_U11 = np.uint64(11)
_INV_2_52 = 2.0 ** -52
# Polar attempts per block. A source draws whole blocks, whose few
# buffers stay within L2; the bits do not depend on the size.
_BLOCK_ATTEMPTS = 16384
# Values per row block of a streamed shard (see _block_rows): 8,192
# rows at n = 10. At 2^20 draws on 2 vCPUs, estimate_chi_mrl took
# 0.32-0.34 s (medians of 15) in blocks of 4,096, 8,192 or 16,384 rows,
# within noise of each other, and 0.40 s in whole shards. It is not
# sphere's 2^15: its 128-row blocks changed the draws' bits at n = 129
# to 191 on two BLAS threads.
_SHARD_BLOCK_VALUES = 1 << 17


def _mix64_int(v: int) -> int:
    v &= _MASK64
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & _MASK64
    return v ^ (v >> 31)


def _mix64_inplace(v: np.ndarray, scratch: np.ndarray) -> None:
    for shift, mult in ((_U30, _U_M1), (_U27, _U_M2)):
        np.right_shift(v, shift, out=scratch)
        v ^= scratch
        v *= mult
    np.right_shift(v, _U31, out=scratch)
    v ^= scratch


@dataclass(frozen=True)
class SeededStream:
    """Address of one pseudo-random stream: (seed, stream_id).

    Both are integers reduced mod 2^64, so seeds a multiple of 2^64
    apart (-1 and 2^64 - 1, say) name the same stream.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            value = _validate_int(getattr(self, name), name, minimum=None)
            object.__setattr__(self, name, value & _MASK64)

    def shifted(self, offset: int) -> "SeededStream":
        return SeededStream(self.seed, (self.stream_id + offset) & _MASK64)

    def key(self) -> int:
        a = _mix64_int(self.seed + _GAMMA)
        b = _mix64_int(self.stream_id + _STREAM_SALT)
        return _mix64_int(a ^ b)


class _NormalSource:
    """Sequential standard-normal source over one stream.

    Polar attempts run in whole blocks of _BLOCK_ATTEMPTS: a block draws
    the a and b uniforms of its attempts from their own counters (2j+1
    and 2j+2), takes 2u - 1 as (raw >> 11) * 2^-52 - 1, and keeps its
    accepted pairs in order. take() copies from them and draws a block
    only when they run out; restart() drops the rest. Every uniform is a
    function of its index alone, so the output is bitwise the scalar
    definition in the module docstring, for any block size and across
    arbitrary take() boundaries.
    """

    def __init__(self, stream: SeededStream):
        size = _BLOCK_ATTEMPTS
        # Attempt k of a block is 2k counters past the block's first.
        self._ramp = np.arange(size, dtype=np.uint64) * np.uint64(2 * _GAMMA & _MASK64)
        # raw and scratch, and the kept pairs once a block's uniforms are drawn.
        self._pairs = np.empty(2 * size)
        self._bufs = (*np.split(self._pairs.view(np.uint64), 2),
                      np.empty(size), np.empty(size), np.empty(size))
        self.restart(stream)

    def restart(self, stream: SeededStream) -> None:
        """Start over at the head of stream; the kept pairs are dropped."""
        self._key = stream.key()
        self._attempts = 0
        self._left = self._pairs[:0]

    def _block(self) -> None:
        """Run the next _BLOCK_ATTEMPTS attempts and keep their pairs."""
        raw, scratch, a, b, s = self._bufs
        first = 2 * self._attempts + 1  # uniform i has counter i + 1
        for u, counter in ((a, first), (b, first + 1)):
            offset = np.uint64((self._key + counter * _GAMMA) & _MASK64)
            np.add(self._ramp, offset, out=raw)
            _mix64_inplace(raw, scratch)
            raw >>= _U11
            # Below 2^53, so int64 converts exactly, and faster.
            np.multiply(raw.view(np.int64), _INV_2_52, out=u)
            u -= 1.0
        self._attempts += _BLOCK_ATTEMPTS
        np.multiply(a, a, out=s)
        s += b * b
        accepted = np.flatnonzero((s > 0.0) & (s < 1.0))
        s_a = s[accepted]
        m = np.sqrt(-2.0 * np.log(s_a) / s_a)
        self._left = self._pairs[:2 * accepted.size]
        np.multiply(a[accepted], m, out=self._left[0::2])
        np.multiply(b[accepted], m, out=self._left[1::2])

    def take(self, count: int, out: np.ndarray | None = None) -> np.ndarray:
        """The next count normals, in out[:count] if given."""
        out = np.empty(count) if out is None else out[:count]
        pos = 0
        while pos < count:
            if not self._left.size:
                self._block()
            k = min(count - pos, self._left.size)
            out[pos:pos + k] = self._left[:k]
            self._left = self._left[k:]
            pos += k
        return out


def _validate_int(value: int, name: str, minimum: int | None = 1) -> int:
    try:
        value = _int_index(value)
    except TypeError:
        raise DomainError(f"{name} must be an int, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise DomainError(f"{name} must be at least {minimum}, got {value}")
    return value


def _block_rows(n: int) -> int:
    """Rows per block of a streamed shard: the largest power of two with
    at most _SHARD_BLOCK_VALUES values, or SHARD_ROWS (whole shards)
    where blocks would not keep the draws' bits.

    A power of two divides SHARD_ROWS, so a full shard splits into equal
    blocks and only a partial shard's last block takes a remainder. The
    draws' BLAS product over these blocks gave every row the bits of the
    whole-shard product at every n up to 192 and at the multiples of 8
    checked up to 8192 (OpenBLAS 0.3.31). At other n from 193 on, a
    row's last n mod 8 coordinates changed with the product's row count,
    and beyond 8192 a block would hold under 16 rows, where small
    products changed bits too; those n keep whole shards.
    """
    if n > 8192 or (n > 192 and n % 8):
        return SHARD_ROWS
    return 1 << ((_SHARD_BLOCK_VALUES // n).bit_length() - 1)


def _shard_sources(count: int, stream: SeededStream):
    """(source, rows) for each shard in order, one _NormalSource per call:
    shard i draws from stream.shifted(i), so the results do not depend
    on how the shards are batched."""
    source = _NormalSource(stream)
    for i, start in enumerate(range(0, count, SHARD_ROWS)):
        source.restart(stream.shifted(i))
        yield source, min(SHARD_ROWS, count - start)


def _shard_blocks(n: int, count: int, stream: SeededStream):
    """Each shard's standard normals in row blocks, shard by shard.

    Returns the rows of the largest block and, per shard in order, an
    iterator of its (b, n) blocks: max(rows // step, 1) of them, step =
    _block_rows(n), the last taking the remainder, so no block is shorter
    than step rows unless the shard is. Every block is taken into one
    normals buffer per call, which the next block overwrites, and the
    shards share one source, so a shard's blocks are used up before the
    next shard's.
    """
    step = _block_rows(n)

    def sizes(rows):
        k = max(rows // step, 1)
        return [step] * (k - 1) + [rows - (k - 1) * step]

    # The largest block ends a full shard or the partial one.
    largest = max(sizes(min(count, SHARD_ROWS))[-1], sizes(count % SHARD_ROWS)[-1])
    normals = np.empty(largest * n)

    def blocks(source, rows):
        for b in sizes(rows):
            yield source.take(b * n, normals).reshape(b, n)

    return largest, (blocks(source, rows)
                     for source, rows in _shard_sources(count, stream))


def _kept_blocks(shards, units, total: np.ndarray):
    """Yield units(g), the kept rows of each block g of _shard_blocks'
    shards, skipping blocks that keep none; add each shard's sum of
    them to total, in shard order.

    The one whole-shard-sum rule of the streamed kernels: a block's sum
    starts from the sum of the shard's blocks before it, added into its
    first row, and sphere._column_sums adds the block's rows in order
    from +0.0, so a shard's kept rows are added in order, in the bits of
    units.sum(axis=0) over the whole shard. At a shard's start the carry
    is +0.0, which changes no bit of the sum. The first row is restored
    before the block is yielded; the caller may then overwrite the block.
    """
    for blocks in shards:
        vec = np.zeros(total.shape)
        for g in blocks:
            u = units(g)
            if u.shape[0] == 0:
                continue
            first = u[0].copy()
            u[0] += vec
            vec = _column_sums(u)
            u[0] = first
            yield u
        total += vec


def _map_shards(fn, n: int, count: int, stream: SeededStream) -> list:
    """fn of each shard's (rows, n) standard normals, in shard order."""
    return [fn(source.take(rows * n).reshape(rows, n))
            for source, rows in _shard_sources(count, stream)]


def _draws(model: GaussianModel, g: np.ndarray, out=None) -> np.ndarray:
    """The draws g L^T + mu, with mu added in place; into out if given."""
    y = np.matmul(g, model.chol.T, out=out)
    y += model.mu
    return y


def _directions(model: GaussianModel, g: np.ndarray, out=None) -> np.ndarray:
    """Directions of the draws g L^T + mu; degenerate rows are dropped.
    The draws go into out (g's shape) if given, else a new array, and
    the directions then overwrite them there."""
    y = _draws(model, g, out)
    units, _ = standardize_rows(y, out=y)
    return units


def _resultant(model: GaussianModel, count: int,
               stream: SeededStream) -> tuple[np.ndarray, int]:
    """Sum of the kept directions of count draws, and how many were kept.

    Each shard is drawn, transformed and standardized in the row blocks
    of _shard_blocks, through one normals buffer and one workspace per
    call, and summed by _kept_blocks. A short tail product can change
    the draws' bits: a 1-row one takes BLAS's gemv path, and an 8-row
    one changed all 8 rows at n = 50, so the last block takes the
    remainder.
    """
    n = model.n
    largest, shards = _shard_blocks(n, count, stream)
    work = np.empty(largest * n)

    def units(g):
        return _directions(model, g, work[:g.size].reshape(g.shape))

    total = np.zeros(n)
    kept = sum(len(u) for u in _kept_blocks(shards, units, total))
    return total, kept


def sample_mvn(model: GaussianModel, count: int, stream: SeededStream) -> np.ndarray:
    """count rows drawn from N(mu, cov), shape (count, n)."""
    count = _validate_int(count, "count")
    blocks = _map_shards(lambda g: _draws(model, g), model.n, count, stream)
    return blocks[0] if len(blocks) == 1 else np.vstack(blocks)


@dataclass(frozen=True, eq=False)
class DirectionalSample:
    """Rows on the centered unit sphere, one direction per observation,
    held as a C-ordered copy so that no estimate depends on the layout."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = np.array(self.matrix, dtype=np.float64, order="C")
        if arr.ndim != 2:
            raise DimensionError(f"expected a 2-d array, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 2:
            raise DimensionError(f"need shape (N >= 1, n >= 2), got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise DomainError("sample has non-finite entries")
        norms = np.linalg.norm(arr, axis=1)
        if float(np.max(np.abs(norms - 1.0))) > UNIT_TOL:
            raise DomainError("rows must have unit norm")
        if float(np.max(np.abs(arr.sum(axis=1)))) > UNIT_TOL:
            raise DomainError("rows must sum to zero")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def size(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    def points(self) -> list[UnitDirection]:
        return [UnitDirection(row) for row in self.matrix]


def sample_chi(model: GaussianModel, count: int,
               stream: SeededStream) -> DirectionalSample:
    """Directions of count draws. Degenerate draws (a probability-zero
    event) are dropped rather than errored."""
    count = _validate_int(count, "count")
    units = np.concatenate(_map_shards(lambda g: _directions(model, g),
                                       model.n, count, stream))
    if units.shape[0] == 0:
        raise DegenerateInputError("every draw was constant across components")
    return DirectionalSample(units)


def _sample_mean(total: np.ndarray, kept: int, what: str) -> tuple[np.ndarray, float]:
    """Mean of kept unit directions that sum to total, and its length.

    The one zero-resultant rule for samples: a mean resultant length of
    at most 1e-12 leaves the sample mean direction undefined.
    """
    mean = total / max(kept, 1)
    r = float(np.linalg.norm(mean))
    if r <= 1e-12:
        raise UndefinedMeanDirectionError(f"sample resultant is zero; {what}", mrl=r)
    return mean, r


def estimate_md_mrl(sample: DirectionalSample) -> MomentSummary:
    """Sample mean direction and mean resultant length. The resultant
    adds the rows in order (sphere._column_sums), as the shard sums do."""
    mean, r = _sample_mean(_column_sums(sample.matrix), sample.size,
                           "mean direction undefined")
    return MomentSummary(md=standardize(mean), mrl=r, cov_chi=None)


def estimate_cov(sample: DirectionalSample) -> np.ndarray:
    """Sample covariance of the directions with divisor N."""
    if sample.size < 2:
        raise DomainError("covariance needs at least 2 observations")
    xc = sample.matrix - sample.matrix.mean(axis=0)
    cov = (xc.T @ xc) / sample.size
    return 0.5 * (cov + cov.T)


def scatter_matrix(sample: DirectionalSample) -> np.ndarray:
    """Uncentered second moment E_hat[x x^T]; its trace is exactly 1."""
    x = sample.matrix
    scatter = (x.T @ x) / sample.size
    return 0.5 * (scatter + scatter.T)


def estimate_chi_mrl(model: GaussianModel, count: int, stream: SeededStream) -> float:
    """Mean resultant length of chi(Z) by streaming accumulation.

    Each shard is drawn, transformed, standardized and summed in row
    blocks of about 2^17 values (_resultant), so memory is O(block)
    whatever the count: no draw matrix is held, nor one shard's at
    n <= 192 or at a multiple of 8 up to 8192. At other n, where blocks
    changed the draws' bits, _block_rows keeps whole shards, O(shard).
    The sum adds the kept directions in row order within each shard and
    the shard sums in shard order (_kept_blocks), which gives the bits
    of whole-shard sums (README, determinism contract).
    """
    count = _validate_int(count, "count")
    total, kept = _resultant(model, count, stream)
    if kept == 0:
        raise DegenerateInputError("every draw was constant across components")
    return float(np.linalg.norm(total / kept))


@dataclass(frozen=True, eq=False)
class ProjectedMomentsMC:
    """Monte Carlo moments of u = y/||y||, y ~ N(x e_1, I_n), with
    elementwise standard errors for both the mean and the covariance."""

    mean: np.ndarray
    cov: np.ndarray
    se_mean: np.ndarray
    se_cov: np.ndarray
    count: int


def projected_moments_mc(n: int, x: float, count: int,
                         stream: SeededStream) -> ProjectedMomentsMC:
    """Streaming MC check of the canonical mean varrho e_1 and covariance
    diag(f, g, ..., g).

    Each shard streams in the row blocks of _shard_blocks through one
    normals buffer per call, so memory is O(block + n^2) whatever the
    count. The n at which _block_rows keeps whole shards (n > 8192, or
    n > 192 and not a multiple of 8) stay O(shard + n^2).

    Within a block, rows are normalized in place, in transposed L2-sized
    pieces whose norms add in numpy's order (sphere._row_sums): every bit
    is that of g / np.linalg.norm(g, axis=1)[:, None]. Rows of norm zero
    are dropped. The first moment is summed by _kept_blocks, so mean
    keeps the bits of u.sum(axis=0) over whole shards. The second and
    fourth moments add u^T u and (u*u)^T (u*u) block by block, so cov,
    se_mean and se_cov have the bits of that order, which differ in the
    last places from whole-shard products once a shard spans more than
    one block.
    """
    n = _validate_int(n, "n", minimum=None)
    if n < 2:
        raise DimensionError(f"need n >= 2, got {n}")
    if not (x >= 0.0 and math.isfinite(x)):
        raise DomainError(f"need x >= 0, got {x!r}")
    count = _validate_int(count, "count", minimum=2)
    step = max(_ROW_BLOCK_VALUES // n, 1)

    def units(g):
        ok = np.empty(g.shape[0], dtype=bool)
        for lo in range(0, g.shape[0], step):
            t = g[lo:lo + step].T.copy()
            t[0] += x
            r = np.sqrt(_row_sums(t * t))
            keep = np.greater(r, 0.0, out=ok[lo:lo + step])
            if not keep.all():
                r[~keep] = 1.0  # a zero row is dropped below, not divided
            t /= r
            g[lo:lo + step] = t.T
        return g if ok.all() else g[ok]

    _, shards = _shard_blocks(n, count, stream)
    s1 = np.zeros(n)
    m2 = np.zeros((n, n))
    m4 = np.zeros((n, n))
    kept = 0
    for u in _kept_blocks(shards, units, s1):
        kept += len(u)
        m2 += u.T @ u
        u *= u
        m4 += u.T @ u
    mean = s1 / kept
    raw2 = m2 / kept
    cov = raw2 - np.outer(mean, mean)
    sq = m4 / kept
    var_prod = np.clip(sq - raw2 ** 2, 0.0, None)
    se_cov = np.sqrt(var_prod / kept)
    se_mean = np.sqrt(np.clip(np.diag(raw2) - mean ** 2, 0.0, None) / kept)
    return ProjectedMomentsMC(mean=mean, cov=cov, se_mean=se_mean,
                              se_cov=se_cov, count=kept)


def _check_mass(mass: float) -> None:
    if not (0.99 <= mass <= 1.01):
        raise DomainError(f"density integrates to {mass:.6f}, not 1")


@dataclass(frozen=True, eq=False)
class DensityEstimate:
    """Gaussian kernel density on a fixed 512-point grid. Its trapezoid
    mass is within 1% of 1 where the grid resolves the kernel (bandwidth
    >= grid step); kde checks a narrower kernel on its binning grid."""

    grid: np.ndarray
    density: np.ndarray
    bandwidth: float

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=np.float64)
        dens = np.asarray(self.density, dtype=np.float64)
        if grid.shape != dens.shape or grid.ndim != 1:
            raise DimensionError("grid and density must be equal-length vectors")
        if np.any(dens < 0.0):
            raise DomainError("density must be nonnegative")
        if not self.bandwidth < float(np.diff(grid).max(initial=0.0)):
            _check_mass(float(_trapezoid(dens, grid)))
        for name, val in (("grid", grid), ("density", dens)):
            val = np.array(val)
            val.setflags(write=False)
            object.__setattr__(self, name, val)


_KDE_GRID_POINTS = 512
# The binning grid has a step of at most h / _KDE_BINS_PER_H. Refining
# the output grid at most 2048-fold keeps it within 511 * 2048 + 1 <=
# 2^20 + 1 points and sets the bandwidth floor at (grid step) / 16.
_KDE_BINS_PER_H = 128
_KDE_MAX_REFINE = 2048
# The kernel is cut off at this many bandwidths (relative loss e^-32).
_KDE_CUTOFF = 8.0

# np.trapz was renamed np.trapezoid in numpy 2.0.
_trapezoid = getattr(np, "trapezoid", getattr(np, "trapz", None))


def kde(values, bandwidth: float | None = None) -> DensityEstimate:
    """Gaussian KDE with the 0.9 min(sd, IQR/1.34) N^(-1/5) default width.

    The values are linearly binned onto a grid that refines the output
    grid r-fold, r = ceil(128 * step / h), and convolved with the kernel
    by FFT (Silverman 1982, AS 176; Wand 1994). Against the direct sum,
    the error is at most about (d/h)^2 / 8 of the peak, d = step / r.
    The mass is checked on that binning grid, which resolves the kernel.

    Zero spread makes the automatic bandwidth collapse; that raises
    DegenerateInputError rather than returning a delta spike. A
    bandwidth below step / 16 raises DomainError, which keeps the
    binning grid within 2^20 + 1 points.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.ndim != 1 or vals.size < 2:
        raise DomainError("kde needs a 1-d array with at least 2 values")
    if not np.all(np.isfinite(vals)):
        raise DomainError("kde values must be finite")
    if bandwidth is None:
        sd = float(vals.std())
        q1, q3 = np.percentile(vals, [25.0, 75.0])
        h = 0.9 * min(sd, (q3 - q1) / 1.34) * vals.size ** -0.2
        if h <= 0.0:
            raise DegenerateInputError(
                "automatic bandwidth is zero (no spread in the data)"
            )
    else:
        h = float(bandwidth)
        if not (h > 0.0 and math.isfinite(h)):
            raise DomainError(f"bandwidth must be positive, got {bandwidth!r}")
    lo = float(vals.min()) - 3.0 * h
    hi = float(vals.max()) + 3.0 * h
    grid = np.linspace(lo, hi, _KDE_GRID_POINTS)
    step = (hi - lo) / (_KDE_GRID_POINTS - 1)
    refine = _KDE_BINS_PER_H * step / h
    if not refine <= _KDE_MAX_REFINE:
        raise DomainError(
            f"bandwidth {h!r} is below the floor (grid step)/16 = "
            f"{step / 16.0!r}, which keeps the binned KDE grid within "
            f"2^20 + 1 points"
        )
    r = math.ceil(refine)
    m = (_KDE_GRID_POINTS - 1) * r + 1
    d = (hi - lo) / (m - 1)

    pos = (vals - lo) / d
    left = np.floor(pos).astype(np.int64)
    frac = pos - left
    counts = (np.bincount(left, weights=1.0 - frac, minlength=m)
              + np.bincount(left + 1, weights=frac, minlength=m))

    half = math.ceil(_KDE_CUTOFF * h / d)
    offsets = np.arange(-half, half + 1) * (d / h)
    kernel = np.exp(-0.5 * offsets * offsets)
    size = 1 << (m + 2 * half).bit_length()
    conv = np.fft.irfft(np.fft.rfft(counts, size) * np.fft.rfft(kernel, size),
                        size)
    scale = vals.size * h * math.sqrt(2.0 * math.pi)
    _check_mass(float(_trapezoid(conv[half:half + m], dx=d)) / scale)
    dens = conv[half:half + m:r] / scale
    # Round-off leaves values near -1e-13 in empty stretches.
    np.maximum(dens, 0.0, out=dens)
    return DensityEstimate(grid=grid, density=dens, bandwidth=h)


def ic_distribution(model: GaussianModel, theta_mode: str, count: int,
                    stream: SeededStream, bandwidth: float | None = None
                    ) -> tuple[DensityEstimate, np.ndarray]:
    """Sampled distribution of T = theta . chi(Z).

    theta_mode "chi_mu" projects onto the standardized model mean inside
    each shard. "sample_md" projects onto the sample mean direction: it
    draws once, holds every shard's kept directions (count * n * 8
    bytes) until their resultant fixes theta, then projects each shard.
    The resultant adds each shard's directions in row order
    (sphere._column_sums) and the shard sums in shard order, as
    _kept_blocks does.
    Returns the density estimate and the raw projections.
    """
    if theta_mode not in ("chi_mu", "sample_md"):
        raise DomainError(f"theta_mode must be chi_mu or sample_md, got {theta_mode!r}")
    count = _validate_int(count, "count", minimum=2)
    if theta_mode == "chi_mu":
        theta = _mean_direction(model.mu).coords
        pieces = _map_shards(lambda g: _directions(model, g) @ theta, model.n,
                             count, stream)
    else:
        blocks = _map_shards(lambda g: _directions(model, g), model.n, count,
                             stream)
        resultant = np.zeros(model.n)
        for units in blocks:
            resultant += _column_sums(units)
        _sample_mean(resultant, sum(len(units) for units in blocks),
                     "sample_md projection undefined")
        theta = standardize(resultant).coords
        pieces = [units @ theta for units in blocks]
        del blocks  # the KDE below runs without the held directions
    values = np.concatenate(pieces)
    if float(np.max(np.abs(values))) > 1.0 + 1e-9:
        raise DomainError("projection escaped [-1, 1]; inputs are inconsistent")
    values = np.clip(values, -1.0, 1.0)
    return kde(values, bandwidth), values


@dataclass(frozen=True, eq=False)
class PerturbationPoint:
    """One perturbation setting and its estimated direction moments."""

    factor: float
    md: UnitDirection
    mrl: float


def md_perturbation_experiment(mu, cov, axis: str, factors, count: int,
                               stream: SeededStream) -> list[PerturbationPoint]:
    """Estimated mean direction as one model parameter is scaled.

    axis "mu1" multiplies the first mean component by each factor;
    axis "sigma1" scales the first row and column of the covariance
    (so the first volatility is scaled, correlations untouched).
    Factor j runs on stream_id + j * STREAM_BLOCK.
    """
    if axis not in ("mu1", "sigma1"):
        raise DomainError(f"axis must be mu1 or sigma1, got {axis!r}")
    mu = np.asarray(mu, dtype=np.float64)
    cov = np.asarray(cov, dtype=np.float64)
    factors = [float(k) for k in factors]
    if len(factors) == 0:
        raise DomainError("need at least one factor")
    if any(not (k > 0.0 and math.isfinite(k)) for k in factors):
        raise DomainError("factors must be positive and finite")
    count = _validate_int(count, "count", minimum=2)

    out = []
    for j, k in enumerate(factors):
        if axis == "mu1":
            mu_k = mu.copy()
            mu_k[0] *= k
            cov_k = cov
        else:
            scale = np.ones(mu.size)
            scale[0] = k
            cov_k = cov * np.outer(scale, scale)
            mu_k = mu
        total, kept = _resultant(GaussianModel(mu_k, cov_k), count,
                                 stream.shifted(j * STREAM_BLOCK))
        mean, r = _sample_mean(total, kept, f"mean direction undefined at factor {k}")
        out.append(PerturbationPoint(factor=k, md=standardize(mean), mrl=r))
    return out
