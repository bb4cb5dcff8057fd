"""Geometry of centered unit directions.

A cross-sectional observation is mapped to the sphere by removing its
mean and dividing by the norm of what is left. The image set is the
intersection of the unit sphere with the zero-sum hyperplane; this
module owns that map and the orthogonal change of basis that makes
moment formulas diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import symmetric_eigen
from .errors import DegenerateInputError, DimensionError, DomainError

__all__ = [
    "UNIT_TOL",
    "UnitDirection",
    "Representation",
    "center",
    "centering_matrix",
    "standardize",
    "standardize_rows",
    "helmert_v",
    "build_representation",
    "support_surface_area",
]

# Membership tolerance for the constrained sphere: unit norm and zero sum.
UNIT_TOL = 1e-12

# Relative floor below which a centered vector counts as zero.
DEGENERACY_REL = 1e-12
# standardize_rows scales a row whose sum of squares is outside this range.
_SUMSQ_LOW, _SUMSQ_HIGH = 2.0 ** -960, 2.0 ** 960

# Values per block of standardize_rows: a block and its squares stay in
# L2 cache while each step runs over them.
_ROW_BLOCK_VALUES = 1 << 15

# Largest entry of u^T u - I that Representation accepts as orthogonal.
_ORTHO_TOL = 1e-10


def _as_vector(z) -> np.ndarray:
    arr = np.asarray(z, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionError(f"expected a 1-d vector, got shape {arr.shape}")
    if arr.size < 2:
        raise DimensionError(f"need at least 2 components, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise DomainError("vector has non-finite entries")
    return arr


@dataclass(frozen=True, eq=False)
class UnitDirection:
    """A point on the centered unit sphere: unit norm, components sum to zero."""

    coords: np.ndarray

    def __post_init__(self):
        arr = _as_vector(self.coords)
        arr = arr.copy()
        if abs(float(np.linalg.norm(arr)) - 1.0) > UNIT_TOL:
            raise DomainError("coordinates do not have unit norm")
        if abs(float(arr.sum())) > UNIT_TOL:
            raise DomainError("coordinates do not sum to zero")
        arr.setflags(write=False)
        object.__setattr__(self, "coords", arr)

    @property
    def dim(self) -> int:
        return int(self.coords.size)

    def __neg__(self) -> "UnitDirection":
        return UnitDirection(-self.coords)


def center(z) -> np.ndarray:
    """Subtract the cross-sectional mean. Matrix-free application of P."""
    arr = _as_vector(z)
    return arr - arr.mean()


def centering_matrix(n: int) -> np.ndarray:
    """Dense n x n projection onto the zero-sum hyperplane."""
    if n < 2:
        raise DimensionError(f"need n >= 2, got {n}")
    return np.eye(n) - 1.0 / n


def standardize(z) -> UnitDirection:
    """Map z to its centered unit direction: standardize_rows on one row.

    Raises DegenerateInputError when z is (numerically) constant, i.e.
    the centered part is below 1e-12 of the input's norm.
    """
    units, kept = standardize_rows(_as_vector(z)[None])
    if not kept[0]:
        raise DegenerateInputError(
            "input is constant across components; its direction is undefined"
        )
    return UnitDirection(units[0])


def _row_sums(t: np.ndarray) -> np.ndarray:
    """Sums over the first axis of t, added in numpy's order for rows.

    Column j of the result equals numpy's add.reduce(t.T, axis=1)[j]
    bit for bit when t.T is C-ordered. numpy sums such a row pairwise:
    fewer than 8 terms in sequence; up to 128 terms in 8 partial sums
    over every 8th term, joined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5)
    + (r6 + r7)), with the terms past the last multiple of 8 added after
    that in sequence; more terms as the sum of two halves split at a
    multiple of 8.

    numpy also adds each total to its identity 0.0, which only turns a
    total of -0.0 into 0.0; that addition is skipped here. Only a row of
    negative zeros sums to -0.0, and standardize_rows drops such a row
    whatever the sign of its sum.
    """
    n = t.shape[0]
    if n < 8:
        s = t[0] + t[1]
        for j in range(2, n):
            s += t[j]
        return s
    if n <= 128:
        tail = n - n % 8
        r = t[:8] if tail == 8 else t[:8] + t[8:16]
        for i in range(16, tail, 8):
            r += t[i:i + 8]
        r = r[0::2] + r[1::2]
        r = r[0::2] + r[1::2]
        s = r[0] + r[1]
        for j in range(tail, n):
            s += t[j]
        return s
    half = n // 2 - n // 2 % 8
    return _row_sums(t[:half]) + _row_sums(t[half:])


def _column_sums(x: np.ndarray) -> np.ndarray:
    """Sums over the rows of a float64 matrix x, added row by row from
    +0.0: bit for bit x.sum(axis=0) when the column stride of x is the
    smaller one (C-ordered, or a column slice of a C-ordered array).

    einsum keeps the column index innermost, as numpy's reduce does, so
    it adds the rows in the same order, but in one C loop where
    add.reduce runs its inner loop once per row: 0.23 against 1.18 ms
    for a 65,536 x 3 shard, 0.072 against 0.259 ms for 8,192 x 10
    (2 vCPU, numpy 2.4.6).
    """
    return np.einsum("ij->j", x)


def standardize_rows(rows, *, out=None) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized standardize over the rows of a matrix.

    Returns (units, kept) where kept is a boolean mask over input rows
    and units stacks the directions of the surviving rows. Degenerate
    rows are dropped, not errored, because bulk callers expect that.

    The rows are taken in blocks of about _ROW_BLOCK_VALUES values, each
    copied transposed into contiguous (n, rows) views of reused buffers,
    so that every step is a long vector op over a block that stays in L2
    cache: the mean, the centering, the norm, the degeneracy floor from
    the row's norm, the division, a second centering pass and the
    renormalization, per element in that order. Row sums are added in
    numpy's order for add.reduce(x, axis=1) on a C-ordered x (see
    _row_sums), so every output bit equals that of the same steps written
    as whole-matrix numpy calls on a C-ordered copy. The bits depend on
    the values only, not on the block size or on the memory layout.
    A row whose sum of squares is out of range is first multiplied by an
    exact power of two, 2^-e with 2^e above its largest |entry|, so no bit
    depends on the row's scale and the relative floor alone decides.
    The units are written into out, an array of the rows' shape, if given
    (else a new one), and returned as its first kept_count rows. out may
    be the rows array itself: a block is copied out before any unit
    lands on its rows.
    """
    arr = np.asarray(rows, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionError(f"expected a 2-d array, got shape {arr.shape}")
    m, n = arr.shape
    if n < 2:
        raise DimensionError("rows need at least 2 components")
    step = max(_ROW_BLOCK_VALUES // n, 1)
    units = np.empty((m, n)) if out is None else out
    kept = np.empty(m, dtype=bool)
    block = np.empty(n * min(step, m))
    squares = np.empty_like(block)
    done = 0
    # A square past the float range is inf, which marks its row for scaling.
    with np.errstate(over="ignore"):
        for lo in range(0, m, step):
            b = min(step, m - lo)
            t, sq = block[:n * b].reshape(n, b), squares[:n * b].reshape(n, b)
            np.copyto(t, arr[lo:lo + b].T)
            if not np.isfinite(t).all():
                raise DomainError("matrix has non-finite entries")
            np.multiply(t, t, out=sq)
            sumsq = _row_sums(sq)
            far = (sumsq < _SUMSQ_LOW) | (sumsq > _SUMSQ_HIGH)
            if far.any():
                _, e = np.frexp(np.abs(t[:, far]).max(axis=0))
                t[:, far] = scaled = np.ldexp(t[:, far], -e)
                sumsq[far] = _row_sums(scaled * scaled)
            floor = DEGENERACY_REL * np.sqrt(sumsq)
            t -= _row_sums(t) / n
            np.multiply(t, t, out=sq)
            r = np.sqrt(_row_sums(sq))
            keep = np.greater(r, floor, out=kept[lo:lo + b])
            if not keep.all():
                t, r = t[:, keep], r[keep]
                sq = squares[:n * r.size].reshape(n, r.size)
            # A second centering pass scrubs the O(eps * scale / r) residual
            # sum that the first pass leaves when the input is nearly constant.
            t /= r
            t -= _row_sums(t) / n
            np.multiply(t, t, out=sq)
            t /= np.sqrt(_row_sums(sq))
            units[done:done + r.size] = t.T
            done += r.size
    return units[:done], kept


def helmert_v(n: int) -> np.ndarray:
    """Orthogonal basis whose last column is the constant direction.

    Columns 1..n-1 span the zero-sum hyperplane, so V^T P V is the
    identity padded with a trailing zero row and column.
    """
    if n < 2:
        raise DimensionError(f"need n >= 2, got {n}")
    v = np.zeros((n, n))
    for j in range(1, n):
        d = math.sqrt((n - j) * (n - j + 1.0))
        v[j - 1, j - 1] = (n - j) / d
        v[j:, j - 1] = -1.0 / d
    v[:, n - 1] = 1.0 / math.sqrt(n)
    return v


@dataclass(frozen=True, eq=False)
class Representation:
    """Change of basis that diagonalizes a projected covariance.

    u is orthogonal with last column constant; lam holds the n-1
    variances of the uncorrelated block, sorted descending; nu is the
    projected mean expressed in the new basis.
    """

    u: np.ndarray
    lam: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        u = np.array(self.u, dtype=np.float64)
        lam = np.array(self.lam, dtype=np.float64)
        nu = np.array(self.nu, dtype=np.float64)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise DimensionError(f"u must be square, got {u.shape}")
        n = u.shape[0]
        if lam.shape != (n - 1,) or nu.shape != (n - 1,):
            raise DimensionError("lam and nu must have length n - 1")
        if np.max(np.abs(u.T @ u - np.eye(n))) > _ORTHO_TOL:
            raise DomainError("u is not orthogonal")
        if np.any(lam < 0.0):
            raise DomainError("lam must be componentwise nonnegative")
        if np.any(lam[:-1] < lam[1:]):
            raise DomainError("lam must be sorted descending")
        for name, val in (("u", u), ("lam", lam), ("nu", nu)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return int(self.u.shape[0])


def build_representation(mu, cov) -> Representation:
    """Rotate a model (mu, cov) into the basis that decorrelates P Z.

    The last basis vector is the constant direction; the remaining n-1
    eigen-directions of the projected covariance come sorted by
    decreasing variance with deterministic signs.
    """
    mu = _as_vector(mu)
    cov = np.asarray(cov, dtype=np.float64)
    n = mu.size
    if cov.shape != (n, n):
        raise DimensionError(f"cov must be {n} x {n}, got {cov.shape}")
    v = helmert_v(n)
    b = v.T @ cov @ v
    b = 0.5 * (b[: n - 1, : n - 1] + b[: n - 1, : n - 1].T)
    w, q = symmetric_eigen(b)
    w, q = w[::-1], q[:, ::-1]

    u = v.copy()
    u[:, : n - 1] = v[:, : n - 1] @ q
    lam = np.clip(w, 0.0, None)

    pu = u - u.mean(axis=0, keepdims=True)
    gram = u.T @ pu
    target = np.eye(n)
    target[n - 1, n - 1] = 0.0
    if np.max(np.abs(gram - target)) > 1e-10:
        raise DomainError("projected Gram matrix deviates from its block form")

    pmu = mu - mu.mean()
    nu = (u.T @ pmu)[: n - 1]
    return Representation(u=u, lam=lam, nu=nu)


def support_surface_area(n: int) -> float:
    """Surface area of the support sphere in n coordinates (an (n-2)-sphere).

    Defined for n >= 3; the measure collapses to two points at n = 2.
    """
    if n < 3:
        raise DimensionError(f"surface area needs n >= 3, got {n}")
    return math.exp(
        math.log(2.0) + 0.5 * (n - 2) * math.log(math.pi) - math.lgamma((n - 2) / 2.0)
    )
