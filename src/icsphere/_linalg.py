"""Dense symmetric eigendecomposition and Cholesky factorization.

Eigenpairs come from LAPACK; a tie rule and a sign rule make the
eigenvectors a function of the matrix alone. The Cholesky factor is an
explicit column loop, so the Monte Carlo draws built on it keep their bits.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, DimensionError, DomainError, ModelError

__all__ = ["TIE_TOL", "tie_groups", "eigh_sorted", "fix_column_signs", "cholesky_lower"]

# Ascending neighbours at most TIE_TOL * ||A||_F apart are tied; the
# multiplicity min_variance reports is the size of the same group.
TIE_TOL = 1e-8

# A Gram-Schmidt residual at most this long counts as dependent; any
# value below 1/sqrt(n) still leaves enough rows for a full basis.
_INDEPENDENCE_TOL = 1e-6


def fix_column_signs(v: np.ndarray) -> np.ndarray:
    """Flip columns so the largest-magnitude entry is positive.

    Ties go to the lowest row index (argmax of |.| picks the first
    maximum). In-place on v, which is also returned.
    """
    lead = np.argmax(np.abs(v), axis=0)
    flip = v[lead, np.arange(v.shape[1])] < 0.0
    v[:, flip] *= -1.0
    return v


def tie_groups(w: np.ndarray, scale: float) -> list[tuple[int, int]]:
    """Half-open index ranges of ascending w whose neighbours are at
    most TIE_TOL * scale apart; scale is the matrix's Frobenius norm."""
    cuts = (np.flatnonzero(np.diff(w) > TIE_TOL * scale) + 1).tolist()
    bounds = [0, *cuts, len(w)]
    return list(zip(bounds[:-1], bounds[1:]))


def _projector_basis(vg: np.ndarray) -> np.ndarray:
    """Gram-Schmidt of the columns P e_j of P = vg vg^T, in index order.

    Row j of vg holds the coordinates of P e_j in the basis vg, so the
    rows are orthogonalized until k = rank are taken. The result is the
    same for vg R with any orthogonal R.
    """
    k = vg.shape[1]
    q = np.zeros((k, k))
    taken = 0
    for row in vg:
        r = row.copy()
        for _ in range(2):  # the second pass restores orthogonality
            r -= q[:, :taken] @ (q[:, :taken].T @ r)
        norm = float(np.linalg.norm(r))
        if norm > _INDEPENDENCE_TOL:
            q[:, taken] = r / norm
            taken += 1
            if taken == k:
                break
    return vg @ q


def eigh_sorted(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors of symmetric a.

    Column i pairs with eigenvalue i. Each group of tie_groups gets the
    projector basis, which depends only on its eigenspace; signs follow
    fix_column_signs. Non-finite or asymmetric input raises DomainError,
    a LAPACK failure ConvergenceError.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise DimensionError(f"expected a non-empty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.T))) > 1e-10 * scale:
        raise DomainError("matrix is not symmetric")
    a = 0.5 * (a + a.T)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"symmetric eigensolver failed: {exc}") from None
    for lo, hi in tie_groups(w, float(np.linalg.norm(a, "fro"))):
        if hi - lo > 1:
            v[:, lo:hi] = _projector_basis(v[:, lo:hi])
    fix_column_signs(v)
    return w, v


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L L^T = a; raises ModelError if a is not PD."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    low = np.zeros((n, n))
    for j in range(n):
        d = a[j, j] - low[j, :j] @ low[j, :j]
        if not (d > 0.0) or not math.isfinite(d):
            raise ModelError(
                f"matrix is not positive definite (pivot {j} is {d!r})"
            )
        low[j, j] = math.sqrt(d)
        if j + 1 < n:
            low[j + 1:, j] = (a[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    return low
