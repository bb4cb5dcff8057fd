"""Forecast-direction optimization.

The decision variable is a centered unit vector theta; the objectives
are the expectation and variance of the projection T = theta . chi(Z).
All three problems here have closed-form or eigenvalue solutions; no
iterative optimizer is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._linalg import fix_column_signs, symmetric_eigen, tie_groups
from .errors import (
    DimensionError,
    DomainError,
    InvalidCovarianceError,
    NoUniqueSolutionError,
)
from .moments import HomoscedasticModel, MomentSummary, _f_g, _mean_direction
from .specfun import varrho
from .sphere import UnitDirection, standardize

__all__ = [
    "OptimizationResult",
    "max_expectation",
    "symmetric_eigen",
    "min_variance",
    "mean_variance_homoscedastic",
]


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    """Optimizer output: the direction, its objective value, and how many
    orthogonal directions attain the same value."""

    theta_star: UnitDirection
    value: float
    multiplicity: int = 1
    variance_only: bool = False

    def to_json_dict(self) -> dict:
        out = {
            "theta": [float(x) for x in self.theta_star.coords],
            "value": float(self.value),
            "multiplicity": int(self.multiplicity),
        }
        if self.variance_only:
            out["variance_only"] = True
        return out


def max_expectation(summary: MomentSummary) -> OptimizationResult:
    """Maximize E[T] over the centered unit sphere.

    The maximizer is the mean direction itself and the value is the
    mean resultant length. A zero resultant leaves every direction
    equally good, which is not a solution.
    """
    if summary.mrl <= 0.0:
        raise NoUniqueSolutionError(
            "mean resultant length is zero; E[T] is identically zero"
        )
    return OptimizationResult(theta_star=summary.md, value=summary.mrl)


def min_variance(cov_chi) -> OptimizationResult:
    """Minimize var(T) = theta^T cov_chi theta over the centered sphere.

    cov_chi must annihilate the constant vector (that eigenvalue is the
    constraint direction, not a candidate). The minimizer is the
    eigenvector of the second-smallest eigenvalue; ties are reported
    through multiplicity and resolved by symmetric_eigen's tie rule.
    """
    cov = np.asarray(cov_chi, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise DimensionError(f"expected a square matrix, got {cov.shape}")
    n = cov.shape[0]
    if n < 2:
        raise DimensionError("need at least 2 assets")
    fro = float(np.linalg.norm(cov, "fro"))
    kernel_norm = float(np.linalg.norm(cov @ np.ones(n)))
    if kernel_norm > 1e-8 * max(fro, 1e-300):
        raise InvalidCovarianceError(
            "matrix does not annihilate the constant vector, so it is not "
            "a covariance of centered unit directions"
        )
    w, v = symmetric_eigen(cov)
    # index 0 is the constraint kernel (eigenvalue ~ 0 along 1).
    value = float(w[1])
    lo, hi = next(g for g in tie_groups(w, fro) if g[0] <= 1 < g[1])
    multiplicity = hi - max(lo, 1)
    # standardize scrubs the numerical leakage along the constant vector.
    vec = fix_column_signs(standardize(v[:, 1]).coords[:, None].copy())[:, 0]
    return OptimizationResult(
        theta_star=UnitDirection(vec), value=value, multiplicity=multiplicity
    )


def mean_variance_homoscedastic(
    model: HomoscedasticModel,
    risk_aversion: float,
) -> OptimizationResult:
    """Maximize E[T] - risk_aversion * var(T) under the homoscedastic model.

    The mean direction is optimal for every penalty level, including the
    variance-only limit risk_aversion = inf, because the variance along
    the mean axis is already the smallest one whenever the mean exists.
    """
    if math.isnan(risk_aversion) or risk_aversion < 0.0:
        raise DomainError(
            f"risk_aversion must be >= 0 (inf allowed), got {risk_aversion!r}"
        )
    theta = _mean_direction(model.mu)
    x = model.concentration()
    f, _ = _f_g(model.n, x)
    if math.isinf(risk_aversion):
        return OptimizationResult(
            theta_star=theta, value=f, multiplicity=1, variance_only=True
        )
    value = varrho(model.n - 1, x) - risk_aversion * f
    return OptimizationResult(theta_star=theta, value=value, multiplicity=1)
