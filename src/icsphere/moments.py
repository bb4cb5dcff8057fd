"""Closed-form moments of standardized cross-sections.

Given a Gaussian cross-section Z, the standardized direction chi(Z) has
a mean direction, a mean resultant length, and a covariance with a two
eigenvalue structure. Everything here evaluates those objects exactly
from model parameters; Monte Carlo counterparts live in montecarlo.py.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._linalg import cholesky_lower
from .errors import (
    DegenerateInputError,
    DimensionError,
    DomainError,
    ModelError,
    UndefinedMeanDirectionError,
)
from .specfun import f_var, g_var, varrho
from .sphere import UnitDirection, centering_matrix, standardize, _as_vector

__all__ = [
    "HomoscedasticModel",
    "GaussianModel",
    "MomentSummary",
    "two_dim_exact",
    "two_dim_normal",
    "md_mrl_homoscedastic",
    "cov_chi_homoscedastic",
    "projected_cov_canonical",
    "expectation_T",
    "variance_T",
    "variance_T_homoscedastic",
]

_SQRT_HALF = math.sqrt(0.5)


@dataclass(frozen=True, eq=False)
class HomoscedasticModel:
    """Gaussian cross-section with one variance and one pairwise correlation.

    Positive definiteness of sigma^2 [(1 - rho) I + rho 1 1^T] needs
    both 1 - rho > 0 and 1 + (n - 1) rho > 0.
    """

    mu: np.ndarray
    sigma: float
    rho: float

    def __post_init__(self):
        mu = _as_vector(self.mu).copy()
        mu.setflags(write=False)
        object.__setattr__(self, "mu", mu)
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ModelError(f"sigma must be positive, got {self.sigma!r}")
        n = mu.size
        if not (1.0 - self.rho > 0.0):
            raise ModelError(f"need 1 - rho > 0, got rho = {self.rho!r}")
        if not (1.0 + (n - 1) * self.rho > 0.0):
            raise ModelError(
                f"need 1 + (n-1) rho > 0 for n = {n}, got rho = {self.rho!r}"
            )

    @property
    def n(self) -> int:
        return int(self.mu.size)

    def covariance(self) -> np.ndarray:
        n = self.n
        # sigma ** 2 overflows from sigma = 2^512 on.
        s2 = self.sigma ** 2 if self.sigma < 2.0 ** 512 else math.inf
        if not 2.0 ** -1022 <= s2 < math.inf:
            raise ModelError(f"sigma^2 is not a normal float: sigma = {self.sigma!r}")
        return s2 * ((1.0 - self.rho) * np.eye(n) + self.rho * np.ones((n, n)))

    def concentration(self) -> float:
        """The scalar argument ||P mu|| / (sigma sqrt(1 - rho)); scale-free, so
        mu and sigma beyond 2^+-400 are first scaled by one power of two."""
        mu, sigma = self.mu, self.sigma
        _, e = math.frexp(max(float(np.max(np.abs(mu))), sigma))
        if abs(e) > 400:
            mu, sigma = np.ldexp(mu, -e), math.ldexp(sigma, -e)
        pmu = mu - mu.mean()
        return float(np.linalg.norm(pmu)) / (sigma * math.sqrt(1.0 - self.rho))

    def to_gaussian(self) -> "GaussianModel":
        return GaussianModel(self.mu, self.covariance())


@dataclass(frozen=True, eq=False)
class GaussianModel:
    """Gaussian cross-section with a general positive definite covariance."""

    mu: np.ndarray
    cov: np.ndarray
    chol: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mu = _as_vector(self.mu).copy()
        cov = np.array(self.cov, dtype=np.float64)
        n = mu.size
        if cov.shape != (n, n):
            raise DimensionError(f"cov must be {n} x {n}, got {cov.shape}")
        if not np.all(np.isfinite(cov)):
            raise ModelError("cov has non-finite entries")
        scale = max(1.0, float(np.max(np.abs(cov))))
        if float(np.max(np.abs(cov - cov.T))) > 1e-12 * scale:
            raise ModelError("cov is not symmetric")
        cov = 0.5 * (cov + cov.T)
        chol = cholesky_lower(cov)  # raises ModelError if not PD
        for name, val in (("mu", mu), ("cov", cov), ("chol", chol)):
            val.setflags(write=False)
            object.__setattr__(self, name, val)

    @property
    def n(self) -> int:
        return int(self.mu.size)


@dataclass(frozen=True, eq=False)
class MomentSummary:
    """Mean direction, mean resultant length, optional direction covariance.

    Invariants: 0 <= mrl <= 1; when cov_chi is present it annihilates
    the constant vector and its trace equals 1 - mrl^2.
    """

    md: UnitDirection
    mrl: float
    cov_chi: np.ndarray | None = None

    def __post_init__(self):
        if not (-1e-9 <= self.mrl <= 1.0 + 1e-9):
            raise DomainError(f"mrl must lie in [0, 1], got {self.mrl!r}")
        object.__setattr__(self, "mrl", float(min(max(self.mrl, 0.0), 1.0)))
        if self.cov_chi is not None:
            cov = np.array(self.cov_chi, dtype=np.float64)
            n = self.md.dim
            if cov.shape != (n, n):
                raise DimensionError(f"cov_chi must be {n} x {n}, got {cov.shape}")
            if abs(float(np.trace(cov)) - (1.0 - self.mrl ** 2)) > 1e-8:
                raise DomainError("trace of cov_chi must equal 1 - mrl^2")
            if float(np.max(np.abs(cov @ np.ones(n)))) > 1e-8:
                raise DomainError("cov_chi must annihilate the constant vector")
            cov.setflags(write=False)
            object.__setattr__(self, "cov_chi", cov)

    def to_json_dict(self) -> dict:
        return {
            "md": [float(x) for x in self.md.coords],
            "mrl": float(self.mrl),
            "cov_chi": None
            if self.cov_chi is None
            else [[float(x) for x in row] for row in self.cov_chi],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "MomentSummary":
        cov = data.get("cov_chi")
        return cls(
            md=UnitDirection(np.asarray(data["md"], dtype=np.float64)),
            mrl=float(data["mrl"]),
            cov_chi=None if cov is None else np.asarray(cov, dtype=np.float64),
        )


def _two_point(side: float, mrl: float, var: float) -> MomentSummary:
    """Two-asset moments: chi(Z) is +-(1, -1)/sqrt 2, its mean direction
    the one of the sign of side, and var = 1 - mrl^2 along it."""
    if mrl == 0.0:
        raise UndefinedMeanDirectionError(
            "P{Z_1 > Z_2} = 1/2 leaves no mean direction", mrl=0.0
        )
    sign = 1.0 if side > 0.0 else -1.0
    v = np.array([sign * _SQRT_HALF, -sign * _SQRT_HALF])
    return MomentSummary(md=UnitDirection(v), mrl=mrl, cov_chi=var * np.outer(v, v))


def two_dim_exact(p_greater: float) -> MomentSummary:
    """Two-asset moments from the single probability P{Z_1 > Z_2}.

    Distribution-free: with two assets the direction lives on a two
    point support, so one probability pins everything down. 1 - mrl^2 is
    formed as 4p(1 - p), which keeps its digits as p nears 0 or 1.
    """
    if not (0.0 <= p_greater <= 1.0):
        raise DomainError(f"probability must lie in [0, 1], got {p_greater!r}")
    return _two_point(p_greater - 0.5, 2.0 * abs(p_greater - 0.5),
                      4.0 * p_greater * (1.0 - p_greater))


def two_dim_normal(mu1: float, mu2: float, sigma1: float, sigma2: float,
                   rho12: float) -> MomentSummary:
    """Two-asset Gaussian moments at d = (mu1 - mu2) / sd(Z_1 - Z_2):
    mrl = erf(|d|/sqrt 2), and 1 - mrl^2 from _f_g's erfc rule. d is
    scale-free, so when max(sigma1, sigma2) lies beyond 2^+-400 all four
    values are first scaled by the power of two that brings it into [1/2, 1)."""
    if not all(math.isfinite(v) for v in (mu1, mu2, sigma1, sigma2)):
        raise ModelError("means and standard deviations must be finite")
    if not (sigma1 > 0.0 and sigma2 > 0.0):
        raise ModelError("standard deviations must be positive")
    if not (-1.0 < rho12 < 1.0):
        raise ModelError(f"need -1 < rho12 < 1, got {rho12!r}")
    _, e = math.frexp(max(sigma1, sigma2))
    e = e if abs(e) > 400 else 0
    sigma1, sigma2 = math.ldexp(sigma1, -e), math.ldexp(sigma2, -e)
    try:
        gap = math.ldexp(mu1, -e) - math.ldexp(mu2, -e)
    except OverflowError:  # distinct means give |d| > 2^969: erf is 1
        gap = 0.0 if mu1 == mu2 else math.copysign(math.inf, mu1 - mu2)
    spread_var = sigma1 ** 2 + sigma2 ** 2 - 2.0 * rho12 * sigma1 * sigma2
    if not (spread_var > 0.0):
        raise ModelError("Z_1 - Z_2 has no variance; direction is degenerate")
    d = gap / math.sqrt(spread_var)
    return _two_point(d, math.erf(abs(d) * _SQRT_HALF), _f_g(2, abs(d))[0])


def _mean_direction(mu: np.ndarray) -> UnitDirection:
    """chi(mu); a mean that standardize finds constant has no direction."""
    try:
        return standardize(mu)
    except DegenerateInputError:
        raise UndefinedMeanDirectionError(
            "mean vector is constant across components; mean direction undefined",
            mrl=0.0,
        ) from None


def _f_g(n: int, x: float) -> tuple[float, float]:
    """Variances of chi(Z) along and across the mean axis, in n coordinates.

    f_var and g_var at dimension n - 1. At n = 2 the hyperplane is a
    line: chi(Z) is +-chi(mu), so f = 1 - varrho(1, x)^2 and g = 0.
    varrho(1, x) = 1 - e with e = erfc(x/sqrt 2), so f = e (2 - e)
    without cancellation.
    """
    if n == 2:
        e = math.erfc(x * _SQRT_HALF)
        return e * (2.0 - e), 0.0
    return f_var(n - 1, x), g_var(n - 1, x)


def md_mrl_homoscedastic(model: HomoscedasticModel) -> MomentSummary:
    """Exact mean direction, resultant length, and covariance of chi(Z)."""
    md = _mean_direction(model.mu)
    x = model.concentration()
    mrl = varrho(model.n - 1, x)
    cov = cov_chi_homoscedastic(model)
    return MomentSummary(md=md, mrl=mrl, cov_chi=cov)


def projected_cov_canonical(n: int, x: float) -> np.ndarray:
    """diag(f, g, ..., g) in n coordinates at concentration x.

    The covariance of the projected direction in the basis whose first
    axis carries the mean.
    """
    if n < 2:
        raise DimensionError(f"need n >= 2, got {n}")
    out = np.diag(np.full(n, g_var(n, x)))
    out[0, 0] = f_var(n, x)
    return out


def cov_chi_homoscedastic(model: HomoscedasticModel) -> np.ndarray:
    """Covariance of chi(Z) under the one-variance one-correlation model.

    Rank-one plus isotropic on the zero-sum hyperplane:
    (f - g) chi(mu) chi(mu)^T + g P, with f, g at dimension n - 1. The
    constant-mean model is isotropic: P / (n - 1).
    """
    n = model.n
    try:
        chi = _mean_direction(model.mu).coords
    except UndefinedMeanDirectionError:
        return centering_matrix(n) / (n - 1.0)
    f, g = _f_g(n, model.concentration())
    return (f - g) * np.outer(chi, chi) + g * centering_matrix(n)


def expectation_T(theta: UnitDirection, summary: MomentSummary) -> float:
    """E[theta . chi(Z)] = mrl * (theta . md)."""
    if theta.dim != summary.md.dim:
        raise DimensionError("theta and summary dimensions differ")
    return summary.mrl * float(theta.coords @ summary.md.coords)


def variance_T(theta: UnitDirection, cov_chi: np.ndarray) -> float:
    """var(theta . chi(Z)) as the quadratic form theta^T cov_chi theta."""
    cov = np.asarray(cov_chi, dtype=np.float64)
    n = theta.dim
    if cov.shape != (n, n):
        raise DimensionError(f"cov_chi must be {n} x {n}, got {cov.shape}")
    scale = max(1.0, float(np.max(np.abs(cov))))
    if float(np.max(np.abs(cov - cov.T))) > 1e-10 * scale:
        raise DomainError("cov_chi is not symmetric")
    val = float(theta.coords @ cov @ theta.coords)
    return max(val, 0.0)


def variance_T_homoscedastic(theta: UnitDirection, model: HomoscedasticModel) -> float:
    """var(theta . chi(Z)) without forming the covariance matrix."""
    n = model.n
    if theta.dim != n:
        raise DimensionError("theta dimension does not match the model")
    try:
        alignment = float(theta.coords @ _mean_direction(model.mu).coords)
    except UndefinedMeanDirectionError:
        return 1.0 / (n - 1.0)
    f, g = _f_g(n, model.concentration())
    return (f - g) * alignment ** 2 + g
