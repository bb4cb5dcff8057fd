"""Confluent-hypergeometric special functions.

Exposes the three scalar functions that drive every closed-form moment
in this package: the resultant-length curve ``varrho`` and the two
variance profiles ``f_var`` / ``g_var``. All three reduce to Kummer's
function M(a, b, z) evaluated at z = -x^2/2.
"""

from __future__ import annotations

import itertools
import math
import operator

from .errors import ConvergenceError, DomainError

__all__ = ["log_gamma", "kummer_m", "varrho", "f_var", "g_var"]

# A series stops once a term is below REL_TOL of its running sum. The
# reflected series may use _MAX_TERMS terms past |z|, where its terms peak.
REL_TOL = 1e-14
_MAX_TERMS = 10000

# Lanczos approximation, g = 7, 9 coefficients.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# Rescale the running series sum before it can overflow; the factor is a
# power of two so rescaling is exact.
_RESCALE_LIMIT = 2.0 ** 960
_RESCALE_FACTOR = 2.0 ** -960
_RESCALE_LOG = 960.0 * math.log(2.0)


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not (x > 0.0) or not math.isfinite(x):
        raise DomainError(f"log_gamma requires x > 0, got {x!r}")
    if x < 0.5:
        # Reflection keeps the Lanczos sum in its accurate range.
        return math.log(math.pi / math.sin(math.pi * x)) - log_gamma(1.0 - x)
    y = x - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (y + i)
    t = y + _LANCZOS_G + 0.5
    return _HALF_LOG_TWO_PI + (y + 0.5) * math.log(t) - t + math.log(acc)


def _series_sum(alpha: float, beta: float, w: float) -> tuple[float, float]:
    """Sum of M(alpha, beta, w) for w >= 0.

    For alpha > 0 every term is positive. For alpha <= 0 (reached when
    the reflection is applied with b < a) at most the first few terms
    carry mixed signs, so the stopping rule only needs absolute values.
    Returns (total, log_scale): the true sum is total * exp(log_scale).
    """
    term = 1.0
    total = 1.0
    log_scale = 0.0
    budget = _MAX_TERMS + int(w)
    for k in range(budget):
        term *= (alpha + k) * w / ((beta + k) * (k + 1.0))
        total += term
        if abs(term) <= REL_TOL * abs(total):
            return total, log_scale
        if abs(total) > _RESCALE_LIMIT:
            total *= _RESCALE_FACTOR
            term *= _RESCALE_FACTOR
            log_scale += _RESCALE_LOG
    raise ConvergenceError(
        f"series for M({alpha}, {beta}, {w}) did not converge",
        terms_used=budget,
    )


def _large_argument(a: float, b: float, y: float) -> float | None:
    """M(a, b, -y) from its large-y expansion (DLMF 13.7.2), or None.

    Gamma(b)/Gamma(b-a) y^-a sum_s (a)_s (a-b+1)_s / s! y^-s, used only
    when b > a, the terms fall below REL_TOL before they start to grow,
    and the dropped part e^-y y^(a-b) Gamma(b)/Gamma(a) is below REL_TOL
    of the sum.
    """
    if not b > a:
        return None
    term = 1.0
    total = 1.0
    for s in itertools.count(1):
        ratio = (a + s - 1.0) * (a - b + s) / (s * y)
        if abs(ratio) > 1.0:
            return None
        term *= ratio
        total += term
        if abs(term) <= REL_TOL * abs(total):
            break
    # Dropped part over the sum's prefactor, in logs; Gamma(b) cancels.
    log_gamma_ba = log_gamma(b - a)
    log_dropped = -y + (2.0 * a - b) * math.log(y) + log_gamma_ba - log_gamma(a)
    if not (total > 0.0 and log_dropped < math.log(REL_TOL * total)):
        return None
    return math.exp(log_gamma(b) - log_gamma_ba - a * math.log(y)) * total


def kummer_m(a: float, b: float, z: float) -> float:
    """Kummer's confluent hypergeometric function M(a, b, z) for a, b > 0.

    At z < 0 the large-|z| expansion runs when it meets REL_TOL (see
    _large_argument); otherwise M(a, b, z) = e^z M(b - a, b, -z), whose
    series has positive terms only. Summing the defining series directly
    at z < 0 loses roughly |z| decimal digits to cancellation, so that
    route is never taken.
    """
    if not (a > 0.0 and math.isfinite(a)):
        raise DomainError(f"kummer_m requires a > 0, got {a!r}")
    if not (b > 0.0 and math.isfinite(b)):
        raise DomainError(f"kummer_m requires b > 0, got {b!r}")
    if not math.isfinite(z):
        raise DomainError(f"kummer_m requires finite z, got {z!r}")
    if z == 0.0:
        return 1.0
    if z < 0.0:
        value = _large_argument(a, b, -z)
        if value is not None:
            return value
        total, log_scale = _series_sum(b - a, b, -z)
        exponent = z + log_scale
    else:
        total, log_scale = _series_sum(a, b, z)
        exponent = log_scale
    if log_scale == 0.0 and abs(exponent) < 700.0:
        return math.exp(exponent) * total
    if total == 0.0:
        return 0.0
    try:
        return math.copysign(math.exp(exponent + math.log(abs(total))), total)
    except OverflowError:
        raise DomainError(
            f"M({a!r}, {b!r}, {z!r}) exceeds the float range"
        ) from None


def _validate_nx(n: int, x: float, minimum_n: int) -> int:
    try:
        n = operator.index(n)
    except TypeError:
        raise DomainError(f"dimension parameter must be an int, got {n!r}") from None
    if n < minimum_n:
        raise DomainError(f"dimension parameter must be >= {minimum_n}, got {n}")
    if not (x >= 0.0) or not math.isfinite(x):
        raise DomainError(f"argument must be a finite float >= 0, got {x!r}")
    return n


def varrho(n: int, x: float) -> float:
    """Mean resultant length profile in dimension parameter n at x >= 0.

    Strictly increasing from 0 toward 1.
    """
    n = _validate_nx(n, x, minimum_n=1)
    if x == 0.0:
        return 0.0
    prefactor = math.exp(
        log_gamma((n + 1) / 2.0) - log_gamma((n + 2) / 2.0)
    ) / math.sqrt(2.0)
    return prefactor * x * kummer_m(0.5, (n + 2) / 2.0, -0.5 * x * x)


def f_var(n: int, x: float) -> float:
    """Variance of the direction component along the mean axis."""
    n = _validate_nx(n, x, minimum_n=2)
    m = kummer_m(1.0, n / 2.0 + 1.0, -0.5 * x * x)
    r = varrho(n, x)
    return 1.0 - (n - 1) / n * m - r * r


def g_var(n: int, x: float) -> float:
    """Variance of a direction component orthogonal to the mean axis."""
    n = _validate_nx(n, x, minimum_n=2)
    return kummer_m(1.0, n / 2.0 + 1.0, -0.5 * x * x) / n
