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

__all__ = ["kummer_m", "varrho", "f_var", "g_var"]

# A series stops once a term is below REL_TOL of its running sum. The
# reflected series may use _MAX_TERMS terms past |z|, where its terms peak.
REL_TOL = 1e-14
_MAX_TERMS = 10000

# Rescale the running series sum before it can overflow; the factor is a
# power of two so rescaling is exact.
_RESCALE_LIMIT = 2.0 ** 960
_RESCALE_FACTOR = 2.0 ** -960
_RESCALE_LOG = 960.0 * math.log(2.0)


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


def _expansion_terms(a: float, b: float, y: float,
                     tol: float = REL_TOL) -> list[float] | None:
    """Terms of M(a, b, -y)'s large-y expansion (DLMF 13.7.2), or None.

    M(a, b, -y) ~ Gamma(b)/Gamma(b-a) y^-a sum_s t_s, with the terms
    t_s = (a)_s (a-b+1)_s / s! y^-s. They stop once one is below tol of
    their running sum. None when b <= a, when y is not finite and
    positive, when the terms grow before they stop, or when the dropped
    part e^-y y^(a-b) Gamma(b)/Gamma(a) is not below tol of the sum.
    """
    if not (b > a and 0.0 < y < math.inf):
        return None
    terms = [1.0]
    total = 1.0
    for s in itertools.count(1):
        ratio = (a + s - 1.0) * (a - b + s) / (s * y)
        if abs(ratio) > 1.0:
            return None
        terms.append(terms[-1] * ratio)
        total += terms[-1]
        if abs(terms[-1]) <= tol * abs(total):
            break
    # Dropped part over the sum's prefactor, in logs; Gamma(b) cancels.
    log_dropped = (-y + (2.0 * a - b) * math.log(y)
                   + math.lgamma(b - a) - math.lgamma(a))
    limit = tol * total
    if not (limit > 0.0 and log_dropped < math.log(limit)):
        return None
    return terms


def kummer_m(a: float, b: float, z: float) -> float:
    """Kummer's confluent hypergeometric function M(a, b, z) for a, b > 0.

    At z < 0 the large-|z| expansion runs when it meets REL_TOL (see
    _expansion_terms); otherwise M(a, b, z) = e^z M(b - a, b, -z), whose
    series has positive terms only, and whose rounding of -z costs about
    eps |z| relative error. The defining series summed directly at z < 0
    alternates and loses eps times sum|t_k| / |M| to cancellation. That
    ratio grows like e^|z| only where b << |z|, a loss of about
    |z| / ln 10 decimal digits. Where b is large against |z| the terms
    fall from the first: against mpmath the ratio was 1.2 to 16.6 for
    varrho's M at (n, x) = (1000, 30), (10^4, 30) and (10^4, 60). The
    direct route is not taken yet.
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
        terms = _expansion_terms(a, b, -z)
        if terms is not None:
            log_prefactor = math.lgamma(b) - math.lgamma(b - a) - a * math.log(-z)
            return math.exp(log_prefactor) * math.fsum(terms)
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


def _gamma_ratio(b: float) -> float:
    """Gamma(b - 1/2) / Gamma(b) for b >= 1.

    From b = 16 on, ln of the ratio is -ln(b)/2 plus the difference of
    DLMF 5.11.8's series at a = -1/2 and a = 0, to 1/b^11: within 3e-16
    of mpmath up to b = 5e5. exp(lgamma - lgamma), kept below 16, loses
    eps * lgamma(b) to the subtraction.
    """
    if b < 16.0:
        return math.exp(math.lgamma(b - 0.5) - math.lgamma(b))
    # (-1)^k (B_k(-1/2) - B_k) / (k (k-1)) for k = 2..12: Bernoulli
    # polynomials and numbers.
    series = 0.0
    for c in (699 / 180224, 1 / 10240, -3 / 2048, 1 / 2048, 33 / 14336,
              1 / 384, 3 / 640, 1 / 64, 3 / 64, 1 / 8, 3 / 8):
        series = (series + c) / b
    return math.exp(series) / math.sqrt(b)


def varrho(n: int, x: float) -> float:
    """Mean resultant length profile in dimension parameter n at x >= 0.

    Strictly increasing from 0 toward 1. Where the large-argument
    expansion runs, its gamma prefactor cancels: varrho is the sum of
    the terms for M(1/2, (n+2)/2, -x^2/2).
    """
    n = _validate_nx(n, x, minimum_n=1)
    if x == 0.0:
        return 0.0
    b = (n + 2) / 2.0
    y = 0.5 * x * x
    terms = _expansion_terms(0.5, b, y)
    if terms is not None:
        return math.fsum(terms)
    prefactor = _gamma_ratio(b) / math.sqrt(2.0)
    return prefactor * x * kummer_m(0.5, b, -y)


def f_var(n: int, x: float) -> float:
    """Variance of the direction component along the mean axis.

    f = 1 - (n-1)/n M(1, n/2+1, -y) - varrho^2 with y = x^2/2. Where the
    large-argument expansion runs, let c_s be its terms for varrho, d_s
    those for M(1, n/2+1, -y) and T = sum_{s>=2} c_s. The 1 and 1/y
    parts cancel on paper, leaving
    f = -[(n-1)/(2y) sum_{s>=1} d_s + c_1^2 + T (2 (1 + c_1) + T)].
    f is about (n-1)/(8 y^2) there, so the terms run to REL_TOL of that.
    """
    n = _validate_nx(n, x, minimum_n=2)
    y = 0.5 * x * x
    # REL_TOL of (n-1)/(8y^2), capped at REL_TOL; y*y may underflow to 0.
    tol = REL_TOL * (n - 1) / (n - 1 + 8.0 * y * y)
    c = _expansion_terms(0.5, (n + 2) / 2.0, y, tol)
    d = None if c is None else _expansion_terms(1.0, n / 2.0 + 1.0, y, tol)
    if d is None:
        r = varrho(n, x)
        return 1.0 - (n - 1) / n * kummer_m(1.0, n / 2.0 + 1.0, -y) - r * r
    t = math.fsum(c[2:])
    return -((n - 1) / (2.0 * y) * math.fsum(d[1:])
             + c[1] * c[1] + t * (2.0 * (1.0 + c[1]) + t))


def g_var(n: int, x: float) -> float:
    """Variance of a direction component orthogonal to the mean axis.

    M(1, n/2+1, -y) / n with y = x^2/2; where the large-argument
    expansion runs this is the sum of its terms over 2y.
    """
    n = _validate_nx(n, x, minimum_n=2)
    y = 0.5 * x * x
    terms = _expansion_terms(1.0, n / 2.0 + 1.0, y)
    if terms is not None:
        return math.fsum(terms) / (2.0 * y)
    return kummer_m(1.0, n / 2.0 + 1.0, -y) / n
