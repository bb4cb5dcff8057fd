"""Tests for the confluent-hypergeometric layer.

Reference values were frozen from scripts/derive_expected_values.py
(mpmath at 50 significant digits); the sweeps over n and x call mpmath
at the same precision directly. The stdlib (math.erf) and an
exact-rational series serve as independent oracles.
"""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icsphere import specfun
from icsphere.errors import ConvergenceError, DomainError

# mpmath 50-dp values, frozen.
VARRHO_REF = {
    (1, 1.0): 0.6826894921370859,
    (2, 0.5): 0.30383520526347913,
    (4, 2.0): 0.71403163221409298,
    (9, 0.1288): 0.041728045545844033,
}
F_REF = {
    (3, 1.0): 0.21535759191687602,
    (5, 0.5): 0.18409463908753146,
    (9, 0.1288): 0.11070873332016206,
    (3, 2.0): 0.067303716993265416,
}
G_REF = {
    (3, 1.0): 0.27522154099292367,
    (5, 0.5): 0.19305113147054719,
    (9, 0.1288): 0.11094375461184524,
    (3, 2.0): 0.17000149067932388,
}
KUMMER_REF = {
    # (a, b, z) -> M(a, b, z)
    (0.5, 5.5, -0.1288 ** 2 / 2.0): 0.99924665558416008,
    (1.0, 2.0, 1.0): 1.7182818284590452,
}
# Either side of x = 40, where a leading-order tail used to take over.
VARRHO_LARGE_REF = {
    (5, 39.999): 0.998751109489851,
    (5, 40.0): 0.998751171875,
    (5, 50.0): 0.99920048,
}
F_LARGE_REF = {
    (5, 39.999): 7.8132492145154686e-7,
    (5, 40.0): 7.812467922102933e-7,
}
G_LARGE_REF = {
    (5, 39.999): 0.00062385999196755375,
    (5, 40.0): 0.00062382885788049967,
}

SWEEP_N = [1, 2, 3, 10, 50, 200, 1000, 10 ** 4]
SWEEP_X = [0.1, 1.0, 5.0, 8.0, 10.0, 15.0, 20.0, 30.0, 39.999, 40.0, 60.0,
           100.0, 1000.0]


def mp_curves(n: int, x: float) -> tuple[float, float, float]:
    """varrho, f_var and g_var from mpmath's hyp1f1 at 50 digits."""
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        half_n = mpmath.mpf(n) / 2
        r = (mpmath.gamma(half_n + 0.5) / (mpmath.sqrt(2) * mpmath.gamma(half_n + 1))
             * x * mpmath.hyp1f1(0.5, half_n + 1, -x * x / 2))
        m = mpmath.hyp1f1(1, half_n + 1, -x * x / 2)
        return float(r), float(1 - (n - 1) / mpmath.mpf(n) * m - r * r), float(m / n)


def kummer_reference(a: float, b: float, z: float, max_terms: int = 400) -> float:
    """Exact-rational partial sum of the defining series.

    Floats convert to Fraction without rounding, so the only error is
    truncation. Terms decay factorially once k exceeds |z|; stopping at
    |term| < 1e-22 bounds the alternating tail by the same amount.
    """
    fa, fb, fz = Fraction(a), Fraction(b), Fraction(z)
    term = Fraction(1)
    total = Fraction(1)
    for k in range(max_terms):
        term *= (fa + k) * fz / ((fb + k) * (k + 1))
        total += term
        if k > abs(z) and abs(float(term)) < 1e-22 * max(1.0, abs(float(total))):
            return float(total)
    raise AssertionError("reference series did not converge")


class TestKummerM:
    def test_at_zero_is_one(self):
        assert specfun.kummer_m(0.5, 5.5, 0.0) == 1.0

    def test_frozen_values(self):
        for (a, b, z), ref in KUMMER_REF.items():
            assert specfun.kummer_m(a, b, z) == pytest.approx(ref, rel=1e-13)

    def test_exponential_special_case(self):
        # M(a, a, z) = e^z
        for z in [-3.0, -0.5, 0.7, 4.0]:
            assert specfun.kummer_m(2.5, 2.5, z) == pytest.approx(
                math.exp(z), rel=1e-13
            )

    @given(
        st.floats(min_value=0.5, max_value=4.0),
        st.floats(min_value=1.0, max_value=12.0),
        st.floats(min_value=-10.0, max_value=-1e-3),
    )
    @settings(max_examples=60, deadline=None)
    def test_negative_argument_against_exact_series(self, a, b, z):
        ref = kummer_reference(a, b, z)
        assert specfun.kummer_m(a, b, z) == pytest.approx(ref, rel=1e-9, abs=1e-9)

    def test_negative_argument_tight_spot_checks(self):
        # Direct alternating summation loses ~z digits to cancellation;
        # the transformed series must not.
        for a, b, z in [(0.5, 5.5, -8.0), (1.0, 6.0, -10.0), (2.0, 3.0, -5.0)]:
            ref = kummer_reference(a, b, z)
            assert specfun.kummer_m(a, b, z) == pytest.approx(ref, rel=5e-13)

    def test_large_negative_argument_no_overflow(self):
        # exp(|z|) is far past the float range in both cases. The first
        # takes the large-|z| expansion; in the second its terms grow at
        # once, so the reflected series runs and must be rescaled.
        z = -(39.999 ** 2) / 2.0
        assert specfun.kummer_m(1.0, 3.5, z) == pytest.approx(
            0.0031192999598377688, rel=1e-12)
        assert specfun.kummer_m(1.0, 2001.0, -1000.0) == pytest.approx(
            0.66674074073525255, rel=1e-12)

    def test_large_positive_argument(self):
        # M(1, 2, z) = expm1(z) / z: representable at z = 700, past the
        # float range at z = 1000 and 20000, where a typed error is due.
        assert specfun.kummer_m(1.0, 2.0, 700.0) == pytest.approx(
            math.expm1(700.0) / 700.0, rel=1e-12)
        for z in (1000.0, 20000.0):
            with pytest.raises(DomainError, match="float range"):
                specfun.kummer_m(1.0, 2.0, z)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            specfun.kummer_m(-1.0, 5.5, 0.3)
        with pytest.raises(DomainError):
            specfun.kummer_m(0.5, 0.0, 0.3)
        with pytest.raises(DomainError):
            specfun.kummer_m(0.5, 5.5, math.nan)

    def test_budget_exhaustion_raises(self, monkeypatch):
        # The series may run _MAX_TERMS terms past |z|; at z = 400 its
        # terms peak near k = 400 and need about 160 more to converge.
        monkeypatch.setattr(specfun, "_MAX_TERMS", 50)
        with pytest.raises(ConvergenceError) as exc:
            specfun.kummer_m(1.0, 2.0, 400.0)
        assert exc.value.terms_used == 450


class TestVarrho:
    def test_zero_argument(self):
        for n in [1, 2, 9, 100]:
            assert specfun.varrho(n, 0.0) == 0.0

    def test_frozen_values(self):
        for (n, x), ref in VARRHO_REF.items():
            assert specfun.varrho(n, x) == pytest.approx(ref, rel=1e-12)

    def test_one_dim_equals_erf(self):
        # rho_1(x) = 2*Phi(x) - 1 = erf(x / sqrt(2))
        for x in [k * 0.25 for k in range(25)]:
            ref = math.erf(x / math.sqrt(2.0))
            assert abs(specfun.varrho(1, x) - ref) <= 1e-10

    def test_monotone_in_x(self):
        for n in [2, 5, 30]:
            xs = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0]
            vals = [specfun.varrho(n, x) for x in xs]
            assert all(a < b for a, b in zip(vals, vals[1:]))
            assert all(0.0 <= v < 1.0 for v in vals)

    def test_asymptotic_tail(self):
        for key in [(5, 40.0), (5, 50.0)]:
            assert specfun.varrho(*key) == pytest.approx(
                VARRHO_LARGE_REF[key], rel=1e-12)

    def test_series_continuous_into_tail(self):
        for key in [(5, 39.999), (5, 40.0)]:
            assert specfun.varrho(*key) == pytest.approx(
                VARRHO_LARGE_REF[key], rel=1e-12)
            assert specfun.f_var(*key) == pytest.approx(
                F_LARGE_REF[key], rel=0.0, abs=1e-12)
            assert specfun.g_var(*key) == pytest.approx(
                G_LARGE_REF[key], rel=1e-12)

    def test_dense_grid_against_mpmath(self):
        # Steps of 0.1 up to x = 60 cross every point where kummer_m
        # switches from the series to the large-|z| expansion.
        for n in [1, 3, 50, 1000]:
            for k in range(1, 601):
                x = k / 10.0
                assert specfun.varrho(n, x) == pytest.approx(
                    mp_curves(n, x)[0], rel=1e-12), (n, x)

    @pytest.mark.parametrize("b", [16.0, 16.5, 51.0, 501.0, 5001.0, 50001.0])
    def test_gamma_ratio_series_against_mpmath(self, b):
        with mpmath.workdps(50):
            ref = mpmath.gamma(mpmath.mpf(b) - 0.5) / mpmath.gamma(b)
            err = abs(specfun._gamma_ratio(b) - ref) / ref
        assert err <= 1e-15, (b, float(err))

    def test_gamma_ratio_keeps_lgamma_below_16(self):
        # Every n <= 29 keeps the bits it had before the series.
        for n in range(1, 30):
            b = (n + 2) / 2.0
            assert specfun._gamma_ratio(b) == math.exp(
                math.lgamma(b - 0.5) - math.lgamma(b))

    @pytest.mark.parametrize("n,x,tol", [
        (1000, 30.0, 5e-14), (10 ** 4, 30.0, 5e-14), (10 ** 4, 60.0, 2e-13),
        (10 ** 5, 100.0, 5e-13),
        # Both sides of the switch to the series at b = 16.
        (29, 3.0, 1e-14), (30, 3.0, 1e-14), (31, 3.0, 1e-14), (32, 3.0, 1e-14),
    ])
    def test_series_prefactor_against_mpmath(self, n, x, tol):
        # The series path: the prefactor is good to eps, and the bound is
        # set by kummer_m's e^z scaling, which loses about eps * x^2 / 2.
        assert specfun._expansion_terms(0.5, (n + 2) / 2.0, x * x / 2.0) is None
        ref = mp_curves(n, x)[0]
        assert abs(specfun.varrho(n, x) - ref) <= tol * ref

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            specfun.varrho(0, 1.0)
        with pytest.raises(DomainError):
            specfun.varrho(3, -0.1)


class TestVarianceFunctions:
    def test_at_zero(self):
        # At x = 0 the direction is uniform: every coordinate variance 1/n.
        for n in [2, 3, 10]:
            assert specfun.f_var(n, 0.0) == pytest.approx(1.0 / n, abs=1e-14)
            assert specfun.g_var(n, 0.0) == pytest.approx(1.0 / n, abs=1e-14)

    def test_frozen_values(self):
        for (n, x), ref in F_REF.items():
            assert specfun.f_var(n, x) == pytest.approx(ref, rel=1e-12)
        for (n, x), ref in G_REF.items():
            assert specfun.g_var(n, x) == pytest.approx(ref, rel=1e-12)

    def test_tails(self):
        assert specfun.f_var(5, 40.0) == pytest.approx(
            F_LARGE_REF[(5, 40.0)], rel=0.0, abs=1e-12)
        assert specfun.g_var(5, 40.0) == pytest.approx(
            G_LARGE_REF[(5, 40.0)], rel=1e-12)

    def test_sweep_against_mpmath(self, monkeypatch):
        # f_var and g_var call kummer_m only where the large-argument
        # expansion does not run. Where it runs, f, varrho and g come from
        # its terms, and each must be right relative to its own size; on
        # the series path f cancels, so there it is held to 1e-11 absolute.
        calls = []
        kummer_m = specfun.kummer_m
        monkeypatch.setattr(specfun, "kummer_m",
                            lambda *args: calls.append(args) or kummer_m(*args))
        expanded = set()
        for n in SWEEP_N:
            for x in SWEEP_X:
                r = specfun.varrho(n, x)
                r_ref, f_ref, g_ref = mp_curves(n, x)
                assert r == pytest.approx(r_ref, rel=1e-11), (n, x)
                if n == 1:
                    continue
                calls.clear()
                f = specfun.f_var(n, x)
                g = specfun.g_var(n, x)
                assert f == pytest.approx(f_ref, rel=0.0, abs=1e-11), (n, x)
                assert g == pytest.approx(g_ref, rel=1e-11), (n, x)
                assert abs(f + (n - 1) * g + r * r - 1.0) <= 1e-14, (n, x)
                if not calls:
                    expanded.add((n, x))
                    f_rel = 1e-12 if n <= 1000 else 1e-11
                    assert f == pytest.approx(f_ref, rel=f_rel, abs=0.0), (n, x)
                    assert r == pytest.approx(r_ref, rel=1e-14, abs=0.0), (n, x)
                    assert g == pytest.approx(g_ref, rel=1e-14, abs=0.0), (n, x)
        assert {(2, 1000.0), (1000, 40.0), (10 ** 4, 1000.0)} <= expanded
        assert len(expanded) >= 50

    def test_extreme_arguments(self):
        # y = x^2/2 underflows to 0 at x = 1.6e-273 and y^2 overflows at
        # x = 1e100; neither may raise, and the trace identity holds.
        for n in (2, 3, 10):
            for x in (1.6e-273, 1e-200, 1e100):
                r = specfun.varrho(n, x)
                f, g = specfun.f_var(n, x), specfun.g_var(n, x)
                assert 0.0 <= r <= 1.0 and 0.0 <= f <= 1.0 and 0.0 <= g <= 1.0
                assert abs(f + (n - 1) * g + r * r - 1.0) <= 1e-14, (n, x)

    def test_bounds(self):
        for n in [2, 4, 17]:
            for x in [0.1, 0.5, 1.0, 2.0, 5.0, 10.0]:
                assert 0.0 < specfun.f_var(n, x) < 1.0
                assert 0.0 < specfun.g_var(n, x) < 1.0

    def test_trace_identity_on_grid(self):
        # f + (n-1) g + rho^2 = 1 exactly; 1e-10 leaves room for roundoff.
        for n in [2, 3, 5, 10, 50, 100, 200]:
            for x in [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0]:
                total = (
                    specfun.f_var(n, x)
                    + (n - 1) * specfun.g_var(n, x)
                    + specfun.varrho(n, x) ** 2
                )
                assert abs(total - 1.0) <= 1e-10, (n, x)

    @given(st.integers(min_value=2, max_value=200),
           st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=80, deadline=None)
    def test_trace_identity_property(self, n, x):
        total = (
            specfun.f_var(n, x)
            + (n - 1) * specfun.g_var(n, x)
            + specfun.varrho(n, x) ** 2
        )
        assert abs(total - 1.0) <= 1e-10

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            specfun.f_var(1, 1.0)
        with pytest.raises(DomainError):
            specfun.g_var(1, 1.0)
        with pytest.raises(DomainError):
            specfun.f_var(3, -1.0)

