"""Tests for the closed-form moment layer: the two-asset case, the
equicorrelated model, and the projected covariance structure."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from icsphere import moments, specfun, sphere
from icsphere.errors import (
    DegenerateInputError,
    DimensionError,
    DomainError,
    ModelError,
    UndefinedMeanDirectionError,
)
from tests.conftest import even_exponents, exact_entries

S2 = math.sqrt(0.5)


def unit_in_hyperplane(rng, n: int) -> np.ndarray:
    while True:
        z = rng.standard_normal(n)
        z -= z.mean()
        r = np.linalg.norm(z)
        if r > 1e-6:
            u = z / r
            u -= u.mean()
            return u / np.linalg.norm(u)


class TestTwoDimExact:
    def test_certain_winner(self):
        s = moments.two_dim_exact(1.0)
        assert s.mrl == pytest.approx(1.0)
        assert s.md.coords == pytest.approx([S2, -S2])
        assert np.max(np.abs(s.cov_chi)) < 1e-15

    def test_quarter_probability(self):
        s = moments.two_dim_exact(0.25)
        assert s.mrl == pytest.approx(0.5)
        assert s.md.coords == pytest.approx([-S2, S2])
        v = np.array([S2, -S2])
        assert s.cov_chi == pytest.approx(0.75 * np.outer(v, v))

    def test_balanced_probability_has_no_direction(self):
        with pytest.raises(UndefinedMeanDirectionError) as exc:
            moments.two_dim_exact(0.5)
        assert exc.value.mrl == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            moments.two_dim_exact(-0.01)
        with pytest.raises(DomainError):
            moments.two_dim_exact(1.01)

    @pytest.mark.parametrize("p", [1e-20, 1e-8, 0.25])
    def test_variance_keeps_its_digits_near_certainty(self, p):
        # 1 - mrl^2 = 4p(1 - p); forming it from mrl = 1 - 2p lost all of
        # it at p = 1e-20 and 1.6e-9 of it at p = 1e-8.
        with mpmath.workdps(50):
            var = 4 * mpmath.mpf(p) * (1 - mpmath.mpf(p))
            want = float(var / 2)
        cov = moments.two_dim_exact(p).cov_chi
        assert np.abs(cov) == pytest.approx(np.full((2, 2), want), rel=1e-14, abs=0.0)


class TestTwoDimNormal:
    def test_frozen_half_sigma_gap(self):
        # means 0.5 apart, unit variances, independent: the winner
        # probability is Phi(0.5 / sqrt(2))
        s = moments.two_dim_normal(0.5, 0.0, 1.0, 1.0, 0.0)
        p = 0.6381631950841185
        assert s.mrl == pytest.approx(2.0 * p - 1.0, abs=1e-12)
        assert s.md.coords == pytest.approx([S2, -S2])

    def test_equal_means_degenerate(self):
        with pytest.raises(UndefinedMeanDirectionError) as exc:
            moments.two_dim_normal(1.0, 1.0, 2.0, 5.0, -0.3)
        assert exc.value.mrl == 0.0

    def test_correlation_enters_through_spread(self):
        wide = moments.two_dim_normal(0.3, 0.0, 1.0, 1.0, -0.9)
        tight = moments.two_dim_normal(0.3, 0.0, 1.0, 1.0, 0.9)
        assert tight.mrl > wide.mrl

    def test_perfect_correlation_rejected(self):
        with pytest.raises(ModelError):
            moments.two_dim_normal(0.3, 0.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("d", [2.0, 5.0, 8.0, 10.0, 20.0, -8.0])
    def test_far_tail_against_mpmath(self, d):
        # Z_1 - Z_2 has unit variance, so d is the gap itself. Forming
        # 1 - mrl^2 from p = (1 + erf(d/sqrt 2)) / 2 lost 7% of the trace
        # at d = 8 and all of it from d = 9 on.
        s = moments.two_dim_normal(d, 0.0, 1.0, 1.0, 0.5)
        with mpmath.workdps(50):
            x = abs(mpmath.mpf(d)) / mpmath.sqrt(2)
            e = mpmath.erfc(x)
            trace, mrl = float(e * (2 - e)), float(mpmath.erf(x))
        assert np.trace(s.cov_chi) == pytest.approx(trace, rel=1e-13, abs=0.0)
        assert s.mrl == pytest.approx(mrl, rel=1e-14, abs=0.0)
        assert s.md.coords == pytest.approx(math.copysign(S2, d) * np.array([1.0, -1.0]))

    @pytest.mark.parametrize("k", [-1000, -600, 0, 600, 1000])
    def test_scale_free_at_any_power_of_two(self, k):
        # sigma ** 2 went subnormal, then to zero ("no variance"), or
        # overflowed to a bare OverflowError at these scales.
        c = math.ldexp(1.0, k)
        s = moments.two_dim_normal(0.0, c, c, c, 0.3)
        ref = moments.two_dim_normal(0.0, 1.0, 1.0, 1.0, 0.3)
        assert s.mrl == pytest.approx(ref.mrl, rel=1e-15, abs=0.0)
        assert s.cov_chi.tobytes() == ref.cov_chi.tobytes()
        assert s.md.coords.tobytes() == ref.md.coords.tobytes()

    def test_means_far_beyond_the_scaled_spread(self):
        # Scaled up with sigma, the means overflow: distinct ones are
        # certain winners, equal ones leave no direction.
        assert moments.two_dim_normal(1e300, -1e300, 1e-300, 1e-300, 0.0).mrl == 1.0
        with pytest.raises(UndefinedMeanDirectionError):
            moments.two_dim_normal(1e300, 1e300, 1e-300, 1e-300, 0.0)

    @pytest.mark.parametrize("args", [
        (0.0, 1.0, math.inf, 1.0, 0.0),
        (math.nan, 1.0, 1.0, 1.0, 0.0),
        (0.0, math.inf, 1.0, 1.0, 0.0),
    ], ids=["inf_sigma", "nan_mu", "inf_mu"])
    def test_non_finite_input_rejected(self, args):
        # Each was mistyped: "no variance", a DomainError on mrl nan, or
        # mrl 1 returned.
        with pytest.raises(ModelError,
                           match="^means and standard deviations must be finite$"):
            moments.two_dim_normal(*args)

    def test_matches_homoscedastic_path(self):
        sigma, rho = 1.7, 0.35
        model = moments.HomoscedasticModel(
            mu=np.array([0.9, 0.1]), sigma=sigma, rho=rho
        )
        via_model = moments.md_mrl_homoscedastic(model)
        direct = moments.two_dim_normal(0.9, 0.1, sigma, sigma, rho)
        assert via_model.mrl == pytest.approx(direct.mrl, abs=1e-10)
        assert via_model.md.coords == pytest.approx(
            direct.md.coords, abs=1e-12
        )


class TestHomoscedasticModel:
    def test_basic_fields(self):
        m = moments.HomoscedasticModel(
            mu=np.array([1.0, 2.0, 3.0]), sigma=2.0, rho=0.5
        )
        assert m.n == 3
        cov = m.covariance()
        assert cov == pytest.approx(
            4.0 * ((1 - 0.5) * np.eye(3) + 0.5 * np.ones((3, 3)))
        )

    def test_concentration(self):
        mu = np.array([0.3, -0.1, 0.4, 0.0])
        m = moments.HomoscedasticModel(mu=mu, sigma=1.5, rho=0.2)
        pmu = mu - mu.mean()
        expect = np.linalg.norm(pmu) / (1.5 * math.sqrt(0.8))
        assert m.concentration() == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("k", [-1000, -600, 0, 600, 1000])
    @pytest.mark.parametrize("j", [-1000, -600, 0, 600, 1000])
    def test_concentration_at_far_apart_scales(self, j, k):
        # mu scaled by 2^j and sigma by 2^k: x scales by 2^(j - k) while
        # x^2/2 is finite, and is a typed error beyond.
        mu = np.array([0.3, -0.1, 0.4, 0.0])
        x = moments.HomoscedasticModel(mu=mu, sigma=1.5, rho=0.2).concentration()
        model = moments.HomoscedasticModel(mu=np.ldexp(mu, j),
                                           sigma=math.ldexp(1.5, k), rho=0.2)
        try:
            want = math.ldexp(x, j - k)
        except OverflowError:
            want = math.inf
        if math.isfinite(0.5 * want * want):
            assert abs(model.concentration() - want) <= 1e-15 * want
        else:
            with pytest.raises(DomainError, match="concentration"):
                model.concentration()

    def test_positive_definite_bounds(self):
        mu = np.zeros(4)
        with pytest.raises(ModelError):
            moments.HomoscedasticModel(mu=mu, sigma=1.0, rho=1.0)
        with pytest.raises(ModelError):
            moments.HomoscedasticModel(mu=mu, sigma=1.0, rho=-1.0 / 3.0)
        # just inside both bounds is fine
        moments.HomoscedasticModel(mu=mu, sigma=1.0, rho=-1.0 / 3.0 + 1e-6)
        moments.HomoscedasticModel(mu=mu, sigma=1.0, rho=0.999999)
        with pytest.raises(ModelError):
            moments.HomoscedasticModel(mu=mu, sigma=0.0, rho=0.1)

    @given(arrays(np.float64, st.integers(2, 12), elements=exact_entries),
           st.floats(2.0 ** -20, 2.0 ** 20), st.floats(-0.05, 0.95), even_exponents)
    @settings(max_examples=200, deadline=None)
    def test_scale_free_at_any_power_of_two(self, mu, sigma, rho, k):
        def bits(scale):
            model = moments.HomoscedasticModel(
                mu=np.ldexp(mu, scale), sigma=math.ldexp(sigma, scale), rho=rho)
            try:
                s = moments.md_mrl_homoscedastic(model)
            except UndefinedMeanDirectionError:
                return model.concentration().hex(), None
            return (model.concentration().hex(), s.md.coords.tobytes(),
                    s.mrl.hex(), s.cov_chi.tobytes())

        assert bits(k) == bits(0)

    @pytest.mark.parametrize("sigma", [2e158, 2.0 ** 512, 2e-162, 2.0 ** -512],
                             ids=["overflow", "first_overflow", "subnormal",
                                  "first_subnormal"])
    def test_covariance_needs_a_normal_variance(self, sigma):
        # sigma ** 2 overflowed to a bare OverflowError, or rounded to a
        # subnormal covariance that GaussianModel accepted.
        model = moments.HomoscedasticModel(
            mu=np.array([3.0, -1.0, 2.0, 0.0]) * sigma, sigma=sigma, rho=0.1)
        with pytest.raises(ModelError, match="normal float"):
            model.covariance()
        with pytest.raises(ModelError, match="normal float"):
            model.to_gaussian()

    @pytest.mark.parametrize("sigma", [2.0 ** 511.5, 2.0 ** -511])
    def test_covariance_at_the_normal_range_ends(self, sigma):
        model = moments.HomoscedasticModel(mu=np.zeros(3), sigma=sigma, rho=0.1)
        assert model.covariance()[0, 0] == sigma ** 2

    def test_to_gaussian_roundtrip(self):
        m = moments.HomoscedasticModel(
            mu=np.array([0.1, 0.2, 0.3]), sigma=1.1, rho=0.25
        )
        g = m.to_gaussian()
        assert g.cov == pytest.approx(m.covariance())
        assert g.mu == pytest.approx(m.mu)

    def test_gaussian_model_validation(self):
        with pytest.raises(ModelError):
            moments.GaussianModel(
                mu=np.zeros(2), cov=np.array([[1.0, 0.5], [0.4, 1.0]])
            )
        with pytest.raises(ModelError):
            moments.GaussianModel(
                mu=np.zeros(2), cov=np.array([[1.0, 2.0], [2.0, 1.0]])
            )
        with pytest.raises(DimensionError):
            moments.GaussianModel(mu=np.zeros(3), cov=np.eye(2))


class TestBenchmarkScaleExample:
    def test_ten_asset_equicorrelated_mrl(self):
        # round numbers near the bundled benchmark's fitted scale
        n = 10
        rng = np.random.default_rng(5)
        mu = unit_in_hyperplane(rng, n) * 0.0027
        model = moments.HomoscedasticModel(mu=mu, sigma=0.0224, rho=0.1243)
        x = model.concentration()
        assert x == pytest.approx(
            0.0027 / (0.0224 * math.sqrt(1 - 0.1243)), rel=1e-10
        )
        s = moments.md_mrl_homoscedastic(model)
        assert s.mrl == pytest.approx(specfun.varrho(n - 1, x), abs=1e-15)
        assert s.mrl == pytest.approx(0.0417, abs=5e-5)


class TestProjectedCovariance:
    def test_zero_signal_is_isotropic(self):
        for n in [2, 5, 9]:
            c = moments.projected_cov_canonical(n, 0.0)
            assert c == pytest.approx(np.eye(n) / n)

    def test_frozen_three_dim_values(self):
        c = moments.projected_cov_canonical(3, 1.0)
        f = specfun.f_var(3, 1.0)
        g = specfun.g_var(3, 1.0)
        assert c[0, 0] == pytest.approx(f, rel=1e-12)
        assert c[1, 1] == pytest.approx(g, rel=1e-12)
        assert c[2, 2] == pytest.approx(g, rel=1e-12)
        assert np.max(np.abs(c - np.diag(np.diag(c)))) == 0.0

    @pytest.mark.parametrize("n,x", [(3, 0.5), (5, 1.0), (10, 2.0), (50, 0.2)])
    def test_trace_complements_resultant(self, n, x):
        c = moments.projected_cov_canonical(n, x)
        r = specfun.varrho(n, x)
        assert np.trace(c) == pytest.approx(1.0 - r * r, abs=1e-10)


class TestCovChi:
    def test_degenerate_mean_gives_uniform_cov(self):
        n = 6
        model = moments.HomoscedasticModel(mu=np.ones(n), sigma=1.0, rho=0.0)
        c = moments.cov_chi_homoscedastic(model)
        assert c == pytest.approx(sphere.centering_matrix(n) / (n - 1))

    def test_annihilates_constant_vector(self):
        model = moments.HomoscedasticModel(
            mu=np.array([0.5, -0.2, 0.1, 0.9]), sigma=1.3, rho=0.3
        )
        c = moments.cov_chi_homoscedastic(model)
        assert np.max(np.abs(c @ np.ones(4))) < 1e-14

    def test_quadratic_forms_along_and_across(self):
        n = 5
        mu = np.array([0.9, -0.3, 0.1, 0.0, 0.4])
        model = moments.HomoscedasticModel(mu=mu, sigma=0.8, rho=0.15)
        c = moments.cov_chi_homoscedastic(model)
        x = model.concentration()
        f = specfun.f_var(n - 1, x)
        g = specfun.g_var(n - 1, x)
        md = sphere.standardize(mu).coords
        assert md @ c @ md == pytest.approx(f, abs=1e-12)
        # any centered direction orthogonal to md sees variance g
        rng = np.random.default_rng(2)
        w = rng.standard_normal(n)
        w -= w.mean()
        w -= (w @ md) * md
        w /= np.linalg.norm(w)
        assert w @ c @ w == pytest.approx(g, abs=1e-12)

    @pytest.mark.parametrize("x", [2.0, 5.0, 8.0, 10.0, 20.0])
    def test_two_assets_far_tail(self, x):
        # With two assets f = 1 - erf(x/sqrt 2)^2 = erfc (2 - erfc), which
        # is 3e-23 at x = 10: forming 1 - erf^2 in floats leaves 4e-16.
        model = moments.HomoscedasticModel(
            mu=np.array([x * S2, -x * S2]), sigma=1.0, rho=0.0)
        with mpmath.workdps(50):
            e = mpmath.erfc(mpmath.mpf(model.concentration()) / mpmath.sqrt(2))
            f_ref = float(e * (2 - e))
        cov = moments.cov_chi_homoscedastic(model)
        assert cov == pytest.approx(
            np.array([[0.5, -0.5], [-0.5, 0.5]]) * f_ref, rel=1e-13, abs=0.0)
        md = sphere.standardize(model.mu)
        assert moments.variance_T_homoscedastic(md, model) == pytest.approx(
            f_ref, rel=1e-13, abs=0.0)

    def test_trace_matches_canonical(self):
        model = moments.HomoscedasticModel(
            mu=np.array([1.0, 0.0, -1.0]), sigma=1.0, rho=0.5
        )
        c = moments.cov_chi_homoscedastic(model)
        canon = moments.projected_cov_canonical(2, model.concentration())
        assert np.trace(c) == pytest.approx(np.trace(canon), abs=1e-12)


class TestScoreMoments:
    def test_expectation_extremes(self):
        model = moments.HomoscedasticModel(
            mu=np.array([0.4, -0.1, 0.2, 0.0]), sigma=1.0, rho=0.1
        )
        s = moments.md_mrl_homoscedastic(model)
        along = moments.expectation_T(s.md, s)
        assert along == pytest.approx(s.mrl, abs=1e-14)
        against = moments.expectation_T(-s.md, s)
        assert against == pytest.approx(-s.mrl, abs=1e-14)
        rng = np.random.default_rng(4)
        w = rng.standard_normal(4)
        w -= w.mean()
        w -= (w @ s.md.coords) * s.md.coords
        theta = sphere.UnitDirection(w / np.linalg.norm(w))
        assert moments.expectation_T(theta, s) == pytest.approx(0.0, abs=1e-13)

    @given(st.integers(min_value=3, max_value=12), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_variance_paths_agree(self, n, seed):
        rng = np.random.default_rng(seed)
        mu = rng.standard_normal(n)
        if np.linalg.norm(mu - mu.mean()) < 1e-3:
            return
        model = moments.HomoscedasticModel(mu=mu, sigma=1.0, rho=0.2)
        summary = moments.md_mrl_homoscedastic(model)
        theta = sphere.UnitDirection(unit_in_hyperplane(rng, n))
        direct = moments.variance_T(theta, summary.cov_chi)
        closed = moments.variance_T_homoscedastic(theta, model)
        assert direct == pytest.approx(closed, abs=1e-12)

    def test_variance_rotationally_invariant_off_axis(self):
        n = 6
        model = moments.HomoscedasticModel(
            mu=np.array([0.5, 0.1, -0.3, 0.2, 0.0, -0.5]), sigma=1.0, rho=0.0
        )
        md = moments.md_mrl_homoscedastic(model).md.coords
        rng = np.random.default_rng(9)
        values = []
        for _ in range(6):
            w = rng.standard_normal(n)
            w -= w.mean()
            w -= (w @ md) * md
            theta = sphere.UnitDirection(w / np.linalg.norm(w))
            values.append(moments.variance_T_homoscedastic(theta, model))
        assert np.ptp(values) < 1e-13

    def test_degenerate_mean_variance(self):
        n = 5
        model = moments.HomoscedasticModel(mu=np.zeros(n), sigma=1.0, rho=0.0)
        rng = np.random.default_rng(1)
        theta = sphere.UnitDirection(unit_in_hyperplane(rng, n))
        assert moments.variance_T_homoscedastic(theta, model) == pytest.approx(
            1.0 / (n - 1)
        )


    def test_variance_T_rejects_bad_cov(self):
        theta = sphere.standardize([1.0, 0.0, -1.0])
        with pytest.raises(DimensionError, match=r"^cov_chi must be 3 x 3, got \(2, 2\)$"):
            moments.variance_T(theta, np.eye(2))
        asym = sphere.centering_matrix(3) / 2.0
        asym[0, 1] += 1e-3
        with pytest.raises(DomainError, match="^cov_chi is not symmetric$"):
            moments.variance_T(theta, asym)


class TestMomentSummary:
    def test_json_roundtrip(self):
        model = moments.HomoscedasticModel(
            mu=np.array([0.2, -0.1, 0.5]), sigma=1.2, rho=0.1
        )
        s = moments.md_mrl_homoscedastic(model)
        d = s.to_json_dict()
        assert set(d) == {"md", "mrl", "cov_chi"}
        back = moments.MomentSummary.from_json_dict(d)
        assert back.mrl == s.mrl
        assert back.md.coords == pytest.approx(s.md.coords)
        assert back.cov_chi == pytest.approx(s.cov_chi)

    def test_mrl_bounds(self):
        u = sphere.standardize([1.0, -1.0, 0.0])
        with pytest.raises(DomainError):
            moments.MomentSummary(md=u, mrl=1.2, cov_chi=None)
        with pytest.raises(DomainError):
            moments.MomentSummary(md=u, mrl=-0.1, cov_chi=None)
        # tiny float spill is clamped, not rejected
        s = moments.MomentSummary(md=u, mrl=1.0 + 1e-12, cov_chi=None)
        assert s.mrl == 1.0

    def test_cov_invariants_enforced(self):
        u = sphere.standardize([1.0, -1.0, 0.0])
        bad_trace = np.eye(3) / 3.0
        with pytest.raises(DomainError):
            moments.MomentSummary(md=u, mrl=0.5, cov_chi=bad_trace)
        p = sphere.centering_matrix(3)
        good = p * (1.0 - 0.25) / 2.0
        s = moments.MomentSummary(md=u, mrl=0.5, cov_chi=good)
        assert s.cov_chi is not None
        with pytest.raises(ValueError):
            s.cov_chi[0, 0] = 9.0

    def test_cov_shape_and_kernel_enforced(self):
        u = sphere.standardize([1.0, -1.0, 0.0])
        with pytest.raises(DimensionError, match=r"^cov_chi must be 3 x 3, got \(2, 2\)$"):
            moments.MomentSummary(md=u, mrl=0.5, cov_chi=np.eye(2) * 0.375)
        # Trace 1 - mrl^2 = 0.75, but the constant vector maps to (0.75, 0, 0).
        with pytest.raises(DomainError,
                           match="^cov_chi must annihilate the constant vector$"):
            moments.MomentSummary(md=u, mrl=0.5, cov_chi=np.diag([0.75, 0.0, 0.0]))
