"""Tests for the three direction-selection problems."""

import math

import numpy as np
import pytest

from icsphere import moments, optimize, specfun, sphere
from icsphere.errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    InvalidCovarianceError,
    NoUniqueSolutionError,
    UndefinedMeanDirectionError,
)
from tests.test_specfun import mp_curves


def hyperplane_basis(n: int) -> np.ndarray:
    """Orthonormal basis of the zero-sum hyperplane (n x (n-1))."""
    return sphere.helmert_v(n)[:, : n - 1]


def random_constrained_psd(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n))
    p = sphere.centering_matrix(n)
    return p @ b @ b.T @ p


class TestMaxExpectation:
    def test_picks_mean_direction(self):
        model = moments.HomoscedasticModel(
            mu=np.array([0.3, -0.2, 0.1, 0.6]), sigma=1.0, rho=0.2
        )
        summary = moments.md_mrl_homoscedastic(model)
        res = optimize.max_expectation(summary)
        assert np.array_equal(res.theta_star.coords, summary.md.coords)
        assert res.value == summary.mrl
        assert res.multiplicity == 1
        assert res.variance_only is False

    def test_value_is_attained_expectation(self):
        model = moments.HomoscedasticModel(
            mu=np.array([1.0, 0.0, -0.5]), sigma=0.7, rho=0.1
        )
        summary = moments.md_mrl_homoscedastic(model)
        res = optimize.max_expectation(summary)
        assert res.value == pytest.approx(
            moments.expectation_T(res.theta_star, summary)
        )

    def test_zero_resultant_has_no_solution(self):
        u = sphere.standardize([1.0, -1.0, 0.0])
        flat = moments.MomentSummary(md=u, mrl=0.0, cov_chi=None)
        with pytest.raises(NoUniqueSolutionError):
            optimize.max_expectation(flat)

    def test_json_shape(self):
        u = sphere.standardize([2.0, -1.0, -1.0])
        s = moments.MomentSummary(md=u, mrl=0.4, cov_chi=None)
        d = optimize.max_expectation(s).to_json_dict()
        assert d == {
            "theta": list(u.coords),
            "value": 0.4,
            "multiplicity": 1,
        }


class TestSymmetricEigen:
    def test_identity(self):
        w, v = optimize.symmetric_eigen(np.eye(3))
        assert w == pytest.approx(np.ones(3))
        assert v == pytest.approx(np.eye(3))

    def test_centering_matrix(self):
        n = 4
        w, v = optimize.symmetric_eigen(sphere.centering_matrix(n))
        assert w == pytest.approx([0.0, 1.0, 1.0, 1.0], abs=1e-13)
        assert v[:, 0] == pytest.approx(np.full(n, 0.5))

    def test_reconstruction_random(self):
        rng = np.random.default_rng(42)
        a = rng.standard_normal((6, 6))
        a = a + a.T
        w, v = optimize.symmetric_eigen(a)
        assert np.max(np.abs((v * w) @ v.T - a)) <= 1e-9
        assert np.all(np.diff(w) >= -1e-12)

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            optimize.symmetric_eigen(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionError):
            optimize.symmetric_eigen(np.ones((2, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        a = np.eye(3)
        a[0, 2] = a[2, 0] = bad
        with pytest.raises(DomainError, match="non-finite"):
            optimize.symmetric_eigen(a)

    def test_lapack_failure_is_convergence_error(self, monkeypatch):
        def failing_eigh(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        with pytest.raises(ConvergenceError, match="did not converge"):
            optimize.symmetric_eigen(np.eye(3))


class TestMinVariance:
    def test_uniform_direction_cov(self):
        n = 5
        res = optimize.min_variance(sphere.centering_matrix(n) / (n - 1))
        assert res.value == pytest.approx(1.0 / (n - 1), abs=1e-12)
        assert res.multiplicity == n - 1
        assert abs(res.theta_star.coords.sum()) <= 1e-12

    def test_homoscedastic_closed_form(self):
        model = moments.HomoscedasticModel(
            mu=np.array([0.8, -0.4, 0.1, 0.3, -0.8]), sigma=0.5, rho=0.1
        )
        cov = moments.cov_chi_homoscedastic(model)
        x = model.concentration()
        f = specfun.f_var(4, x)
        g = specfun.g_var(4, x)
        res = optimize.min_variance(cov)
        assert res.value == pytest.approx(min(f, g), abs=1e-10)
        if f < g:
            align = abs(
                float(res.theta_star.coords @ sphere.standardize(model.mu).coords)
            )
            assert align == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n", [3, 10, 50])
    def test_value_at_concentration_1000(self, n):
        # f is about (n - 2) / (8 y^2) with y = 5e5, below g = 1/(2y) by
        # eight orders; the value still carries f to eigh's floor, eps g.
        mu = 1000.0 * hyperplane_basis(n)[:, 0]
        model = moments.HomoscedasticModel(mu=mu, sigma=1.0, rho=0.0)
        f_ref = mp_curves(n - 1, model.concentration())[1]
        res = optimize.min_variance(moments.cov_chi_homoscedastic(model))
        assert res.value == pytest.approx(f_ref, rel=1e-9, abs=0.0)
        md = sphere.standardize(model.mu)
        assert moments.variance_T_homoscedastic(md, model) == pytest.approx(
            f_ref, rel=1e-9, abs=0.0)

    def test_three_asset_grid_oracle(self):
        cov = random_constrained_psd(3, seed=7)
        res = optimize.min_variance(cov)
        basis = hyperplane_basis(3)
        angles = np.linspace(0.0, 2.0 * math.pi, 3600, endpoint=False)
        thetas = (
            np.cos(angles)[:, None] * basis[:, 0]
            + np.sin(angles)[:, None] * basis[:, 1]
        )
        grid_min = float(np.min(np.einsum("ij,jk,ik->i", thetas, cov, thetas)))
        w, _ = optimize.symmetric_eigen(cov)
        spread = float(w[-1] - w[1])
        bound = spread * (math.pi / 3600.0) ** 2 * 1.01 + 1e-12
        assert grid_min >= res.value - 1e-12
        assert grid_min - res.value <= bound

    def test_minimum_over_random_directions(self):
        n = 7
        cov = random_constrained_psd(n, seed=11)
        res = optimize.min_variance(cov)
        rng = np.random.default_rng(3)
        z = rng.standard_normal((20000, n))
        z -= z.mean(axis=1, keepdims=True)
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        values = np.einsum("ij,jk,ik->i", z, cov, z)
        assert float(values.min()) >= res.value - 1e-9

    def test_theta_star_attains_value(self):
        cov = random_constrained_psd(6, seed=23)
        res = optimize.min_variance(cov)
        attained = float(res.theta_star.coords @ cov @ res.theta_star.coords)
        assert attained == pytest.approx(res.value, abs=1e-10)

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionError,
                           match=r"^expected a square matrix, got \(3, 4\)$"):
            optimize.min_variance(np.zeros((3, 4)))
        with pytest.raises(DimensionError, match="^need at least 2 assets$"):
            optimize.min_variance(np.zeros((1, 1)))

    def test_rejects_cov_not_annihilating_ones(self):
        with pytest.raises(InvalidCovarianceError):
            optimize.min_variance(np.eye(4))

    def test_deterministic(self):
        cov = random_constrained_psd(5, seed=9)
        a = optimize.min_variance(cov)
        b = optimize.min_variance(cov.copy())
        assert np.array_equal(a.theta_star.coords, b.theta_star.coords)
        assert a.value == b.value


class TestMeanVariance:
    @staticmethod
    def model():
        return moments.HomoscedasticModel(
            mu=np.array([0.5, 0.2, -0.1, 0.4]), sigma=0.9, rho=0.15
        )

    def test_zero_penalty_recovers_expectation_problem(self):
        m = self.model()
        res = optimize.mean_variance_homoscedastic(m, 0.0)
        summary = moments.md_mrl_homoscedastic(m)
        assert np.array_equal(res.theta_star.coords, summary.md.coords)
        assert res.value == pytest.approx(summary.mrl, abs=1e-14)
        assert res.variance_only is False

    def test_infinite_penalty_reports_variance(self):
        m = self.model()
        res = optimize.mean_variance_homoscedastic(m, math.inf)
        f = specfun.f_var(m.n - 1, m.concentration())
        assert res.value == pytest.approx(f, abs=1e-14)
        assert res.variance_only is True
        assert "variance_only" in res.to_json_dict()

    def test_unit_penalty_composition(self):
        m = self.model()
        res = optimize.mean_variance_homoscedastic(m, 1.0)
        x = m.concentration()
        expect = specfun.varrho(m.n - 1, x) - specfun.f_var(m.n - 1, x)
        assert res.value == pytest.approx(expect, abs=1e-14)

    def test_direction_invariant_across_penalties(self):
        m = self.model()
        coords = [
            optimize.mean_variance_homoscedastic(m, lam).theta_star.coords
            for lam in (0.0, 0.5, 1.0, 10.0, math.inf)
        ]
        for other in coords[1:]:
            assert np.array_equal(coords[0], other)

    def test_two_assets(self):
        m = moments.HomoscedasticModel(
            mu=np.array([0.4, -0.4]), sigma=1.0, rho=0.0
        )
        res = optimize.mean_variance_homoscedastic(m, 1.0)
        mrl = specfun.varrho(1, m.concentration())
        assert res.value == pytest.approx(mrl - (1.0 - mrl ** 2), abs=1e-14)

    def test_degenerate_mean_rejected(self):
        m = moments.HomoscedasticModel(mu=np.ones(4), sigma=1.0, rho=0.0)
        with pytest.raises(UndefinedMeanDirectionError) as exc:
            optimize.mean_variance_homoscedastic(m, 1.0)
        assert exc.value.mrl == 0.0

    def test_rejects_negative_or_nan_penalty(self):
        m = self.model()
        with pytest.raises(DomainError):
            optimize.mean_variance_homoscedastic(m, -0.5)
        with pytest.raises(DomainError):
            optimize.mean_variance_homoscedastic(m, math.nan)
