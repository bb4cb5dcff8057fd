"""Acceptance gate: ten end-to-end checks at fixed tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL
line per criterion.
"""

import contextlib
import datetime
import json
import math
import time

import numpy as np
import pytest

from icsphere import (
    cli,
    empirical,
    fixtures,
    moments,
    montecarlo as mc,
    optimize,
    specfun,
    sphere,
)
from tests.conftest import business_days, one_factor_returns


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS: {description}")


def benchmark_model(which: str = "ten_base") -> moments.GaussianModel:
    mu, cov = fixtures.load_params(None, which)
    return moments.GaussianModel(mu, cov)


def test_criterion_01_rounded_closed_form():
    with criterion(1, "rounded ten-asset stats give varrho_9(0.1288) = 0.0417 "
                      "within 5e-5, under 1 second"):
        start = time.monotonic()
        model = benchmark_model()
        n = model.n
        pmu = float(np.linalg.norm(model.mu - model.mu.mean()))
        sigma_hat = float(np.sqrt(np.diag(model.cov).mean()))
        sd = np.sqrt(np.diag(model.cov))
        corr = model.cov / np.outer(sd, sd)
        rho_hat = float(corr[np.triu_indices(n, 1)].mean())
        pm_r, sg_r, rh_r = (round(v, 4) for v in (pmu, sigma_hat, rho_hat))
        assert (pm_r, sg_r, rh_r) == (0.0027, 0.0224, 0.1243)
        x = round(pm_r / (sg_r * math.sqrt(1.0 - rh_r)), 4)
        assert x == 0.1288
        value = specfun.varrho(n - 1, x)
        assert abs(value - 0.0417) <= 5e-5
        assert time.monotonic() - start < 1.0


def test_criterion_02_benchmark_mrl_bracket():
    with criterion(2, "1e6 seeded draws put the ten-asset MRL inside "
                      "[0.039, 0.044], under 60 seconds single-threaded"):
        start = time.monotonic()
        model = benchmark_model()
        mrl = mc.estimate_chi_mrl(
            model, 1_000_000, mc.SeededStream(cli.DEFAULT_SEED)
        )
        assert 0.039 <= mrl <= 0.044
        assert time.monotonic() - start < 60.0


def test_criterion_03_trace_identity():
    with criterion(3, "f + (n-1) g + varrho^2 = 1 within 1e-10 over "
                      "n = 2..200 and x in {0, 0.1, 0.5, 1, 2, 5, 10}, "
                      "under 5 seconds"):
        start = time.monotonic()
        worst = 0.0
        for n in range(2, 201):
            for x in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
                total = (
                    specfun.f_var(n, x)
                    + (n - 1) * specfun.g_var(n, x)
                    + specfun.varrho(n, x) ** 2
                )
                worst = max(worst, abs(total - 1.0))
        assert worst <= 1e-10
        assert time.monotonic() - start < 5.0


def test_criterion_04_projected_moments_match_mc():
    with criterion(4, "closed-form projected mean and covariance agree with "
                      "1e7-draw Monte Carlo within 4 standard errors at "
                      "(n, x) = (3, 1.0), (5, 0.5), (9, 0.1288), "
                      "under 10 minutes"):
        start = time.monotonic()
        for i, (n, x) in enumerate([(3, 1.0), (5, 0.5), (9, 0.1288)]):
            stream = mc.SeededStream(cli.DEFAULT_SEED, i * mc.STREAM_BLOCK)
            res = mc.projected_moments_mc(n, x, 10_000_000, stream)
            closed_mean = np.zeros(n)
            closed_mean[0] = specfun.varrho(n, x)
            closed_cov = moments.projected_cov_canonical(n, x)
            assert np.all(
                np.abs(res.mean - closed_mean) <= 4.0 * res.se_mean + 1e-12
            ), f"mean off at (n={n}, x={x})"
            assert np.all(
                np.abs(res.cov - closed_cov) <= 4.0 * res.se_cov + 1e-12
            ), f"covariance off at (n={n}, x={x})"
        assert time.monotonic() - start < 600.0


def test_criterion_05_two_asset_case():
    with criterion(5, "two-asset closed form matches 1e6-draw Monte Carlo "
                      "within 4 standard errors and the equicorrelated path "
                      "within 1e-10"):
        mu1, mu2, s1, s2, r12 = 0.012, 0.004, 0.03, 0.03, 0.2
        closed = moments.two_dim_normal(mu1, mu2, s1, s2, r12)
        cov = np.array([
            [s1 * s1, r12 * s1 * s2],
            [r12 * s1 * s2, s2 * s2],
        ])
        model = moments.GaussianModel(mu=np.array([mu1, mu2]), cov=cov)
        count = 1_000_000
        mrl_hat = mc.estimate_chi_mrl(
            model, count, mc.SeededStream(cli.DEFAULT_SEED)
        )
        se = math.sqrt((1.0 - closed.mrl ** 2) / count)
        assert abs(mrl_hat - closed.mrl) <= 4.0 * se

        homo = moments.HomoscedasticModel(
            mu=np.array([mu1, mu2]), sigma=s1, rho=r12
        )
        via_model = moments.md_mrl_homoscedastic(homo)
        assert abs(via_model.mrl - closed.mrl) <= 1e-10
        assert np.max(np.abs(via_model.md.coords - closed.md.coords)) <= 1e-10
        assert np.max(np.abs(via_model.cov_chi - closed.cov_chi)) <= 1e-10


def test_criterion_06_optimizers_agree_with_closed_forms():
    with criterion(6, "on 20 random equicorrelated models the variance "
                      "minimizer attains min(f, g) within 1e-10, aligns with "
                      "the mean direction when f < g, and the mean-variance "
                      "maximizer is penalty-invariant"):
        rng = np.random.default_rng(60)
        for trial in range(20):
            n = int(rng.integers(3, 13))
            mu = rng.standard_normal(n)
            if np.linalg.norm(mu - mu.mean()) < 1e-6:
                mu[0] += 1.0
            sigma = float(rng.uniform(0.5, 2.0))
            rho = float(rng.uniform(-0.5 / (n - 1), 0.6))
            model = moments.HomoscedasticModel(mu=mu, sigma=sigma, rho=rho)
            x = model.concentration()
            f = specfun.f_var(n - 1, x)
            g = specfun.g_var(n - 1, x)
            res = optimize.min_variance(moments.cov_chi_homoscedastic(model))
            assert abs(res.value - min(f, g)) <= 1e-10, f"trial {trial}"
            align = abs(float(
                res.theta_star.coords @ sphere.standardize(mu).coords
            ))
            if f < g:
                assert abs(align - 1.0) <= 1e-8, f"trial {trial}"
            elif g < f:
                assert align <= 1e-8, f"trial {trial}"
            coords = [
                optimize.mean_variance_homoscedastic(model, lam).theta_star.coords
                for lam in (0.0, 1.0, math.inf)
            ]
            assert np.array_equal(coords[0], coords[1])
            assert np.array_equal(coords[1], coords[2])


def test_criterion_07_representation_identities():
    with criterion(7, "for 50 random positive-definite covariances the "
                      "orthogonal representation satisfies U^T U = I, "
                      "U^T P U = diag(I, 0), and diagonalizes the projected "
                      "covariance, all within 1e-10"):
        rng = np.random.default_rng(70)
        for trial in range(50):
            n = int(rng.integers(3, 21))
            a = rng.standard_normal((n, n))
            cov = a @ a.T + 0.5 * np.eye(n)
            mu = rng.standard_normal(n)
            rep = sphere.build_representation(mu, cov)
            u = rep.u
            assert np.max(np.abs(u.T @ u - np.eye(n))) <= 1e-10, f"trial {trial}"
            gram = u.T @ sphere.centering_matrix(n) @ u
            target = np.eye(n)
            target[n - 1, n - 1] = 0.0
            assert np.max(np.abs(gram - target)) <= 1e-10, f"trial {trial}"
            block = (u.T @ cov @ u)[: n - 1, : n - 1]
            assert np.max(np.abs(block - np.diag(rep.lam))) <= 1e-10, (
                f"trial {trial}"
            )
            assert np.all(np.diff(rep.lam) <= 1e-12)


def panel_for_acceptance(seed: int = 808, t: int = 750,
                         n: int = 10) -> empirical.ReturnPanel:
    dates = business_days(datetime.date(2016, 1, 4), t)
    matrix = one_factor_returns(t, n, seed=seed)
    return empirical.ReturnPanel(
        dates=tuple(dates),
        tickers=tuple(f"A{j}" for j in range(n)),
        returns=matrix,
        missing_mask=np.zeros((t, n), dtype=bool),
    )


def test_criterion_08_window_identities():
    with criterion(8, "on every test panel the window's projected series "
                      "averages exactly to its MRL (1e-12) and the scatter "
                      "spectrum sums to 1 with a null eigenvalue along the "
                      "constant vector"):
        panels = [
            panel_for_acceptance(),
            panel_for_acceptance(seed=809, t=380, n=6),
            panel_for_acceptance(seed=810, t=520, n=15),
        ]
        for panel in panels:
            spanel = empirical.standardize_panel(panel)
            report = empirical.window_report(spanel, "full")
            assert abs(
                report.projected_stats["mean"] - report.summary.mrl
            ) <= 1e-12
            w = report.scatter_eigenvalues
            assert abs(float(w.sum()) - 1.0) <= 1e-10
            assert w[-1] <= 1e-10
            scatter = mc.scatter_matrix(spanel.sample)
            evals, evecs = optimize.symmetric_eigen(scatter)
            n = spanel.sample.dim
            assert abs(evals[0]) <= 1e-10
            assert np.max(
                np.abs(evecs[:, 0] - np.full(n, 1.0 / math.sqrt(n)))
            ) <= 1e-8


def test_criterion_09_standardization_removes_common_correlation():
    with criterion(9, "standardizing a strongly one-factor panel shrinks the "
                      "average pairwise correlation by more than a factor "
                      "of 5"):
        panel = panel_for_acceptance()
        spanel = empirical.standardize_panel(panel)
        out = empirical.correlation_summary(panel.returns, spanel.sample.matrix)
        assert abs(out["mean_corr_z"]) > 0.0
        assert abs(out["mean_corr_x"]) < abs(out["mean_corr_z"]) / 5.0


def test_criterion_10_manifest_reruns_bit_identical(tmp_path, capsys):
    with criterion(10, "re-running simulate and oracle manifests reproduces "
                       "every artifact byte for byte"):
        first = tmp_path / "run1"
        assert cli.main(
            ["simulate", "mrl-check", "--count", "50000", "--seed", "20240701",
             "--output-dir", str(first)]
        ) == 0
        second = tmp_path / "run2"
        assert cli.main(
            ["rerun", "--manifest", str(first / "manifest.json"),
             "--output-dir", str(second)]
        ) == 0
        third = tmp_path / "run3"
        assert cli.main(
            ["rerun", "--manifest", str(second / "manifest.json"),
             "--output-dir", str(third)]
        ) == 0
        capsys.readouterr()
        manifest = json.loads((first / "manifest.json").read_text())
        names = list(manifest["artifacts"]) + ["manifest.json"]
        for name in names:
            ref = (first / name).read_bytes()
            assert (second / name).read_bytes() == ref
            assert (third / name).read_bytes() == ref

        ofirst = tmp_path / "oracle1"
        assert cli.main(
            ["oracle", "--suite", "cov", "--count", "20000",
             "--seed", "20240701", "--output-dir", str(ofirst)]
        ) == 0
        osecond = tmp_path / "oracle2"
        assert cli.main(
            ["rerun", "--manifest", str(ofirst / "manifest.json"),
             "--output-dir", str(osecond)]
        ) == 0
        capsys.readouterr()
        omanifest = json.loads((ofirst / "manifest.json").read_text())
        for name in list(omanifest["artifacts"]) + ["manifest.json"]:
            assert (osecond / name).read_bytes() == (ofirst / name).read_bytes()
