"""Generate the reference values frozen into the test suite.

Every closed-form number asserted by the tests is derived here first, using
implementations that are independent of the package: mpmath at 50 digits for
the special-function values, numpy's PCG64 generator for the Monte Carlo
cross-checks, and plain stdlib math for the erf-based identities.

Run from the repository root:

    python scripts/derive_expected_values.py
"""

import json
import math
from pathlib import Path

import mpmath
import numpy as np

mpmath.mp.dps = 50


def varrho_ref(n: int, x) -> mpmath.mpf:
    # Gamma((n+1)/2) / (sqrt(2) Gamma((n+2)/2)) * x * M(1/2, (n+2)/2, -x^2/2)
    x = mpmath.mpf(x)
    pre = mpmath.gamma((n + 1) / mpmath.mpf(2)) / (
        mpmath.sqrt(2) * mpmath.gamma((n + 2) / mpmath.mpf(2))
    )
    return pre * x * mpmath.hyp1f1(mpmath.mpf(1) / 2, (n + 2) / mpmath.mpf(2), -(x**2) / 2)


def f_ref(n: int, x) -> mpmath.mpf:
    x = mpmath.mpf(x)
    m = mpmath.hyp1f1(1, n / mpmath.mpf(2) + 1, -(x**2) / 2)
    return 1 - mpmath.mpf(n - 1) / n * m - varrho_ref(n, x) ** 2


def g_ref(n: int, x) -> mpmath.mpf:
    x = mpmath.mpf(x)
    return mpmath.hyp1f1(1, n / mpmath.mpf(2) + 1, -(x**2) / 2) / n


def area_ref(n: int) -> mpmath.mpf:
    return 2 * mpmath.pi ** ((n - 2) / mpmath.mpf(2)) / mpmath.gamma((n - 2) / mpmath.mpf(2))


def mc_projected_variances(n: int, x: float, count: int, seed: int):
    """Variance of u_1 and u_2 for u = xi/||xi||, xi ~ N((x,0,..,0), I_n)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    s1 = s2 = q1 = q2 = 0.0
    m1 = 0.0
    done = 0
    while done < count:
        m = min(1_000_000, count - done)
        g = rng.standard_normal((m, n))
        g[:, 0] += x
        u = g / np.linalg.norm(g, axis=1, keepdims=True)
        s1 += float(np.sum(u[:, 0]))
        q1 += float(np.sum(u[:, 0] ** 2))
        s2 += float(np.sum(u[:, 1]))
        q2 += float(np.sum(u[:, 1] ** 2))
        m1 += float(np.sum(u[:, 0] ** 4))
        done += m
    e1, e2 = s1 / count, s2 / count
    v1 = q1 / count - e1**2
    v2 = q2 / count - e2**2
    # standard error of the var(u_1) estimate, for the 4-SE bracket
    se1 = math.sqrt(max(m1 / count - (q1 / count) ** 2, 0.0) / count)
    return e1, v1, v2, se1


def mc_mrl_mu10(params, count: int, seed: int):
    """MC mean resultant length of centered-unitized draws, numpy generator."""
    mu = np.array(params["mu10"])
    sigma = np.array(params["sigma10"])
    rng = np.random.Generator(np.random.PCG64(seed))
    chol = np.linalg.cholesky(sigma)
    acc = np.zeros(len(mu))
    done = 0
    while done < count:
        m = min(500_000, count - done)
        z = rng.standard_normal((m, len(mu))) @ chol.T + mu
        zc = z - z.mean(axis=1, keepdims=True)
        acc += (zc / np.linalg.norm(zc, axis=1, keepdims=True)).sum(axis=0)
        done += m
    return float(np.linalg.norm(acc / count))


# The bundled fixture, read as plain JSON: the one copy of the benchmark
# parameters.
PARAMS_PATH = (Path(__file__).resolve().parent.parent
               / "src" / "icsphere" / "fixtures" / "benchmark_params.json")


def main() -> None:
    params = json.loads(PARAMS_PATH.read_text())

    print("== erf identities (stdlib math) ==")
    print(f"varrho_1(1.0) = erf(1/sqrt(2))      = {math.erf(1 / math.sqrt(2)):.16f}")
    print(f"2*(Phi(1/sqrt(2))-0.5) = erf(0.5)   = {math.erf(0.5):.16f}")

    print("\n== mpmath 50-dp special-function references ==")
    for n, x in [(9, 0.1288), (1, 1.0), (2, 0.5), (4, 2.0), (9, 0.12775)]:
        print(f"varrho_{n}({x}) = {mpmath.nstr(varrho_ref(n, x), 17)}")
    for n, x in [(3, 1.0), (5, 0.5), (9, 0.1288), (3, 2.0)]:
        print(f"f_{n}({x}) = {mpmath.nstr(f_ref(n, x), 17)}   g_{n}({x}) = {mpmath.nstr(g_ref(n, x), 17)}")
    print(f"M(1/2, 11/2, -0.1288^2/2) = {mpmath.nstr(mpmath.hyp1f1(0.5, 5.5, -0.1288**2 / 2), 17)}")
    print(f"M(1, 2, 1) = e - 1 = {mpmath.nstr(mpmath.hyp1f1(1, 2, 1), 17)}")

    print("\n== large arguments (test_specfun's *_LARGE_REF) ==")
    for n, x in [(5, 39.999), (5, 40.0), (5, 50.0)]:
        print(f"varrho_{n}({x}) = {mpmath.nstr(varrho_ref(n, x), 17)}   "
              f"f_{n}({x}) = {mpmath.nstr(f_ref(n, x), 17)}   g_{n}({x}) = {mpmath.nstr(g_ref(n, x), 17)}")
    print(f"M(1, 7/2, -39.999^2/2) = {mpmath.nstr(mpmath.hyp1f1(1, 3.5, -(39.999**2) / 2), 17)}")
    print(f"M(1, 2001, -1000) = {mpmath.nstr(mpmath.hyp1f1(1, 2001, -1000), 17)}")
    # moments --mu 1,0,0,0 --sigma 0.02 --rho 0.1: ||P mu|| / (sigma sqrt(1 - rho))
    x_cli = math.sqrt(0.75) / (0.02 * math.sqrt(1 - 0.1))
    print(f"x = {x_cli!r} -> varrho_3 = {mpmath.nstr(varrho_ref(3, x_cli), 17)}")

    print("\n== support surface areas ==")
    for n in [4, 10, 50, 100, 300]:
        print(f"area({n}) = {mpmath.nstr(area_ref(n), 12)}")

    print("\n== ten-asset benchmark chain ==")
    mu = np.array(params["mu10"])
    sig = np.array(params["sigma10"])
    pmu = mu - mu.mean()
    norm_pmu = float(np.linalg.norm(pmu))
    sd = np.sqrt(np.diag(sig))
    sigma_hat = float(np.sqrt(np.mean(np.diag(sig))))
    corr = sig / np.outer(sd, sd)
    iu = np.triu_indices(len(mu), k=1)
    rho_hat = float(np.mean(corr[iu]))
    print(f"||P mu10||  = {norm_pmu:.10e}  (rounds to {round(norm_pmu, 4)})")
    print(f"sigma_hat   = {sigma_hat:.10e}  (rounds to {round(sigma_hat, 4)})")
    print(f"rho_hat     = {rho_hat:.10e}  (rounds to {round(rho_hat, 4)})")
    x_exact = norm_pmu / (sigma_hat * math.sqrt(1 - rho_hat))
    x_round = round(norm_pmu, 4) / (round(sigma_hat, 4) * math.sqrt(1 - round(rho_hat, 4)))
    print(f"x exact     = {x_exact:.10f} -> varrho_9 = {mpmath.nstr(varrho_ref(9, x_exact), 10)}")
    print(f"x rounded   = {x_round:.10f} -> varrho_9(0.1288) = {mpmath.nstr(varrho_ref(9, 0.1288), 10)}")

    print("\n== Monte Carlo cross-checks (numpy PCG64, independent of the package) ==")
    for n, x, cnt in [(3, 1.0, 10_000_000), (3, 2.0, 10_000_000), (9, 0.1288, 10_000_000)]:
        e1, v1, v2, se1 = mc_projected_variances(n, x, cnt, seed=777)
        print(
            f"(n={n}, x={x}, N={cnt}): mean u1 = {e1:.6f} (closed {mpmath.nstr(varrho_ref(n, x), 7)}), "
            f"var u1 = {v1:.6f} (closed {mpmath.nstr(f_ref(n, x), 7)}, se {se1:.2e}), "
            f"var u2 = {v2:.6f} (closed {mpmath.nstr(g_ref(n, x), 7)})"
        )
    mrl = mc_mrl_mu10(params, 1_000_000, seed=99)
    print(f"MC MRL, ten-asset benchmark, N=1e6: {mrl:.6f} (bracket [0.039, 0.044])")


if __name__ == "__main__":
    main()
