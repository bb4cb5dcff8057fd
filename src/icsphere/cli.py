"""Command-line interface.

Four subcommands (moments, simulate, empirical, oracle) plus rerun.
Each command only computes: it hands its artifacts to the one _Output
that main passes it and returns its exit code. After the command
returns, main writes every artifact to --output-dir and then a
manifest.json of them (oracle's report too when a check fails and it
returns 4): the normalized argument vector, the seed, and the sha256 of
each artifact. A command that fails raises before main writes, so it
leaves no output. Rerunning a manifest reproduces the artifacts bit for
bit.

Exit codes: 0 success, 1 degenerate input, 2 usage or model error,
3 convergence or sampling failure, 4 oracle mismatch.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import io
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import empirical as emp
from . import fixtures, montecarlo, moments, optimize, specfun
from .errors import (
    ConvergenceError,
    DegenerateInputError,
    DimensionError,
    DomainError,
    InvalidCovarianceError,
    MalformedInputError,
    ModelError,
    NoUniqueSolutionError,
)
from .sphere import UnitDirection, standardize

DEFAULT_SEED = 20240701
SEED_ENV_VAR = "ICSPHERE_SEED"

EXIT_OK = 0
EXIT_DEGENERATE = 1
EXIT_USAGE = 2
EXIT_CONVERGENCE = 3
EXIT_ORACLE = 4


# ---------------------------------------------------------------- helpers


def _parse_vector(text: str, what: str) -> np.ndarray:
    """Parse 'a,b,c' or '@path' (JSON list, or whitespace/comma numbers)."""
    text = text.strip()
    if text.startswith("@"):
        try:
            content = Path(text[1:]).read_text().strip()
        except OSError as exc:
            raise MalformedInputError(f"cannot read {what} file: {exc}") from None
        if content.startswith("["):
            try:
                values = json.loads(content)
            except json.JSONDecodeError as exc:
                raise MalformedInputError(f"bad JSON in {what} file: {exc}") from None
        else:
            values = content.replace(",", " ").split()
    else:
        values = [v for v in text.split(",") if v.strip() != ""]
    try:
        arr = np.asarray([float(v) for v in values], dtype=np.float64)
    except (TypeError, ValueError):
        raise MalformedInputError(f"{what} is not a list of numbers") from None
    if arr.size < 2:
        raise MalformedInputError(f"{what} needs at least 2 components")
    return arr


def _resolve_seed(value) -> int:
    """--seed, else $ICSPHERE_SEED, else DEFAULT_SEED, in [0, 2^64):
    SeededStream reduces a seed mod 2^64, so wider ones would alias."""
    if value is None:
        env = os.environ.get(SEED_ENV_VAR)
        if env is None:
            return DEFAULT_SEED
        try:
            value = int(env)
        except ValueError:
            raise MalformedInputError(
                f"{SEED_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    if not 0 <= value < 1 << 64:
        raise MalformedInputError(f"seed must lie in [0, 2^64), got {value}")
    return value


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _manifest_argv(args) -> list[str]:
    """The command path, then every option of its parser that has a
    value, in parser order. --output-dir and --threads never change an
    artifact, so they are left out. str gives a float's repr; a value that
    starts with '-' is written --opt=value, or argparse reads it as an option."""
    argv = list(args.path)
    for action in args.parser._actions:
        value = getattr(args, action.dest, None)
        if (action.option_strings and value is not None
                and action.dest not in ("output_dir", "threads")):
            opt, text = action.option_strings[0], str(value)
            argv += [f"{opt}={text}"] if text.startswith("-") else [opt, text]
    return argv


class _Output:
    """A run's artifacts, kept as bytes under their names until main calls
    write(). Every artifact is ASCII, so its bytes are its UTF-8 text."""

    def __init__(self, args):
        self.args = args
        self.files: dict[str, bytes] = {}

    def text(self, name: str, text: str) -> None:
        self.files[name] = text.encode()

    def json(self, name: str, obj) -> None:
        self.text(name, _json_text(obj))

    def csv(self, name: str, header: list[str], rows) -> None:
        buf = io.StringIO()
        # Cells are Python floats, ints or strs; csv writes a float with repr.
        csv.writer(buf).writerows(itertools.chain([header], rows))
        self.text(name, buf.getvalue())

    def write(self) -> None:
        """Write every artifact to --output-dir, then manifest.json of
        their sha256; nothing without --output-dir or artifacts."""
        if self.args.output_dir is None or not self.files:
            return
        self.json("manifest.json", {
            "command": ".".join(self.args.path),
            "parameters": {"argv": _manifest_argv(self.args)},
            "seed": getattr(self.args, "seed", None),
            "artifacts": {name: hashlib.sha256(data).hexdigest()
                          for name, data in self.files.items()},
            "library_version": __version__,
        })
        path = Path(self.args.output_dir)
        try:
            path.mkdir(parents=True, exist_ok=True)
            for name, data in self.files.items():
                (path / name).write_bytes(data)
        except OSError as exc:
            raise MalformedInputError(f"unusable --output-dir: {exc}") from None


# ---------------------------------------------------------------- moments


def _cmd_moments(args, out: _Output) -> int:
    mu = _parse_vector(args.mu, "--mu")
    model = moments.HomoscedasticModel(mu=mu, sigma=args.sigma, rho=args.rho)
    summary = moments.md_mrl_homoscedastic(model)
    payload = {
        "n": model.n,
        "sigma": args.sigma,
        "rho": args.rho,
        "concentration": model.concentration(),
        "summary": summary.to_json_dict(),
    }
    if args.theta is not None:
        theta = standardize(_parse_vector(args.theta, "--theta"))
        payload["theta"] = [float(v) for v in theta.coords]
        payload["expectation"] = moments.expectation_T(theta, summary)
        payload["variance"] = moments.variance_T(theta, summary.cov_chi)
    text = _json_text(payload)
    sys.stdout.write(text)
    out.text("moments.json", text)
    return EXIT_OK


# ---------------------------------------------------------------- simulate


def _cmd_simulate_ic_pdf(args, out: _Output) -> int:
    which = "ten_hetero" if args.variant == "hetero" else "ten_base"
    mu, cov = fixtures.load_params(args.params and args.params.removeprefix("@"), which)
    model = moments.GaussianModel(mu, cov)
    stream = montecarlo.SeededStream(args.seed)
    density, values = montecarlo.ic_distribution(
        model, args.mode, args.count, stream, bandwidth=args.bandwidth)
    out.csv("ic_pdf_density.csv", ["t", "density"],
            zip(density.grid.tolist(), density.density.tolist()))
    summary = {
        "mode": args.mode,
        "variant": args.variant,
        "count": int(values.size),
        "seed": args.seed,
        "bandwidth": float(density.bandwidth),
        "mean": float(values.mean()),
        "sd": float(values.std(ddof=1)),
        "min": float(values.min()),
        "max": float(values.max()),
    }
    out.json("ic_pdf_summary.json", summary)
    sys.stdout.write(
        f"ic-pdf: {values.size} projections, mean {summary['mean']:.6f}, "
        f"sd {summary['sd']:.6f}\n"
    )
    return EXIT_OK


def _cmd_simulate_md_perturb(args, out: _Output) -> int:
    mu, cov = fixtures.load_params(args.params and args.params.removeprefix("@"), "three")
    try:
        factors = [float(f) for f in args.factors.split(",") if f.strip() != ""]
    except ValueError:
        raise MalformedInputError(
            f"--factors is not a list of numbers: {args.factors!r}") from None
    base = standardize(mu).coords
    stream = montecarlo.SeededStream(args.seed)
    points = montecarlo.md_perturbation_experiment(
        mu, cov, args.axis, factors, args.count, stream)
    n = len(mu)
    header = ["factor", "mrl"] + [f"md_{i + 1}" for i in range(n)] + ["angle_to_base_deg"]
    rows = []
    for pt in points:
        cosang = float(np.clip(pt.md.coords @ base, -1.0, 1.0))
        rows.append([pt.factor, pt.mrl]
                    + [float(v) for v in pt.md.coords]
                    + [math.degrees(math.acos(cosang))])
    out.csv("md_perturb.csv", header, rows)
    sys.stdout.write(f"md-perturb: {len(points)} factors along {args.axis}\n")
    return EXIT_OK


def _cmd_simulate_mrl_check(args, out: _Output) -> int:
    mu, cov = fixtures.load_params(args.params and args.params.removeprefix("@"), "ten_base")
    model = moments.GaussianModel(mu, cov)
    n = model.n

    # Reduced-form summary statistics, each rounded to 4 decimals before
    # entering the closed form (the reporting convention for this check).
    pmu_norm = float(np.linalg.norm(mu - np.mean(mu)))
    sigma_hat = float(np.sqrt(np.diag(cov).mean()))
    sd = np.sqrt(np.diag(cov))
    corr = cov / np.outer(sd, sd)
    rho_hat = float(corr[np.triu_indices(n, 1)].mean())
    pm_r, sg_r, rh_r = (round(v, 4) for v in (pmu_norm, sigma_hat, rho_hat))
    if sg_r == 0.0 or rh_r >= 1.0:
        raise DomainError(f"sigma_hat {sigma_hat!r} and rho_hat {rho_hat!r} round to "
                          f"{sg_r!r} and {rh_r!r} at 4 decimals; no closed form")
    x = round(pm_r / (sg_r * math.sqrt(1.0 - rh_r)), 4)
    closed = specfun.varrho(n - 1, x)

    stream = montecarlo.SeededStream(args.seed)
    mc = montecarlo.estimate_chi_mrl(model, args.count, stream)
    bracket = [0.039, 0.044]
    payload = {
        "projected_mean_norm": pmu_norm,
        "sigma_hat": sigma_hat,
        "rho_hat": rho_hat,
        "rounded": {"projected_mean_norm": pm_r, "sigma_hat": sg_r,
                    "rho_hat": rh_r, "argument": x},
        "closed_form_mrl": closed,
        "mc_mrl": mc,
        "count": args.count,
        "seed": args.seed,
        "bracket": bracket,
        "mc_within_bracket": bool(bracket[0] <= mc <= bracket[1]),
    }
    out.json("mrl_check.json", payload)
    sys.stdout.write(
        f"mrl-check: closed-form {closed:.4f} | mc {mc:.4f} "
        f"(count {args.count})\n"
    )
    return EXIT_OK


# ---------------------------------------------------------------- empirical


def _parse_windows(spec: str, panel: emp.ReturnPanel) -> list[tuple[str, np.ndarray]]:
    full = ("full", np.ones(panel.t, dtype=bool))
    if spec == "full":
        return [full]
    if spec == "yearly":
        return emp.yearly_windows(panel) + [full]
    if ":" in spec:
        lo, hi = spec.split(":", 1)
        try:
            start = datetime.date.fromisoformat(lo)
            end = datetime.date.fromisoformat(hi)
        except ValueError:
            raise MalformedInputError(
                f"--windows range must be ISO dates 'from:to', got {spec!r}"
            ) from None
        return [emp.range_window(panel, start, end)]
    raise MalformedInputError(
        f"--windows must be 'yearly', 'full', or 'from:to', got {spec!r}"
    )


def _cmd_empirical(args, out: _Output) -> int:
    panel = emp.load_panel(args.input, missing_policy=args.missing_policy)
    spanel = emp.standardize_panel(panel)
    iota = None
    if args.iota != "md":
        iota = standardize(_parse_vector(args.iota, "--iota"))
        if iota.dim != panel.n:
            raise DimensionError(
                f"--iota has {iota.dim} components, panel has {panel.n}"
            )
    windows = _parse_windows(args.windows, panel)
    for label, rows in windows:
        sub = spanel.restrict(rows)
        report = emp.window_report(sub, label, iota=iota)
        out.json(f"window_{label}.json", report.to_json_dict())
        out.csv(f"scatter_spectrum_{label}.csv", ["rank", "eigenvalue"],
                [(i + 1, float(v)) for i, v in
                 enumerate(report.scatter_eigenvalues)])
        out.csv(f"projected_{label}.csv", ["date", "value"],
                zip((d.isoformat() for d in sub.dates),
                    report.projected_series.tolist()))
    out.json("correlations.json", emp.correlation_summary(
        panel.returns[spanel.kept], spanel.sample.matrix))
    if args.rolling is not None:
        out.csv("rolling.csv", ["date", "mrl", "cssd"],
                [(d.isoformat(), "" if math.isnan(m) else m, c)
                 for d, m, c in emp.rolling_mrl_cssd(spanel, window=args.rolling)])

    info = {
        "input": str(args.input),
        "rows": panel.t,
        "columns": panel.n,
        "dropped_columns": list(panel.dropped_columns),
        "filled_cells": panel.filled_cells,
        "dropped_rows": panel.dropped_rows,
        "degenerate_rows": spanel.dropped_degenerate,
        "windows": [label for label, _ in windows],
        "missing_policy": args.missing_policy,
        "iota": args.iota,
    }
    out.json("empirical_summary.json", info)
    sys.stdout.write(
        f"empirical: {panel.t} rows x {panel.n} assets, "
        f"{len(windows)} windows, "
        f"{spanel.dropped_degenerate} degenerate rows\n"
    )
    return EXIT_OK


# ---------------------------------------------------------------- oracle


def _oracle_specfun(checks: list, count: int, seed: int) -> None:
    worst = 0.0
    for x in np.linspace(0.0, 6.0, 61):
        worst = max(worst, abs(specfun.varrho(1, float(x))
                               - math.erf(float(x) / math.sqrt(2.0))))
    checks.append(("specfun.erf_identity", worst <= 1e-13, f"max |diff| {worst:.3e}"))

    worst = 0.0
    for n in (2, 3, 5, 10, 20, 50, 100, 200):
        for x in (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 100.0, 1000.0):
            total = (specfun.f_var(n, x) + (n - 1) * specfun.g_var(n, x)
                     + specfun.varrho(n, x) ** 2)
            worst = max(worst, abs(total - 1.0))
    checks.append(("specfun.trace_identity", worst <= 1e-13, f"max |dev| {worst:.3e}"))

    frozen = [
        ("varrho(9, 0.1288)", specfun.varrho(9, 0.1288), 0.041728045545844033),
        ("f_var(3, 1.0)", specfun.f_var(3, 1.0), 0.21535759191687602),
        ("g_var(5, 0.5)", specfun.g_var(5, 0.5), 0.19305113147054719),
    ]
    worst = max(abs(got - ref) / abs(ref) for _, got, ref in frozen)
    checks.append(("specfun.frozen_values", worst <= 1e-13, f"max rel {worst:.3e}"))


def _oracle_cov(checks: list, count: int, seed: int) -> None:
    cases = [(3, 1.0), (5, 0.5), (9, 0.1288)]
    for i, (n, x) in enumerate(cases):
        stream = montecarlo.SeededStream(seed, i * montecarlo.STREAM_BLOCK)
        mc = montecarlo.projected_moments_mc(n, x, count, stream)
        closed_mean = np.zeros(n)
        closed_mean[0] = specfun.varrho(n, x)
        closed_cov = moments.projected_cov_canonical(n, x)
        mean_ok = np.all(np.abs(mc.mean - closed_mean) <= 4.0 * mc.se_mean + 1e-12)
        cov_ok = np.all(np.abs(mc.cov - closed_cov) <= 4.0 * mc.se_cov + 1e-12)
        worst_mean = float(np.max(np.abs(mc.mean - closed_mean) / (mc.se_mean + 1e-300)))
        worst_cov = float(np.max(np.abs(mc.cov - closed_cov) / (mc.se_cov + 1e-300)))
        checks.append((
            f"cov.canonical_n{n}",
            bool(mean_ok and cov_ok),
            f"max |dev|/SE: mean {worst_mean:.2f}, cov {worst_cov:.2f} (N={count})",
        ))


def _optimize_failure(seed: int) -> str:
    """The first failure of the homoscedastic optimize trials, or ''."""
    import random

    rng = random.Random(seed)
    for trial in range(10):
        n = rng.randint(3, 12)
        mu = np.array([rng.uniform(-1.0, 1.0) for _ in range(n)])
        if np.allclose(mu - mu.mean(), 0.0):
            mu[0] += 1.0
        sigma = rng.uniform(0.5, 2.0)
        rho = rng.uniform(-0.5 / (n - 1), 0.6)
        model = moments.HomoscedasticModel(mu=mu, sigma=sigma, rho=rho)
        x = model.concentration()
        f = specfun.f_var(n - 1, x)
        g = specfun.g_var(n - 1, x)
        cov = moments.cov_chi_homoscedastic(model)
        res = optimize.min_variance(cov)
        if abs(res.value - min(f, g)) > 1e-10:
            return f"trial {trial}: min-variance value off by {abs(res.value - min(f, g)):.2e}"
        if f < g:
            align = abs(float(res.theta_star.coords @ standardize(mu).coords))
            if abs(align - 1.0) > 1e-8:
                return f"trial {trial}: minimizer misaligned ({align:.12f})"
        lam_results = [
            optimize.mean_variance_homoscedastic(model, lam)
            for lam in (0.0, 1.0, math.inf)
        ]
        coords = [r.theta_star.coords for r in lam_results]
        if not (np.array_equal(coords[0], coords[1])
                and np.array_equal(coords[1], coords[2])):
            return f"trial {trial}: penalty level changed the maximizer"
    return ""


def _oracle_optimize(checks: list, count: int, seed: int) -> None:
    detail = _optimize_failure(seed)
    checks.append(("optimize.homoscedastic_suite", not detail, detail or "10 trials"))


_ORACLE_SUITES = {"specfun": _oracle_specfun, "cov": _oracle_cov,
                  "optimize": _oracle_optimize}


def _cmd_oracle(args, out: _Output) -> int:
    checks: list[tuple[str, bool, str]] = []
    for suite, run in _ORACLE_SUITES.items():
        if args.suite in (suite, "all"):
            run(checks, args.count, args.seed)

    for name, ok, detail in checks:
        sys.stdout.write(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}\n")
    failed = [name for name, ok, _ in checks if not ok]

    out.json("oracle_report.json", {
        "suite": args.suite,
        "count": args.count,
        "seed": args.seed,
        "checks": [
            {"name": n, "ok": ok, "detail": d} for n, ok, d in checks
        ],
    })
    if failed:
        sys.stderr.write(
            f"oracle failure: {len(failed)} oracle check(s) failed: {failed}\n")
        return EXIT_ORACLE
    return EXIT_OK


# ---------------------------------------------------------------- rerun


def _cmd_rerun(args, out: _Output) -> int:
    try:
        manifest = json.loads(Path(args.manifest).read_text())
        argv = manifest["parameters"]["argv"]
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise MalformedInputError(f"unusable manifest: {exc}") from None
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)):
        raise MalformedInputError(
            f"unusable manifest: argv must be a list of strings, got {argv!r}")
    if not argv or argv[0] not in ("moments", "simulate", "empirical", "oracle"):
        raise MalformedInputError(
            "unusable manifest: argv must start with a command that writes "
            f"a manifest, got {argv!r}")
    return main(argv + ["--output-dir", str(args.output_dir)])


# ---------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icsphere",
        description="Directional moments of standardized cross-sections: "
                    "closed forms, seeded simulation, and panel reports.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(subparsers, path, run, **kwargs):
        p = subparsers.add_parser(path[-1], **kwargs)
        p.set_defaults(run=run, path=path, parser=p)
        return p

    def add_threads(p):
        p.add_argument("--threads", type=int, default=None,
                       help="accepted for old scripts; has no effect")

    p_mom = command(sub, ("moments",), _cmd_moments,
                    help="closed-form moments and IC stats")
    p_mom.add_argument("--mu", required=True,
                       help="mean vector: comma list or @file")
    p_mom.add_argument("--sigma", required=True, type=float,
                       help="common volatility (positive)")
    p_mom.add_argument("--rho", required=True, type=float,
                       help="common pairwise correlation")
    p_mom.add_argument("--theta", default=None,
                       help="forecast vector to score: comma list or @file")
    p_mom.add_argument("--output-dir", default=None,
                       help="also write moments.json and a manifest here")

    p_sim = sub.add_parser("simulate", help="seeded Monte Carlo experiments")
    sim_sub = p_sim.add_subparsers(dest="experiment", required=True)

    def add_common(p, default_count):
        p.add_argument("--params", default=None,
                       help="parameter file (@path); default: bundled set")
        p.add_argument("--seed", type=int, default=None,
                       help=f"RNG seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
        p.add_argument("--count", type=int, default=default_count,
                       help="number of draws")
        add_threads(p)
        p.add_argument("--output-dir", default=".",
                       help="artifact directory (default: current)")

    p_ic = command(sim_sub, ("simulate", "ic-pdf"), _cmd_simulate_ic_pdf,
                   help="distribution of the projection T")
    add_common(p_ic, 1_000_000)
    p_ic.add_argument("--mode", choices=["chi_mu", "sample_md"],
                      default="chi_mu", help="projection direction")
    p_ic.add_argument("--variant", choices=["base", "hetero"], default="base",
                      help="covariance variant of the bundled set")
    p_ic.add_argument("--bandwidth", type=float, default=None,
                      help="KDE bandwidth override, at least (grid step)/16")

    p_md = command(sim_sub, ("simulate", "md-perturb"), _cmd_simulate_md_perturb,
                   help="mean direction under parameter scaling")
    add_common(p_md, 1_000_000)
    p_md.add_argument("--axis", choices=["mu1", "sigma1"], required=True,
                      help="which parameter the factors scale")
    p_md.add_argument("--factors", default="0.1,1,2,5,10",
                      help="comma list of positive factors")

    p_mrl = command(sim_sub, ("simulate", "mrl-check"), _cmd_simulate_mrl_check,
                    help="closed-form vs simulated resultant length")
    add_common(p_mrl, 1_000_000)

    p_emp = command(sub, ("empirical",), _cmd_empirical,
                    help="panel ingestion and reports")
    p_emp.add_argument("--input", required=True, help="CSV return panel")
    p_emp.add_argument("--windows", default="full",
                       help="'yearly', 'full', or 'from:to' ISO dates")
    p_emp.add_argument("--rolling", type=int, default=None,
                       help="emit rolling mrl/cssd with this window length")
    p_emp.add_argument("--iota", default="md",
                       help="projection direction: 'md' or @file")
    p_emp.add_argument("--missing-policy",
                       choices=["cross_mean", "drop_row"],
                       default="cross_mean")
    p_emp.add_argument("--output-dir", default=".",
                       help="artifact directory (default: current)")

    p_or = command(sub, ("oracle",), _cmd_oracle,
                   help="independent numerical cross-checks")
    p_or.add_argument("--suite", choices=[*_ORACLE_SUITES, "all"],
                      default="all")
    p_or.add_argument("--count", type=int, default=1_000_000,
                      help="MC draws per check; tolerances scale as 1/sqrt(N)")
    p_or.add_argument("--seed", type=int, default=None)
    add_threads(p_or)
    p_or.add_argument("--output-dir", default=None,
                      help="write oracle_report.json and a manifest here")

    p_rr = command(sub, ("rerun",), _cmd_rerun,
                   help="re-execute a manifest bit-identically")
    p_rr.add_argument("--manifest", required=True)
    p_rr.add_argument("--output-dir", default=".")
    add_threads(p_rr)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if hasattr(args, "seed"):
            args.seed = _resolve_seed(args.seed)
        out = _Output(args)
        code = args.run(args, out)
        out.write()
        return code
    except SystemExit as exc:
        return int(exc.code or 0)
    except (MalformedInputError, DomainError, DimensionError, ModelError,
            InvalidCovarianceError, NoUniqueSolutionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except DegenerateInputError as exc:
        sys.stderr.write(f"degenerate input: {exc}\n")
        return EXIT_DEGENERATE
    except ConvergenceError as exc:
        sys.stderr.write(f"convergence failure: {exc}\n")
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
