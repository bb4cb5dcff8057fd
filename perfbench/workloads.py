"""The four workloads: CLI arguments, seeded inputs and output checks.

Every check rebuilds its reference without icsphere code: mpmath for
the closed form, numpy's PCG64 for a reference sample, and
``numpy.linalg.eigvalsh`` on a scatter matrix rebuilt from the
generated panel. A check returns a list of problems; empty means the
op's outputs are correct.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import mpmath
import numpy as np

MC_COUNT = 1 << 20
PDF_COUNT = 1 << 18
ORACLE_COUNT = 1 << 18
PANEL_ROWS = 5000
PANEL_COLS = 50
PANEL_START = datetime.date(2000, 1, 3)
ROLLING = 20
CONSTANT_ROWS = 3
HOLE_SHARE = 0.005
SPARSE_COLUMN_MISSING = 0.15
REFERENCE_SAMPLES = 16


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _bundled_model(root: Path, variant: str) -> tuple[np.ndarray, np.ndarray]:
    """(mu, cov) of the bundled ten-asset set, read straight from JSON."""
    raw = json.loads((root / "src/icsphere/fixtures/benchmark_params.json").read_text())
    mu = np.asarray(raw["mu10"], dtype=np.float64)
    cov = np.asarray(raw["sigma10"], dtype=np.float64)
    if variant == "hetero":
        h = np.asarray(raw["hetero_scale"], dtype=np.float64)
        cov = cov * np.outer(h, h)
    return mu, cov


def _unit_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Centered unit rows and the mask of rows that are not constant."""
    c = x - x.mean(axis=1, keepdims=True)
    r = np.linalg.norm(c, axis=1)
    kept = r > 1e-9 * np.maximum(np.linalg.norm(x, axis=1), 1e-300)
    return c[kept] / r[kept, None], kept


@dataclass
class Workload:
    name: str
    items: int  # work items per op, the numerator of work_per_s
    state: dict = field(default_factory=dict)

    def prepare(self, root: Path, workdir: Path, seed: int) -> None:
        """Build the seeded inputs and references, before timing starts."""

    def argv(self, outdir: Path, seed: int, threads: int) -> list[str]:
        raise NotImplementedError

    def check(self, outdir: Path) -> list[str]:
        raise NotImplementedError


class McMrl(Workload):
    def argv(self, outdir, seed, threads):
        return ["simulate", "mrl-check", "--count", str(MC_COUNT),
                "--threads", str(threads), "--seed", str(seed),
                "--output-dir", str(outdir)]

    def check(self, outdir):
        out = json.loads((outdir / "mrl_check.json").read_text())
        x = out["rounded"]["argument"]
        if x not in self.state:
            # varrho(n, x) = Gamma((n+1)/2) / Gamma((n+2)/2) / sqrt(2)
            #                * x * 1F1(1/2; (n+2)/2; -x^2/2), here n = 10 - 1.
            with mpmath.workdps(50):
                n = mpmath.mpf(9)
                ref = (mpmath.gamma((n + 1) / 2) / mpmath.gamma((n + 2) / 2)
                       / mpmath.sqrt(2) * x
                       * mpmath.hyp1f1(mpmath.mpf(1) / 2, (n + 2) / 2,
                                       -mpmath.mpf(x) ** 2 / 2))
            self.state[x] = float(ref)
        ref = self.state[x]
        closed, mc = out["closed_form_mrl"], out["mc_mrl"]
        problems = []
        if abs(closed - ref) > 1e-12 * abs(ref):
            problems.append(f"closed_form_mrl {closed!r} != mpmath {ref!r}")
        tol = 5.0 * math.sqrt((1.0 - closed * closed) / out["count"])
        if abs(mc - closed) > tol:
            problems.append(f"|mc_mrl - closed| = {abs(mc - closed):.3e} > {tol:.3e}")
        if out["count"] != MC_COUNT:
            problems.append(f"count {out['count']} != {MC_COUNT}")
        return problems


class IcDensity(Workload):
    def prepare(self, root, workdir, seed):
        # The projection direction is the sample's own mean direction,
        # whose noise moves sd(T) by more than sd(T)/sqrt(N). So the
        # reference is REFERENCE_SAMPLES independent samples of the CLI's
        # size, and their spread is the standard error of one estimate.
        mu, cov = _bundled_model(root, "hetero")
        lt = np.linalg.cholesky(cov).T
        rng = np.random.Generator(np.random.PCG64(seed))
        stats = []
        for _ in range(REFERENCE_SAMPLES):
            units = np.concatenate([
                _unit_rows(rng.standard_normal((1 << 16, mu.size)) @ lt + mu)[0]
                for _ in range(PDF_COUNT >> 16)])
            theta = units.mean(axis=0)
            t = units @ (theta / np.linalg.norm(theta))
            stats.append((float(t.mean()), float(t.std(ddof=1))))
        stats = np.array(stats)
        self.state.update(center=stats.mean(axis=0),
                          se=stats.std(axis=0, ddof=1)
                          * math.sqrt(1.0 + 1.0 / REFERENCE_SAMPLES))

    def argv(self, outdir, seed, threads):
        return ["simulate", "ic-pdf", "--mode", "sample_md", "--variant", "hetero",
                "--count", str(PDF_COUNT), "--threads", str(threads),
                "--seed", str(seed), "--output-dir", str(outdir)]

    def check(self, outdir):
        rows = _read_csv(outdir / "ic_pdf_density.csv")
        grid = np.array([float(r[0]) for r in rows])
        dens = np.array([float(r[1]) for r in rows])
        summary = json.loads((outdir / "ic_pdf_summary.json").read_text())
        problems = []
        if np.any(dens < 0.0):
            problems.append("negative density")
        mass = float(np.sum(0.5 * (dens[1:] + dens[:-1]) * np.diff(grid)))
        if abs(mass - 1.0) > 1e-3:
            problems.append(f"density integrates to {mass:.6f}")
        for i, key in enumerate(("mean", "sd")):
            center, se = self.state["center"][i], self.state["se"][i]
            if abs(summary[key] - center) > 5.0 * se:
                problems.append(f"{key} {summary[key]:.6f} is off the reference "
                                f"{center:.6f} by more than 5 x {se:.2e}")
        if summary["count"] != PDF_COUNT:
            problems.append(f"count {summary['count']} != {PDF_COUNT}")
        return problems


def business_days(start: datetime.date, count: int) -> list[datetime.date]:
    out = []
    d = start
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += datetime.timedelta(days=1)
    return out


def synthetic_panel(seed: int) -> tuple[list[datetime.date], np.ndarray]:
    """One-factor daily returns with holes, a sparse column and constant rows.

    About 0.5% of cells are empty, column 0 misses more than 10% of its
    cells (so cleaning drops it), and three rows are constant across
    assets (so standardizing drops them).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    t, n = PANEL_ROWS, PANEL_COLS
    betas = 1.0 + 0.2 * rng.standard_normal(n)
    factor = rng.standard_normal(t) * 0.012
    eps = rng.standard_normal((t, n)) * 0.006
    drift = 0.0002 * rng.standard_normal(n)
    matrix = drift + np.outer(factor, betas) + eps
    matrix[rng.random((t, n)) < HOLE_SHARE] = np.nan
    matrix[rng.random(t) < SPARSE_COLUMN_MISSING, 0] = np.nan
    constant = rng.choice(t, size=CONSTANT_ROWS, replace=False)
    matrix[constant] = 0.001 * (1 + np.arange(CONSTANT_ROWS))[:, None]
    return business_days(PANEL_START, t), matrix


class PanelYearly(Workload):
    def prepare(self, root, workdir, seed):
        dates, matrix = synthetic_panel(seed)
        path = workdir / "panel.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["date"] + [f"A{j:02d}" for j in range(PANEL_COLS)])
            for day, row in zip(dates, matrix):
                writer.writerow([day.isoformat()]
                                + ["" if math.isnan(v) else repr(float(v)) for v in row])
        # Reference cleaning: drop columns over 10% missing, fill holes
        # with the row mean of the present cells, drop constant rows.
        missing = np.isnan(matrix)
        cols = missing.mean(axis=0) <= 0.10
        clean = matrix[:, cols]
        fill = np.nanmean(clean, axis=1)
        clean = np.where(np.isnan(clean), fill[:, None], clean)
        units, kept = _unit_rows(clean)
        years = np.array([d.year for d in dates])
        windows = {str(y): units[(years == y)[kept]]
                   for y in sorted(set(years.tolist())) if (years == y).sum() >= 30}
        windows["full"] = units
        self.state.update(path=path, rows=len(dates), columns=int(cols.sum()),
                          degenerate=int((~kept).sum()),
                          spectra={k: np.linalg.eigvalsh(u.T @ u / len(u))[::-1]
                                   for k, u in windows.items()})

    def argv(self, outdir, seed, threads):
        return ["empirical", "--input", str(self.state["path"]),
                "--windows", "yearly", "--rolling", str(ROLLING),
                "--output-dir", str(outdir)]

    def check(self, outdir):
        ref = self.state
        problems = []
        info = json.loads((outdir / "empirical_summary.json").read_text())
        expect = {"rows": ref["rows"], "columns": ref["columns"],
                  "degenerate_rows": ref["degenerate"],
                  "windows": list(ref["spectra"])}
        for key, value in expect.items():
            if info[key] != value:
                problems.append(f"summary {key} {info[key]!r} != {value!r}")
        for label, spectrum in ref["spectra"].items():
            report = json.loads((outdir / f"window_{label}.json").read_text())
            eig = np.array(report["scatter_eigenvalues"])
            if abs(float(eig.sum()) - 1.0) > 1e-9:
                problems.append(f"window {label}: eigenvalues sum to {eig.sum()!r}")
            if eig.shape != spectrum.shape or np.max(np.abs(eig - spectrum)) > 1e-9:
                problems.append(f"window {label}: spectrum differs from eigvalsh")
            series = [float(r[1]) for r in _read_csv(outdir / f"projected_{label}.csv")]
            if abs(math.fsum(series) / len(series) - report["mrl"]) > 1e-12:
                problems.append(f"window {label}: mrl is not the projected mean")
        rolling = _read_csv(outdir / "rolling.csv")
        if len(rolling) != ref["rows"] - (ROLLING - 1):
            problems.append(f"rolling.csv has {len(rolling)} rows")
        return problems


class OracleAll(Workload):
    def argv(self, outdir, seed, threads):
        return ["oracle", "--suite", "all", "--count", str(ORACLE_COUNT),
                "--threads", str(threads), "--seed", str(seed),
                "--output-dir", str(outdir)]

    def check(self, outdir):
        report = json.loads((outdir / "oracle_report.json").read_text())
        problems = [f"oracle check {c['name']} failed: {c['detail']}"
                    for c in report["checks"] if not c["ok"]]
        if not report["checks"]:
            problems.append("oracle ran no checks")
        return problems


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    McMrl("mc_mrl", MC_COUNT),
    IcDensity("ic_density", PDF_COUNT),
    PanelYearly("panel_yearly", PANEL_ROWS * PANEL_COLS),
    OracleAll("oracle_all", 3 * ORACLE_COUNT),
)}
