"""Run the full experiment battery into one output directory.

Each experiment goes through the CLI so that every result directory
carries a manifest and can be reproduced with `icsphere rerun`. A
synthetic one-factor panel stands in for proprietary return data.

    python3 scripts/run_experiments.py --output-dir results [--seed N]
"""

import argparse
import csv
import datetime
import sys
from pathlib import Path

import numpy as np

from icsphere.cli import DEFAULT_SEED, main as icsphere_main


def business_days(start: datetime.date, count: int) -> list[datetime.date]:
    out = []
    d = start
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += datetime.timedelta(days=1)
    return out


def write_synthetic_panel(path: Path, seed: int, t: int = 1250,
                          n: int = 10) -> None:
    """One-factor daily returns: a common market move plus noise."""
    rng = np.random.default_rng(seed)
    betas = 1.0 + 0.2 * rng.standard_normal(n)
    factor = rng.standard_normal(t) * 0.012
    eps = rng.standard_normal((t, n)) * 0.006
    drift = 0.0002 * rng.standard_normal(n)
    matrix = drift + np.outer(factor, betas) + eps
    dates = business_days(datetime.date(2019, 1, 2), t)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + [f"A{j:02d}" for j in range(n)])
        for i, day in enumerate(dates):
            writer.writerow([day.isoformat()]
                            + [repr(float(v)) for v in matrix[i]])


def run(argv: list[str]) -> None:
    print("+ icsphere " + " ".join(argv))
    code = icsphere_main(argv)
    if code != 0:
        sys.exit(f"experiment failed with exit code {code}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="results")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--count", type=int, default=1_000_000,
                        help="draws per Monte Carlo experiment")
    args = parser.parse_args()

    root = Path(args.output_dir)
    root.mkdir(parents=True, exist_ok=True)
    seed = str(args.seed)
    count = str(args.count)

    # distribution of the projection T under both benchmark variants
    for variant in ("base", "hetero"):
        for mode in ("chi_mu", "sample_md"):
            run(["simulate", "ic-pdf", "--mode", mode, "--variant", variant,
                 "--count", count, "--seed", seed,
                 "--output-dir", str(root / f"ic_pdf_{variant}_{mode}")])

    # mean-direction response to scaling one mean or one volatility
    for axis in ("mu1", "sigma1"):
        run(["simulate", "md-perturb", "--axis", axis,
             "--count", count, "--seed", seed,
             "--output-dir", str(root / f"md_perturb_{axis}")])

    # closed form against simulation on the benchmark parameters
    run(["simulate", "mrl-check", "--count", count, "--seed", seed,
         "--output-dir", str(root / "mrl_check")])

    # empirical pipeline on a synthetic panel
    panel = root / "synthetic_panel.csv"
    write_synthetic_panel(panel, args.seed)
    run(["empirical", "--input", str(panel), "--windows", "yearly",
         "--rolling", "20", "--output-dir", str(root / "empirical")])

    # independent numerical cross-checks
    run(["oracle", "--suite", "all", "--count", count, "--seed", seed,
         "--output-dir", str(root / "oracle")])

    print(f"all experiments written under {root}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
