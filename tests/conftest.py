"""Shared synthetic-panel builders for the empirical and CLI tests, and
the exactly scalable inputs of the scale-invariance tests."""

import csv
import datetime
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

# Entries whose products with 2^k, k in [-1000, 1000], are normal floats,
# so that scaling them by 2^k is exact.
exact_entries = st.one_of(st.just(0.0), st.floats(2.0 ** -20, 2.0 ** 20),
                          st.floats(-(2.0 ** 20), -(2.0 ** -20)))
even_exponents = st.integers(-500, 500).map(lambda h: 2 * h)


def business_days(start: datetime.date, count: int) -> list[datetime.date]:
    """First count weekdays on or after start."""
    out = []
    d = start
    while len(out) < count:
        if d.weekday() < 5:
            out.append(d)
        d += datetime.timedelta(days=1)
    return out


def write_panel_csv(path, dates, tickers, matrix, holes=()) -> None:
    """Write a return panel; holes is a set of (row, col) cells left empty."""
    holes = set(holes)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date"] + list(tickers))
        for i, d in enumerate(dates):
            row = [d.isoformat()]
            for j in range(len(tickers)):
                row.append("" if (i, j) in holes else repr(float(matrix[i, j])))
            writer.writerow(row)


def one_factor_returns(t: int, n: int, seed: int = 314,
                       factor_sd: float = 0.02, idio_sd: float = 0.004,
                       drift: float = 0.0002) -> np.ndarray:
    """Strong single common factor plus small idiosyncratic noise."""
    rng = np.random.default_rng(seed)
    betas = 1.0 + 0.2 * rng.standard_normal(n)
    factor = rng.standard_normal(t) * factor_sd
    eps = rng.standard_normal((t, n)) * idio_sd
    mu = drift * rng.standard_normal(n)
    return mu + np.outer(factor, betas) + eps


@pytest.fixture(scope="session")
def five_year_panel_csv(tmp_path_factory) -> str:
    """1220 weekdays starting 2014-01-02, ten assets, one-factor returns."""
    dates = business_days(datetime.date(2014, 1, 2), 1220)
    matrix = one_factor_returns(1220, 10, seed=2014)
    path = tmp_path_factory.mktemp("panels") / "five_year.csv"
    write_panel_csv(path, dates, [f"A{j}" for j in range(10)], matrix)
    return str(path)


@pytest.fixture(scope="session")
def iid_panel_csv(tmp_path_factory) -> str:
    """250 weekdays, eight independent assets."""
    dates = business_days(datetime.date(2021, 1, 4), 250)
    rng = np.random.default_rng(77)
    matrix = rng.standard_normal((250, 8)) * 0.01
    path = tmp_path_factory.mktemp("panels") / "iid.csv"
    write_panel_csv(path, dates, [f"B{j}" for j in range(8)], matrix)
    return str(path)


def load_perfbench(name: str):
    """A module of the benchmark harness, loaded from perfbench/ unchanged."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module
