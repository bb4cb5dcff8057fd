"""Panel ingestion and the empirical window pipeline.

A panel is a dated matrix of cross-sectional returns. Each row is
standardized to a unit direction; windows of rows get moment reports;
rolling statistics track concentration and dispersion through time.
"""

from __future__ import annotations

import csv
import datetime
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateInputError,
    DimensionError,
    DomainError,
    MalformedInputError,
    UndefinedMeanDirectionError,
)
from .moments import MomentSummary
from .montecarlo import DirectionalSample, estimate_md_mrl, scatter_matrix
from .optimize import symmetric_eigen
from .sphere import UnitDirection, standardize_rows

__all__ = [
    "ReturnPanel",
    "StandardizedPanel",
    "WindowReport",
    "load_panel",
    "standardize_panel",
    "window_report",
    "correlation_summary",
    "rolling_mrl_cssd",
    "yearly_windows",
    "range_window",
]

MISSING_COLUMN_LIMIT = 0.10
MIN_YEARLY_ROWS = 30


@dataclass(frozen=True, eq=False)
class ReturnPanel:
    """Cleaned return panel: strictly increasing dates, no missing cells."""

    dates: tuple
    tickers: tuple
    returns: np.ndarray
    missing_mask: np.ndarray
    dropped_columns: tuple = ()
    filled_cells: int = 0
    dropped_rows: int = 0

    def __post_init__(self):
        arr = np.array(self.returns, dtype=np.float64)
        mask = np.array(self.missing_mask, dtype=bool)
        t, n = arr.shape if arr.ndim == 2 else (0, 0)
        if arr.ndim != 2 or t < 2 or n < 2:
            raise DimensionError(f"panel needs shape (T >= 2, n >= 2), got {arr.shape}")
        if mask.shape != arr.shape:
            raise DimensionError("missing_mask shape must match returns")
        if len(self.dates) != t or len(self.tickers) != n:
            raise DimensionError("dates/tickers lengths must match the matrix")
        if not np.all(np.isfinite(arr)):
            raise MalformedInputError("panel has non-finite entries after cleaning")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise MalformedInputError("dates must be strictly increasing")
        if float(mask.mean(axis=0).max(initial=0.0)) > MISSING_COLUMN_LIMIT:
            raise MalformedInputError(
                "a surviving column exceeds the missing-data limit"
            )
        arr.setflags(write=False)
        mask.setflags(write=False)
        object.__setattr__(self, "returns", arr)
        object.__setattr__(self, "missing_mask", mask)
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "dropped_columns", tuple(self.dropped_columns))

    @property
    def t(self) -> int:
        return int(self.returns.shape[0])

    @property
    def n(self) -> int:
        return int(self.returns.shape[1])


def _parse_cell(raw: str, where: str) -> float:
    text = raw.strip()
    if text == "" or text.lower() == "nan":
        return math.nan
    try:
        return float(text)
    except ValueError:
        raise MalformedInputError(f"unparseable number {raw!r} at {where}") from None


def _read_panel(path) -> tuple[list, list, np.ndarray]:
    """Tickers, dates and the (T, N) cells of a panel file, NaN for holes.

    Cells go straight into one flat float64 buffer, which the returned
    array views: no per-cell Python float outlives its row. Undecodable
    bytes are kept as lone surrogates, so they fail the number or date
    parse of the cell that holds them, and that error names its row.
    """
    # Imported on first use, so that importing the CLI loads no extra module.
    from array import array

    try:
        fh = open(path, newline="", encoding="utf-8-sig", errors="surrogateescape")
    except OSError as exc:
        raise MalformedInputError(f"cannot read panel: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise MalformedInputError("panel file is empty") from None
        if len(header) < 3 or header[0].strip().lower() != "date":
            raise MalformedInputError(
                "header must be 'date' followed by at least two asset columns"
            )
        try:
            "".join(header).encode()
        except UnicodeEncodeError:
            raise MalformedInputError("header is not UTF-8 text") from None
        tickers = [h.strip() for h in header[1:]]
        dates = []
        cells = array("d")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise MalformedInputError(f"row {lineno} has {len(row)} cells")
            try:
                dates.append(datetime.date.fromisoformat(row[0].strip()))
            except ValueError:
                raise MalformedInputError(
                    f"bad date {row[0]!r} at row {lineno}"
                ) from None
            try:
                cells.extend([float(c or "nan") for c in row[1:]])
            except ValueError:
                # Blank cells and bad numbers: parse cell by cell.
                cells.extend([
                    _parse_cell(cell, f"row {lineno}, column {tickers[j]}")
                    for j, cell in enumerate(row[1:])
                ])
    return tickers, dates, np.frombuffer(cells).reshape(len(dates), len(tickers))


def load_panel(path, missing_policy: str = "cross_mean") -> ReturnPanel:
    """Read a date-indexed CSV return panel and clean it.

    Columns with more than 10% missing cells are dropped first. The
    remaining holes are handled by policy: "cross_mean" fills a hole
    with the mean of the other assets that day (its standardized value
    is then exactly zero), "drop_row" discards the day.

    The file is UTF-8, with or without a byte order mark. Cleaning holds
    at most two panel-sized arrays at once.
    """
    if missing_policy not in ("cross_mean", "drop_row"):
        raise DomainError(
            f"missing_policy must be cross_mean or drop_row, got {missing_policy!r}"
        )
    tickers, dates, arr = _read_panel(path)
    if len(dates) < 2:
        raise DimensionError("panel needs at least 2 data rows")
    if any(b <= a for a, b in zip(dates, dates[1:])):
        raise MalformedInputError("dates must be strictly increasing")

    missing = np.isnan(arr)
    frac = missing.mean(axis=0)
    col_keep = frac <= MISSING_COLUMN_LIMIT
    dropped_columns = tuple(t for t, k in zip(tickers, col_keep) if not k)
    if int(col_keep.sum()) < 2:
        raise DimensionError("fewer than 2 columns survive the missing-data limit")
    # A fresh column-major copy, even when every column is kept; the
    # cell buffer is freed here. The hole fill sums rows in this layout.
    arr = arr[:, col_keep]
    missing = missing[:, col_keep]
    tickers = [t for t, k in zip(tickers, col_keep) if k]

    filled_cells = 0
    if missing_policy == "drop_row":
        row_keep = ~missing.any(axis=1)
    else:
        row_keep = ~missing.all(axis=1)
        holes = missing & row_keep[:, None]
        if holes.any():
            arr[missing] = 0.0
            fill = arr.sum(axis=1) / np.maximum((~missing).sum(axis=1), 1)
            np.copyto(arr, fill[:, None], where=holes)
            filled_cells = int(holes.sum())
    dropped_rows = int((~row_keep).sum())
    # Row selection makes a row-major copy, even when every row is kept.
    arr = arr[row_keep]
    missing = missing[row_keep]
    dates = [d for d, k in zip(dates, row_keep) if k]
    if arr.shape[0] < 2:
        raise DimensionError("fewer than 2 rows survive the missing-data policy")

    return ReturnPanel(
        dates=tuple(dates),
        tickers=tuple(tickers),
        returns=arr,
        missing_mask=missing,
        dropped_columns=dropped_columns,
        filled_cells=filled_cells,
        dropped_rows=dropped_rows,
    )


@dataclass(frozen=True, eq=False)
class StandardizedPanel:
    """Unit directions of the panel rows that could be standardized.

    kept is a boolean mask over the rows of the source ReturnPanel that
    marks the rows this panel holds, in order.
    """

    sample: DirectionalSample
    source: ReturnPanel
    dropped_degenerate: int
    kept: np.ndarray

    def __post_init__(self):
        kept = np.array(self.kept, dtype=bool)
        if kept.shape != (self.source.t,) or int(kept.sum()) != self.sample.size:
            raise DimensionError("kept must mask the source rows the sample holds")
        kept.setflags(write=False)
        object.__setattr__(self, "kept", kept)

    @cached_property
    def dates(self) -> tuple:
        return tuple(itertools.compress(self.source.dates, self.kept))

    def restrict(self, rows) -> "StandardizedPanel":
        """Sub-panel of the held rows that the source-row mask rows selects;
        a mask over every held row returns this panel itself."""
        rows = np.asarray(rows)
        if rows.dtype != bool or rows.shape != self.kept.shape:
            raise DimensionError(
                f"rows must be a boolean mask over {self.source.t} source rows"
            )
        kept = self.kept & rows
        if not kept.any():
            raise DomainError("restriction keeps no rows")
        held = rows[self.kept]
        if held.all():
            return self
        return StandardizedPanel(
            sample=DirectionalSample(self.sample.matrix[held]),
            source=self.source,
            dropped_degenerate=0,
            kept=kept,
        )


def standardize_panel(panel: ReturnPanel) -> StandardizedPanel:
    """Standardize every row; constant rows are dropped and counted."""
    units, kept = standardize_rows(panel.returns)
    if units.shape[0] < 1:
        raise DegenerateInputError("every panel row is constant across assets")
    return StandardizedPanel(
        sample=DirectionalSample(units),
        source=panel,
        dropped_degenerate=int((~kept).sum()),
        kept=kept,
    )


def _series_stats(values: np.ndarray) -> dict:
    """Population-moment shape statistics plus quartiles."""
    v = np.asarray(values, dtype=np.float64)
    mean = float(v.mean())
    sd = float(v.std(ddof=1)) if v.size > 1 else math.nan
    d = v - mean
    m2 = float((d ** 2).mean())
    if m2 > 0.0:
        skew = float((d ** 3).mean()) / m2 ** 1.5
        kurt = float((d ** 4).mean()) / m2 ** 2
    else:
        skew = math.nan
        kurt = math.nan
    q1, med, q3 = (float(q) for q in np.percentile(v, [25.0, 50.0, 75.0]))
    return {
        "mean": mean,
        "sd": sd,
        "skewness": skew,
        "kurtosis": kurt,
        "min": float(v.min()),
        "q1": q1,
        "median": med,
        "q3": q3,
        "max": float(v.max()),
    }


def _md_component_stats(md: UnitDirection) -> dict:
    c = md.coords
    stats = _series_stats(c)
    return {
        "median": stats["median"],
        "skewness": stats["skewness"],
        "kurtosis": stats["kurtosis"],
        "positive": int(np.sum(c > 0.0)),
        "negative": int(np.sum(c < 0.0)),
    }


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


@dataclass(frozen=True, eq=False)
class WindowReport:
    """Moment report for one window of standardized rows."""

    label: str
    start: datetime.date
    end: datetime.date
    rows: int
    summary: MomentSummary
    scatter_eigenvalues: np.ndarray
    projected_series: np.ndarray
    projected_stats: dict
    md_stats: dict

    def to_json_dict(self) -> dict:
        return {
            "label": self.label,
            "start": self.start.isoformat(),
            "end": self.end.isoformat(),
            "rows": self.rows,
            "md": [float(x) for x in self.summary.md.coords],
            "mrl": float(self.summary.mrl),
            "scatter_eigenvalues": [float(x) for x in self.scatter_eigenvalues],
            "projected_stats": {k: _jsonable(v) for k, v in self.projected_stats.items()},
            "md_stats": {k: _jsonable(v) for k, v in self.md_stats.items()},
        }


def window_report(spanel: StandardizedPanel, label: str,
                  iota: UnitDirection | None = None) -> WindowReport:
    """Full moment report for a window.

    iota is the projection direction; None projects onto the window's
    own mean direction, which makes mean(series) equal the window MRL
    identically.
    """
    sample = spanel.sample
    if sample.size < 2:
        raise DomainError("a window needs at least 2 usable rows")
    summary = estimate_md_mrl(sample)  # zero resultant raises here
    direction = summary.md if iota is None else iota
    if direction.dim != sample.dim:
        raise DimensionError("iota dimension does not match the panel")
    scatter = scatter_matrix(sample)
    w, _ = symmetric_eigen(scatter)
    series = sample.matrix @ direction.coords
    return WindowReport(
        label=label,
        start=spanel.dates[0],
        end=spanel.dates[-1],
        rows=sample.size,
        summary=summary,
        scatter_eigenvalues=w[::-1].copy(),
        projected_series=series,
        projected_stats=_series_stats(series),
        md_stats=_md_component_stats(summary.md),
    )


def correlation_summary(raw: np.ndarray, units: np.ndarray) -> dict:
    """Average pairwise correlation before and after standardization.

    raw and units must be row-aligned. Off-diagonal entries of each
    correlation matrix are summarized by their mean and standard
    deviation (ddof=1). With two columns there is one pair, whose
    standard deviation is undefined: sd_corr_z and sd_corr_x are then
    None, written to JSON as null.
    """
    z = np.asarray(raw, dtype=np.float64)
    x = np.asarray(units, dtype=np.float64)
    if z.ndim != 2 or x.shape != z.shape:
        raise DimensionError("raw and standardized matrices must be aligned")
    if z.shape[0] < 3 or z.shape[1] < 2:
        raise DimensionError("need at least 3 rows and 2 columns")
    for name, m in (("raw", z), ("standardized", x)):
        if float(m.std(axis=0).min()) <= 0.0:
            raise DegenerateInputError(f"{name} matrix has a zero-variance column")

    def offdiag_summary(m: np.ndarray) -> tuple[float, float | None]:
        corr = np.corrcoef(m, rowvar=False)
        iu = np.triu_indices(corr.shape[0], k=1)
        vals = corr[iu]
        return float(vals.mean()), float(vals.std(ddof=1)) if vals.size > 1 else None

    mean_z, sd_z = offdiag_summary(z)
    mean_x, sd_x = offdiag_summary(x)
    return {
        "mean_corr_z": mean_z,
        "sd_corr_z": sd_z,
        "mean_corr_x": mean_x,
        "sd_corr_x": sd_x,
        "pairs": int(z.shape[1] * (z.shape[1] - 1) // 2),
    }


def rolling_mrl_cssd(spanel: StandardizedPanel, window: int = 20) -> list[tuple]:
    """Rolling concentration and dispersion, right-aligned.

    mrl_t is the resultant length of the window's unit directions;
    cssd_t is the cross-sectional dispersion of the window-mean return,
    (1/sqrt(n)) ||P zbar_t||. Every window is a difference of prefix
    sums over the source rows. Windows containing a non-standardizable
    row yield NaN mrl. Returns (date, mrl, cssd) tuples. A panel that
    lacks a standardizable row of its source (a restriction) raises
    DomainError.
    """
    if window < 2:
        raise DomainError(f"window must be at least 2, got {window}")
    panel = spanel.source
    if spanel.sample.size + spanel.dropped_degenerate != panel.t:
        raise DomainError("rolling statistics need every standardizable row "
                          "of the source panel, not a restriction")
    t, n = panel.returns.shape
    if window > t:
        raise DomainError(f"window {window} exceeds the panel length {t}")
    inv_w = 1.0 / window
    # One prefix buffer serves the returns and then the directions, and
    # one buffer holds the window means. Squaring in place and summing
    # each row is what np.linalg.norm(axis=1) does for real rows.
    prefix = np.zeros((t + 1, n))
    means = np.empty((t + 1 - window, n))

    prefix[1:] = panel.returns
    np.cumsum(prefix, axis=0, out=prefix)
    np.subtract(prefix[window:], prefix[:-window], out=means)
    means *= inv_w
    means -= means.mean(axis=1, keepdims=True)
    means *= means
    cssd = np.sqrt(means.sum(axis=1)) / math.sqrt(n)

    prefix[:] = 0.0
    prefix[1:][spanel.kept] = spanel.sample.matrix
    np.cumsum(prefix, axis=0, out=prefix)
    np.subtract(prefix[window:], prefix[:-window], out=means)
    means *= inv_w
    means *= means
    mrl = np.sqrt(means.sum(axis=1))
    bad = np.concatenate([[0], np.cumsum(~spanel.kept)])
    mrl[bad[window:] > bad[:-window]] = math.nan
    return list(zip(panel.dates[window - 1:], mrl.tolist(), cssd.tolist()))


def yearly_windows(panel: ReturnPanel,
                   min_rows: int = MIN_YEARLY_ROWS) -> list[tuple[str, np.ndarray]]:
    """(label, row mask) per calendar year with enough rows."""
    years = np.array([d.year for d in panel.dates])
    masks = ((str(year), years == year) for year in np.unique(years))
    return [(label, mask) for label, mask in masks if int(mask.sum()) >= min_rows]


def range_window(panel: ReturnPanel, start: datetime.date,
                 end: datetime.date) -> tuple[str, np.ndarray]:
    """Row mask of start <= date <= end."""
    if end < start:
        raise DomainError("window end precedes start")
    mask = np.array([start <= d <= end for d in panel.dates])
    if int(mask.sum()) < 2:
        raise DomainError("date range selects fewer than 2 rows")
    return f"{start.isoformat()}_{end.isoformat()}", mask
