"""Tests for panel loading, window reports, and rolling statistics."""

import dataclasses
import datetime
import math
import re
import tracemalloc

import numpy as np
import pytest

from icsphere import cli, empirical, sphere
from icsphere.errors import (
    DegenerateInputError,
    DimensionError,
    DomainError,
    MalformedInputError,
)
from tests.conftest import business_days, one_factor_returns, write_panel_csv

D = datetime.date


def small_panel_text() -> str:
    return (
        "date,A,B,C,D\n"
        "2020-01-02,0.01,0.02,-0.01,0.005\n"
        "2020-01-03,0.00,,0.02,-0.01\n"
        "2020-01-06,-0.02,0.01,0.01,0.0\n"
        "2020-01-07,0.03,-0.01,0.00,0.01\n"
        "2020-01-08,0.01,0.00,-0.02,0.02\n"
        "2020-01-09,0.00,0.01,0.01,-0.01\n"
        "2020-01-10,-0.01,0.02,0.00,0.00\n"
        "2020-01-13,0.02,-0.02,0.01,0.01\n"
        "2020-01-14,0.01,0.01,-0.01,0.02\n"
        "2020-01-15,0.00,0.00,0.02,-0.02\n"
    )


@pytest.fixture()
def small_panel_path(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text(small_panel_text())
    return str(path)


class TestLoadPanel:
    def test_cross_mean_fill(self, small_panel_path):
        panel = empirical.load_panel(small_panel_path)
        assert panel.t == 10 and panel.n == 4
        assert panel.tickers == ("A", "B", "C", "D")
        assert panel.filled_cells == 1
        assert panel.dropped_rows == 0
        # the hole got the mean of the other assets that day
        assert panel.returns[1, 1] == pytest.approx((0.0 + 0.02 - 0.01) / 3.0)
        assert panel.missing_mask[1, 1]
        assert panel.missing_mask.sum() == 1
        # a filled cell standardizes to exactly zero
        spanel = empirical.standardize_panel(panel)
        assert abs(spanel.sample.matrix[1, 1]) < 1e-12

    def test_drop_row_policy(self, small_panel_path):
        panel = empirical.load_panel(small_panel_path, missing_policy="drop_row")
        assert panel.t == 9
        assert panel.dropped_rows == 1
        assert panel.filled_cells == 0
        assert D(2020, 1, 3) not in panel.dates

    def test_bad_policy(self, small_panel_path):
        with pytest.raises(DomainError):
            empirical.load_panel(small_panel_path, missing_policy="interpolate")

    def test_column_over_limit_dropped(self, tmp_path):
        dates = business_days(D(2020, 1, 2), 20)
        rng = np.random.default_rng(1)
        matrix = rng.standard_normal((20, 5)) * 0.01
        # column 4 misses 3/20 = 15% of its cells
        holes = {(2, 4), (7, 4), (11, 4)}
        path = tmp_path / "drop.csv"
        write_panel_csv(path, dates, ["A", "B", "C", "D", "E"], matrix, holes)
        panel = empirical.load_panel(str(path))
        assert panel.tickers == ("A", "B", "C", "D")
        assert panel.dropped_columns == ("E",)
        assert panel.filled_cells == 0

    def test_blank_line_skipped(self, tmp_path):
        # csv.reader gives [] for an empty line: it is no row and no error,
        # and the next row's number still counts it.
        lines = small_panel_text().splitlines(keepends=True)
        plain = tmp_path / "plain.csv"
        plain.write_text("".join(lines))
        path = tmp_path / "blank.csv"
        path.write_text("".join(lines[:3] + ["\n"] + lines[3:6] + ["\n", "\n"]
                                + lines[6:]))
        want = empirical.load_panel(str(plain))
        got = empirical.load_panel(str(path))
        assert got.dates == want.dates and got.t == 10
        assert np.array_equal(got.returns, want.returns)
        assert np.array_equal(got.missing_mask, want.missing_mask)
        bad = tmp_path / "blank_then_bad.csv"
        bad.write_text("".join(lines[:3] + ["\n", "2020-01-06,x,0,0,0\n"]))
        with pytest.raises(MalformedInputError, match="row 5"):
            empirical.load_panel(str(bad))

    def test_column_at_limit_kept(self, tmp_path):
        dates = business_days(D(2020, 1, 2), 20)
        rng = np.random.default_rng(2)
        matrix = rng.standard_normal((20, 3)) * 0.01
        holes = {(0, 2), (10, 2)}  # exactly 10%
        path = tmp_path / "keep.csv"
        write_panel_csv(path, dates, ["A", "B", "C"], matrix, holes)
        panel = empirical.load_panel(str(path))
        assert panel.tickers == ("A", "B", "C")
        assert panel.filled_cells == 2

    def test_wide_panel_with_bad_columns(self, tmp_path):
        t, n = 200, 15
        dates = business_days(D(2015, 1, 2), t)
        matrix = one_factor_returns(t, n, seed=5)
        holes = set()
        rng = np.random.default_rng(9)
        for col in (3, 8, 12):  # 12.5% missing each
            for row in rng.choice(t, size=25, replace=False):
                holes.add((int(row), col))
        path = tmp_path / "wide.csv"
        tickers = [f"T{j:02d}" for j in range(n)]
        write_panel_csv(path, dates, tickers, matrix, holes)
        panel = empirical.load_panel(str(path))
        assert panel.n == 12
        assert set(panel.dropped_columns) == {"T03", "T08", "T12"}

    def test_all_missing_row_dropped_under_cross_mean(self, tmp_path):
        dates = business_days(D(2020, 1, 2), 24)
        rng = np.random.default_rng(3)
        matrix = rng.standard_normal((24, 2)) * 0.01
        holes = {(5, 0), (5, 1)}  # hole fraction per column stays at 1/24
        path = tmp_path / "gap.csv"
        write_panel_csv(path, dates, ["A", "B"], matrix, holes)
        panel = empirical.load_panel(str(path))
        assert panel.t == 23
        assert panel.dropped_rows == 1
        assert panel.filled_cells == 0

    def test_blank_and_padded_cells(self, tmp_path):
        # A whitespace-only cell fails float(), so the row of dates[1] is
        # parsed cell by cell; padded numbers and nan in any case parse
        # either way.
        dates = business_days(D(2020, 1, 2), 20)
        matrix = one_factor_returns(20, 4, seed=8)
        cells = [[repr(float(v)) for v in row] for row in matrix]
        cells[0] = ["0.01", "0.02", "-0.01", "0.005"]
        cells[1] = [" ", " NaN ", " 1e-3 ", "-0.02"]
        cells[2] = ["nan", "0.02", " 1e-3 ", "0.01"]
        path = tmp_path / "padded.csv"
        path.write_text("date,A,B,C,D\n" + "".join(
            f"{d.isoformat()},{','.join(row)}\n" for d, row in zip(dates, cells)))
        panel = empirical.load_panel(str(path))
        assert panel.tickers == ("A", "B", "C", "D")
        missing = np.zeros((20, 4), dtype=bool)
        missing[1, :2] = missing[2, 0] = True
        np.testing.assert_array_equal(panel.missing_mask, missing)
        assert panel.filled_cells == 3
        assert panel.returns[0].tolist() == [0.01, 0.02, -0.01, 0.005]
        assert panel.returns[1, 2:].tolist() == [1e-3, -0.02]
        assert panel.returns[2, 1:].tolist() == [0.02, 1e-3, 0.01]
        assert panel.returns[1, :2] == pytest.approx([(1e-3 - 0.02) / 2] * 2)
        assert panel.returns[2, 0] == pytest.approx((0.02 + 1e-3 + 0.01) / 3)
        np.testing.assert_array_equal(panel.returns[3:], matrix[3:])

    def test_malformed_inputs(self, tmp_path, capsys):
        cases = {
            "empty.csv": ("", "panel file is empty"),
            "no_assets.csv": (
                "date,A\n2020-01-02,0.1\n2020-01-03,0.2\n",
                "header must be 'date'",
            ),
            "bad_number.csv": (
                "date,A,B\n2020-01-02,0.1,oops\n2020-01-03,0.2,0.1\n",
                "unparseable number 'oops' at row 2, column B",
            ),
            "bad_date.csv": (
                "date,A,B\n2020/01/02,0.1,0.2\n2020-01-03,0.2,0.1\n",
                "bad date '2020/01/02' at row 2",
            ),
            "unsorted.csv": (
                "date,A,B\n2020-01-03,0.1,0.2\n2020-01-02,0.2,0.1\n",
                "dates must be strictly increasing",
            ),
            "ragged.csv": (
                "date,A,B\n2020-01-02,0.1,0.2\n2020-01-03,0.2\n",
                "row 3 has 2 cells",
            ),
        }
        for name, (text, message) in cases.items():
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(MalformedInputError, match=re.escape(message)):
                empirical.load_panel(str(path))

        code = cli.main(["empirical", "--input", str(tmp_path / "bad_number.csv"),
                         "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert ("unparseable number 'oops' at row 2, column B"
                in capsys.readouterr().err)

    def test_too_few_rows(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("date,A,B\n2020-01-02,0.1,0.2\n")
        with pytest.raises(DimensionError):
            empirical.load_panel(str(path))

    def test_undecodable_byte(self, tmp_path, capsys):
        cases = {
            "cell.csv": (b"date,A,B\n2020-01-02,0.1,0.2\n2020-01-03,0.2,0.\xff1\n",
                         "at row 3, column B"),
            "date.csv": (b"date,A,B\n2020-01-02,0.1,0.2\n2020-01-\xff3,0.2,0.1\n",
                         "at row 3"),
            "header.csv": (b"date,A,\xffB\n2020-01-02,0.1,0.2\n2020-01-03,0.2,0.1\n",
                           "header is not UTF-8 text"),
        }
        for name, (data, message) in cases.items():
            path = tmp_path / name
            path.write_bytes(data)
            with pytest.raises(MalformedInputError, match=re.escape(message)):
                empirical.load_panel(str(path))
        code = cli.main(["empirical", "--input", str(tmp_path / "cell.csv"),
                         "--output-dir", str(tmp_path / "out")])
        assert code == 2
        assert "at row 3, column B" in capsys.readouterr().err

    def test_bom_and_crlf(self, tmp_path):
        # A spreadsheet export: UTF-8 byte order mark, CRLF line ends.
        dates = business_days(D(2020, 1, 2), 40)
        matrix = one_factor_returns(40, 5, seed=12)
        excel = tmp_path / "excel.csv"
        write_panel_csv(excel, dates, list("ABCDE"), matrix, holes={(3, 1)})
        plain = tmp_path / "plain.csv"
        plain.write_bytes(excel.read_bytes().replace(b"\r\n", b"\n"))
        excel.write_bytes(b"\xef\xbb\xbf" + excel.read_bytes())
        assert b"\r" not in plain.read_bytes()
        assert excel.read_bytes().startswith(b"\xef\xbb\xbfdate,A,B,C,D,E\r\n")
        want, got = empirical.load_panel(plain), empirical.load_panel(excel)
        assert got.tickers == want.tickers == tuple("ABCDE")
        assert got.dates == want.dates
        assert got.returns.tobytes() == want.returns.tobytes()
        np.testing.assert_array_equal(got.missing_mask, want.missing_mask)


class TestReturnPanelInvariants:
    def test_rejects_nan_after_cleaning(self):
        with pytest.raises(MalformedInputError):
            empirical.ReturnPanel(
                dates=(D(2020, 1, 2), D(2020, 1, 3)),
                tickers=("A", "B"),
                returns=np.array([[0.1, np.nan], [0.0, 0.1]]),
                missing_mask=np.zeros((2, 2), dtype=bool),
            )

    def test_rejects_unsorted_dates(self):
        with pytest.raises(MalformedInputError):
            empirical.ReturnPanel(
                dates=(D(2020, 1, 3), D(2020, 1, 2)),
                tickers=("A", "B"),
                returns=np.zeros((2, 2)),
                missing_mask=np.zeros((2, 2), dtype=bool),
            )

    @pytest.mark.parametrize("kwargs,error,message", [
        ({"returns": np.zeros((1, 2)), "dates": (D(2020, 1, 2),)},
         DimensionError, "panel needs shape (T >= 2, n >= 2), got (1, 2)"),
        ({"missing_mask": np.zeros((2, 3), dtype=bool)},
         DimensionError, "missing_mask shape must match returns"),
        ({"dates": (D(2020, 1, 2),)},
         DimensionError, "dates/tickers lengths must match the matrix"),
        ({"tickers": ("A", "B", "C")},
         DimensionError, "dates/tickers lengths must match the matrix"),
        ({"missing_mask": np.array([[True, False], [False, False]])},
         MalformedInputError, "a surviving column exceeds the missing-data limit"),
    ], ids=["one_row", "mask_shape", "dates", "tickers", "mask_over_limit"])
    def test_rejects_inconsistent_fields(self, kwargs, error, message):
        fields = {"dates": (D(2020, 1, 2), D(2020, 1, 3)), "tickers": ("A", "B"),
                  "returns": np.array([[0.1, 0.2], [0.0, 0.1]]),
                  "missing_mask": np.zeros((2, 2), dtype=bool)}
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            empirical.ReturnPanel(**{**fields, **kwargs})

    def test_readonly(self):
        panel = empirical.ReturnPanel(
            dates=(D(2020, 1, 2), D(2020, 1, 3)),
            tickers=("A", "B"),
            returns=np.array([[0.1, 0.2], [0.0, 0.1]]),
            missing_mask=np.zeros((2, 2), dtype=bool),
        )
        with pytest.raises(ValueError):
            panel.returns[0, 0] = 1.0


class TestStandardizePanel:
    def test_constant_rows_dropped(self):
        returns = np.array([
            [0.01, 0.02, 0.03],
            [0.02, 0.02, 0.02],
            [0.00, -0.01, 0.01],
        ])
        panel = empirical.ReturnPanel(
            dates=(D(2020, 1, 2), D(2020, 1, 3), D(2020, 1, 6)),
            tickers=("A", "B", "C"),
            returns=returns,
            missing_mask=np.zeros((3, 3), dtype=bool),
        )
        spanel = empirical.standardize_panel(panel)
        assert spanel.dropped_degenerate == 1
        assert spanel.dates == (D(2020, 1, 2), D(2020, 1, 6))
        assert spanel.sample.size == 2
        assert spanel.kept.tolist() == [True, False, True]

    def test_kept_must_match_the_sample(self):
        panel = empirical.ReturnPanel(
            dates=tuple(business_days(D(2020, 1, 2), 3)), tickers=("A", "B"),
            returns=np.array([[0.1, 0.2], [0.0, 0.1], [0.3, 0.1]]),
            missing_mask=np.zeros((3, 2), dtype=bool),
        )
        spanel = empirical.standardize_panel(panel)
        for kept in ([True, True, False], [True, True]):
            with pytest.raises(DimensionError, match="^kept must mask the source "
                                                     "rows the sample holds$"):
                dataclasses.replace(spanel, kept=np.array(kept))

    def test_restrict(self):
        dates = business_days(D(2020, 1, 2), 30)
        matrix = one_factor_returns(30, 4, seed=8)
        rp = empirical.ReturnPanel(
            dates=tuple(dates), tickers=("A", "B", "C", "D"),
            returns=matrix, missing_mask=np.zeros((30, 4), dtype=bool),
        )
        spanel = empirical.standardize_panel(rp)
        rows = np.zeros(30, dtype=bool)
        rows[5:10] = True
        sub = spanel.restrict(rows)
        assert sub.sample.size == 5
        assert sub.dates == tuple(dates[5:10])
        assert np.flatnonzero(sub.kept).tolist() == [5, 6, 7, 8, 9]
        assert sub.source is rp
        np.testing.assert_array_equal(sub.sample.matrix,
                                      spanel.sample.matrix[5:10])
        with pytest.raises(DomainError):
            spanel.restrict(np.zeros(30, dtype=bool))
        for wrong in (np.ones(29, dtype=bool), np.arange(5, 10),
                      np.ones(30, dtype=int)):
            with pytest.raises(DimensionError):
                spanel.restrict(wrong)

    def test_restrict_skips_dropped_rows(self):
        returns = np.array([
            [0.01, 0.02, 0.03],
            [0.02, 0.02, 0.02],
            [0.00, -0.01, 0.01],
            [0.03, 0.00, -0.02],
        ])
        panel = empirical.ReturnPanel(
            dates=tuple(business_days(D(2020, 1, 2), 4)),
            tickers=("A", "B", "C"),
            returns=returns,
            missing_mask=np.zeros((4, 3), dtype=bool),
        )
        spanel = empirical.standardize_panel(panel)
        sub = spanel.restrict(np.array([False, True, True, True]))
        assert sub.kept.tolist() == [False, False, True, True]
        assert sub.dates == (panel.dates[2], panel.dates[3])
        np.testing.assert_array_equal(sub.sample.matrix, spanel.sample.matrix[1:])
        with pytest.raises(DomainError):
            spanel.restrict(np.array([False, True, False, False]))
        # A mask that leaves out only the dropped row holds every row:
        # the panel itself comes back, its sample not copied.
        whole = spanel.restrict(np.array([True, False, True, True]))
        assert whole is spanel
        assert whole.kept.tolist() == [True, False, True, True]
        assert whole.dropped_degenerate == 1


class TestWindowReport:
    @staticmethod
    def spanel_from(matrix, start=D(2020, 1, 2)):
        dates = business_days(start, matrix.shape[0])
        rp = empirical.ReturnPanel(
            dates=tuple(dates),
            tickers=tuple(f"A{j}" for j in range(matrix.shape[1])),
            returns=matrix,
            missing_mask=np.zeros(matrix.shape, dtype=bool),
        )
        return empirical.standardize_panel(rp)

    def test_identical_rows(self):
        row = np.array([0.03, -0.01, 0.02, 0.00])
        spanel = self.spanel_from(np.tile(row, (6, 1)))
        rep = empirical.window_report(spanel, "flat")
        assert rep.summary.mrl == pytest.approx(1.0, abs=1e-12)
        assert rep.projected_stats["sd"] == pytest.approx(0.0, abs=1e-12)
        assert rep.rows == 6

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_projected_mean_equals_mrl(self, seed):
        rng = np.random.default_rng(seed)
        spanel = self.spanel_from(rng.standard_normal((40, 6)) * 0.01)
        rep = empirical.window_report(spanel, "w")
        assert rep.projected_stats["mean"] == pytest.approx(
            rep.summary.mrl, abs=1e-12
        )
        assert rep.projected_series.mean() == pytest.approx(
            rep.summary.mrl, abs=1e-12
        )

    def test_external_iota_mean_is_bounded_by_mrl(self):
        rng = np.random.default_rng(12)
        spanel = self.spanel_from(rng.standard_normal((50, 5)) * 0.01)
        iota = sphere.standardize(rng.standard_normal(5))
        rep = empirical.window_report(spanel, "w", iota=iota)
        assert abs(rep.projected_stats["mean"]) <= rep.summary.mrl + 1e-12

    def test_iota_dimension_checked(self):
        rng = np.random.default_rng(12)
        spanel = self.spanel_from(rng.standard_normal((10, 5)) * 0.01)
        iota = sphere.standardize([1.0, -1.0])
        with pytest.raises(DimensionError):
            empirical.window_report(spanel, "w", iota=iota)

    def test_one_factor_spectrum(self):
        spanel = self.spanel_from(one_factor_returns(300, 8, seed=44))
        rep = empirical.window_report(spanel, "factor")
        w = rep.scatter_eigenvalues
        assert w.sum() == pytest.approx(1.0, abs=1e-10)
        assert w[0] > 0.3
        assert np.all(np.diff(w) <= 1e-12)  # descending
        assert w[-1] < 1e-10  # constant direction carries nothing

    def test_json_shape(self):
        rng = np.random.default_rng(2)
        spanel = self.spanel_from(rng.standard_normal((15, 4)) * 0.01)
        d = empirical.window_report(spanel, "w").to_json_dict()
        assert set(d) == {
            "label", "start", "end", "rows", "md", "mrl",
            "scatter_eigenvalues", "projected_stats", "md_stats",
        }
        assert d["start"] == "2020-01-02"
        assert isinstance(d["projected_stats"]["kurtosis"], float)
        assert d["md_stats"]["positive"] + d["md_stats"]["negative"] <= 4

    def test_needs_two_rows(self):
        rng = np.random.default_rng(3)
        spanel = self.spanel_from(rng.standard_normal((2, 4)))
        sub = spanel.restrict(np.array([True, False]))
        with pytest.raises(DomainError):
            empirical.window_report(sub, "w")


class TestCorrelationSummary:
    def test_iid_panel(self, iid_panel_csv):
        panel = empirical.load_panel(iid_panel_csv)
        spanel = empirical.standardize_panel(panel)
        out = empirical.correlation_summary(panel.returns, spanel.sample.matrix)
        assert abs(out["mean_corr_z"]) < 0.05
        # forcing rows to sum to zero induces about -1/(n-1)
        assert out["mean_corr_x"] == pytest.approx(-1.0 / 7.0, abs=0.05)
        assert out["pairs"] == 28

    def test_one_factor_panel_shrinks_correlation(self, five_year_panel_csv):
        panel = empirical.load_panel(five_year_panel_csv)
        spanel = empirical.standardize_panel(panel)
        out = empirical.correlation_summary(panel.returns, spanel.sample.matrix)
        assert out["mean_corr_z"] > 0.5
        assert abs(out["mean_corr_x"]) < abs(out["mean_corr_z"]) / 5.0

    def test_zero_variance_column(self):
        z = np.random.default_rng(0).standard_normal((10, 3))
        z[:, 1] = 0.25
        with pytest.raises(DegenerateInputError):
            empirical.correlation_summary(z, z)

    def test_shape_checks(self):
        z = np.zeros((5, 3))
        with pytest.raises(DimensionError):
            empirical.correlation_summary(z, np.zeros((5, 2)))
        with pytest.raises(DimensionError):
            empirical.correlation_summary(np.zeros((2, 3)), np.zeros((2, 3)))


class TestRollingMrlCssd:
    @staticmethod
    def panel_of(matrix, start=D(2020, 1, 2)):
        dates = business_days(start, matrix.shape[0])
        return empirical.standardize_panel(empirical.ReturnPanel(
            dates=tuple(dates),
            tickers=tuple(f"A{j}" for j in range(matrix.shape[1])),
            returns=matrix,
            missing_mask=np.zeros(matrix.shape, dtype=bool),
        ))

    def test_identical_rows(self):
        row = np.array([0.02, -0.01, 0.02])
        panel = self.panel_of(np.tile(row, (30, 1)))
        out = empirical.rolling_mrl_cssd(panel, window=10)
        assert len(out) == 21
        centered = row - row.mean()
        cssd_expect = float(np.linalg.norm(centered)) / math.sqrt(3.0)
        for date, mrl, cssd in out:
            assert mrl == pytest.approx(1.0, abs=1e-12)
            assert cssd == pytest.approx(cssd_expect, abs=1e-15)
        assert out[0][0] == panel.source.dates[9]
        assert out[-1][0] == panel.source.dates[-1]

    def test_matches_direct_computation(self):
        rng = np.random.default_rng(10)
        matrix = rng.standard_normal((60, 5)) * 0.01
        panel = self.panel_of(matrix)
        window = 20
        out = empirical.rolling_mrl_cssd(panel, window=window)
        units, _ = sphere.standardize_rows(matrix)
        assert len(out) == 60 - window + 1
        for k in range(len(out)):
            lo = k
            hi = k + window
            xbar = units[lo:hi].mean(axis=0)
            zbar = matrix[lo:hi].mean(axis=0)
            zc = zbar - zbar.mean()
            assert out[k][0] == panel.source.dates[hi - 1]
            assert out[k][1] == pytest.approx(np.linalg.norm(xbar), abs=1e-12)
            assert out[k][2] == pytest.approx(
                np.linalg.norm(zc) / math.sqrt(5.0), abs=1e-12
            )

    def test_degenerate_row_yields_nan_windows(self):
        rng = np.random.default_rng(4)
        matrix = rng.standard_normal((40, 4)) * 0.01
        matrix[15] = 0.007  # constant cross-section
        panel = self.panel_of(matrix)
        window = 8
        out = empirical.rolling_mrl_cssd(panel, window=window)
        nan_idx = [k for k, (_, mrl, _) in enumerate(out) if math.isnan(mrl)]
        # right-aligned windows ending at rows 15..22 contain row 15
        assert nan_idx == [15 - window + 1 + j for j in range(window)]
        for _, _, cssd in out:
            assert math.isfinite(cssd)

    def test_restricted_panel_rejected(self):
        rng = np.random.default_rng(6)
        matrix = rng.standard_normal((60, 5)) * 0.01
        matrix[7] = 0.003  # constant cross-section, dropped
        panel = self.panel_of(matrix)
        rows = np.zeros(60, dtype=bool)
        rows[20:40] = True
        with pytest.raises(DomainError):
            empirical.rolling_mrl_cssd(panel.restrict(rows), window=5)
        # A mask over every held row leaves the panel whole.
        every = panel.restrict(np.ones(60, dtype=bool))
        assert every is panel
        out = empirical.rolling_mrl_cssd(every, window=5)
        assert [d for d, _, _ in out] == list(panel.source.dates[4:])
        mrl = np.array([m for _, m, _ in out])
        assert np.isnan(mrl).tolist() == [3 <= k <= 7 for k in range(56)]

    def test_window_bounds(self):
        rng = np.random.default_rng(5)
        panel = self.panel_of(rng.standard_normal((10, 3)))
        with pytest.raises(DomainError):
            empirical.rolling_mrl_cssd(panel, window=1)
        with pytest.raises(DomainError):
            empirical.rolling_mrl_cssd(panel, window=11)

    def test_concentration_tracks_dispersion_in_regimes(self):
        rng = np.random.default_rng(2024)
        t, n = 400, 8
        v = np.zeros(n)
        v[0], v[1] = 0.03, -0.03
        scale = np.where((np.arange(t) // 40) % 2 == 0, 0.5, 3.0)
        matrix = scale[:, None] * v + rng.standard_normal((t, n)) * 0.01
        panel = self.panel_of(matrix)
        out = empirical.rolling_mrl_cssd(panel, window=20)
        mrl = np.array([row[1] for row in out])
        cssd = np.array([row[2] for row in out])
        ok = ~np.isnan(mrl)
        corr = np.corrcoef(mrl[ok], cssd[ok])[0, 1]
        assert corr > 0.2


@pytest.fixture(scope="module")
def wide_panel_csv(tmp_path_factory) -> str:
    """5,000 weekdays x 50 assets: 0.5% holes, a column missing 20% of
    its cells and three constant rows."""
    t, n = 5000, 50
    matrix = one_factor_returns(t, n, seed=5050)
    rng = np.random.default_rng(5051)
    matrix[rng.choice(t, 3, replace=False)] = 0.001 * np.arange(1, 4)[:, None]
    holes = {(int(i), 0) for i in np.flatnonzero(rng.random(t) < 0.2)}
    holes |= {(int(i), int(j))
              for i, j in zip(*np.nonzero(rng.random((t, n)) < 0.005))}
    path = tmp_path_factory.mktemp("panels") / "wide.csv"
    write_panel_csv(path, business_days(D(2000, 1, 3), t),
                    [f"W{j}" for j in range(n)], matrix, holes)
    return str(path)


def traced_peak(fn):
    """fn's result and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


class TestPanelMemory:
    # Cells are parsed into one flat float64 buffer and the cleaning
    # chain holds at most two panel-sized arrays at once; the rolling
    # statistics need one prefix buffer and one window-difference buffer.
    def test_load_panel_peak(self, wide_panel_csv):
        panel, peak = traced_peak(lambda: empirical.load_panel(wide_panel_csv))
        assert panel.returns.shape == (5000, 49)
        assert peak <= 3 * panel.returns.nbytes + (1 << 20)

    def test_rolling_peak(self, wide_panel_csv):
        spanel = empirical.standardize_panel(empirical.load_panel(wide_panel_csv))
        t, n = spanel.source.returns.shape
        series, peak = traced_peak(lambda: empirical.rolling_mrl_cssd(spanel, 20))
        assert len(series) == t - 19
        assert peak <= 2 * (t + 1) * n * 8 + (1 << 20)


class TestWindows:
    def test_yearly(self, five_year_panel_csv):
        panel = empirical.load_panel(five_year_panel_csv)
        windows = empirical.yearly_windows(panel)
        labels = [label for label, _ in windows]
        assert labels == ["2014", "2015", "2016", "2017", "2018"]
        total = sum(int(mask.sum()) for _, mask in windows)
        assert total == panel.t
        for label, mask in windows:
            assert mask.dtype == bool and mask.shape == (panel.t,)
            assert all((d.year == int(label)) == m
                       for d, m in zip(panel.dates, mask))

    def test_yearly_min_rows(self):
        dates = business_days(D(2020, 12, 20), 30)  # straddles the new year
        rng = np.random.default_rng(6)
        panel = empirical.ReturnPanel(
            dates=tuple(dates), tickers=("A", "B", "C"),
            returns=rng.standard_normal((30, 3)),
            missing_mask=np.zeros((30, 3), dtype=bool),
        )
        assert empirical.yearly_windows(panel, min_rows=30) == []
        both = empirical.yearly_windows(panel, min_rows=5)
        assert [label for label, _ in both] == ["2020", "2021"]

    def test_range_window(self, iid_panel_csv):
        panel = empirical.load_panel(iid_panel_csv)
        label, mask = empirical.range_window(
            panel, D(2021, 2, 1), D(2021, 2, 28)
        )
        assert label == "2021-02-01_2021-02-28"
        assert mask.dtype == bool and mask.shape == (panel.t,)
        assert mask.sum() >= 2
        assert all(
            (D(2021, 2, 1) <= d <= D(2021, 2, 28)) == m
            for d, m in zip(panel.dates, mask)
        )
        with pytest.raises(DomainError):
            empirical.range_window(panel, D(2021, 3, 1), D(2021, 2, 1))
        with pytest.raises(DomainError):
            empirical.range_window(panel, D(1999, 1, 1), D(1999, 12, 31))
