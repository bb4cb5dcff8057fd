"""End-to-end tests of the command-line interface, run in process."""

import dataclasses
import datetime
import hashlib
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from icsphere import cli, empirical, fixtures, moments, optimize, specfun, sphere
from tests.conftest import (
    business_days,
    load_perfbench,
    one_factor_returns,
    write_panel_csv,
)


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def sha256_file(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def assert_same_artifacts(first, second):
    manifest = read_json(first / "manifest.json")
    assert manifest["artifacts"]
    for name in manifest["artifacts"]:
        assert (first / name).read_bytes() == (second / name).read_bytes()


class TestMoments:
    def test_two_assets(self, capsys):
        code, out, _ = run(
            ["moments", "--mu", "0.5,0", "--sigma", "1.0", "--rho", "0.0"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 2
        assert payload["summary"]["mrl"] == pytest.approx(
            0.2763263901682369, abs=1e-12
        )
        assert payload["concentration"] == pytest.approx(
            0.25 * math.sqrt(2.0), rel=1e-12
        )

    def test_theta_fields(self, capsys):
        code, out, _ = run(
            ["moments", "--mu", "1,2,4", "--sigma", "0.5", "--rho", "0.1",
             "--theta", "1,0,0"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) >= {"theta", "expectation", "variance", "summary"}
        assert payload["variance"] >= 0.0
        assert abs(payload["expectation"]) <= payload["summary"]["mrl"] + 1e-12

    def test_output_dir_writes_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "mom"
        code, out, _ = run(
            ["moments", "--mu", "1,2,4", "--sigma", "1.0", "--rho", "0.0",
             "--output-dir", str(out_dir)],
            capsys,
        )
        assert code == 0
        stored = (out_dir / "moments.json").read_text()
        assert stored == out
        manifest = read_json(out_dir / "manifest.json")
        assert manifest["command"] == "moments"
        assert "moments.json" in manifest["artifacts"]

    def test_large_concentration(self, capsys):
        # Concentration 45.6, past x = 40 where a leading-order tail used
        # to break the trace identity. varrho(3, x) from mpmath at 50
        # digits (scripts/derive_expected_values.py).
        code, out, err = run(
            ["moments", "--mu", "1,0,0,0", "--sigma", "0.02", "--rho", "0.1",
             "--theta", "0,1,-1,0"],
            capsys,
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["concentration"] == pytest.approx(45.6435464587638, rel=1e-12)
        mrl = payload["summary"]["mrl"]
        assert mrl == pytest.approx(0.99952, rel=1e-12)
        cov = np.array(payload["summary"]["cov_chi"])
        assert abs(np.trace(cov) - (1.0 - mrl * mrl)) <= 1e-14
        model = moments.HomoscedasticModel(
            mu=np.array([1.0, 0.0, 0.0, 0.0]), sigma=0.02, rho=0.1)
        theta = sphere.standardize(np.array([0.0, 1.0, -1.0, 0.0]))
        assert abs(payload["variance"]
                   - moments.variance_T_homoscedastic(theta, model)) <= 1e-15
        # f < g here, so the minimum-variance direction is the mean direction.
        res = optimize.min_variance(cov)
        align = float(res.theta_star.coords @ np.array(payload["summary"]["md"]))
        assert abs(abs(align) - 1.0) <= 1e-8

    @pytest.mark.parametrize("scale", [1e160, 1e-160, 1e300, 1e-300])
    def test_scale_free(self, scale, capsys):
        # README's example with mu and sigma scaled together: the squares
        # of the scaled mean overflow or underflow, the directions do not.
        def moments_payload(c):
            mu = ",".join(repr(c * v) for v in (0.003, -0.001, 0.002, 0.0))
            code, out, err = run(["moments", "--mu", mu, "--sigma", repr(c * 0.02),
                                  "--rho", "0.12", "--theta", "1,0,0,0"], capsys)
            assert code == 0, err
            payload = json.loads(out)
            return np.array([payload["concentration"], payload["expectation"],
                             payload["variance"], payload["summary"]["mrl"],
                             *payload["summary"]["md"],
                             *np.ravel(payload["summary"]["cov_chi"])])

        assert moments_payload(scale) == pytest.approx(moments_payload(1.0),
                                                       rel=0.0, abs=1e-15)

    def test_constant_mean_is_degenerate(self, capsys):
        code, _, err = run(
            ["moments", "--mu", "1,1,1", "--sigma", "1.0", "--rho", "0.0"],
            capsys,
        )
        assert code == 1
        assert "degenerate" in err.lower()

    def test_invalid_rho(self, capsys):
        code, _, _ = run(
            ["moments", "--mu", "1,2", "--sigma", "1.0", "--rho", "1.2"],
            capsys,
        )
        assert code == 2

    def test_malformed_mu(self, capsys):
        code, _, _ = run(
            ["moments", "--mu", "a,b", "--sigma", "1.0", "--rho", "0.0"],
            capsys,
        )
        assert code == 2

    def test_mu_needs_two_components(self, capsys):
        code, _, _ = run(
            ["moments", "--mu", "1", "--sigma", "1.0", "--rho", "0.0"],
            capsys,
        )
        assert code == 2

    def test_mu_from_file(self, tmp_path, capsys):
        vec = tmp_path / "mu.json"
        vec.write_text("[1.0, 2.0, 4.0]")
        code, out, _ = run(
            ["moments", "--mu", f"@{vec}", "--sigma", "1.0", "--rho", "0.0"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["n"] == 3


class TestVectorFiles:
    """--mu, --theta and --iota take '@path': a JSON list, or numbers
    separated by whitespace and commas."""

    MOMENTS = ["moments", "--mu", "1,2,4", "--sigma", "0.5", "--rho", "0.1",
               "--theta", "1,0,-1"]

    def argv(self, flag, value, panel_csv, tmp_path):
        if flag == "--iota":
            return ["empirical", "--input", panel_csv, "--iota", value,
                    "--output-dir", str(tmp_path / "out")]
        argv = list(self.MOMENTS)
        argv[argv.index(flag) + 1] = value
        return argv

    @pytest.mark.parametrize("flag", ["--mu", "--theta", "--iota"])
    def test_missing_file_exits_2(self, flag, five_year_panel_csv, tmp_path,
                                  capsys):
        argv = self.argv(flag, f"@{tmp_path / 'nope.txt'}",
                         five_year_panel_csv, tmp_path)
        code, out, err = run(argv, capsys)
        assert code == 2
        assert f"cannot read {flag} file" in err
        assert out == ""

    @pytest.mark.parametrize("flag", ["--mu", "--theta", "--iota"])
    def test_bad_json_exits_2(self, flag, five_year_panel_csv, tmp_path, capsys):
        path = tmp_path / "vec.json"
        path.write_text("[1.0, 2.0,")
        code, out, err = run(self.argv(flag, f"@{path}", five_year_panel_csv,
                                       tmp_path), capsys)
        assert code == 2
        assert f"bad JSON in {flag} file" in err
        assert out == ""

    @pytest.mark.parametrize("flag", ["--mu", "--theta"])
    def test_whitespace_and_comma_list(self, flag, tmp_path, capsys):
        inline = run(self.MOMENTS, capsys)
        assert inline[0] == 0
        value = self.MOMENTS[self.MOMENTS.index(flag) + 1]
        path = tmp_path / "vec.txt"
        path.write_text("\n  " + value.replace(",", " ,\t", 1).replace(",", "\n")
                        + "\n")
        assert run(self.argv(flag, f"@{path}", None, tmp_path), capsys) == inline

    def test_iota_whitespace_and_comma_list(self, five_year_panel_csv, tmp_path,
                                            capsys):
        coords = [1.0, 0.0, -1.0, 0.5, 0.0, 0.0, 2.0, 0.0, -0.5, 0.25]
        listed = tmp_path / "iota.json"
        listed.write_text(json.dumps(coords))
        spaced = tmp_path / "iota.txt"
        spaced.write_text("1 0,-1\n0.5, 0 0\t2\n0 -0.5 , 0.25\n")
        for name, path in (("json", listed), ("txt", spaced)):
            argv = self.argv("--iota", f"@{path}", five_year_panel_csv,
                             tmp_path / name)
            assert run(argv, capsys)[0] == 0
        for name in ("window_full.json", "projected_full.csv"):
            assert ((tmp_path / "json" / "out" / name).read_bytes()
                    == (tmp_path / "txt" / "out" / name).read_bytes())


class TestArgumentHandling:
    def test_no_command(self, capsys):
        assert run([], capsys)[0] == 2

    def test_unknown_flag(self, capsys):
        assert run(["moments", "--what"], capsys)[0] == 2

    def test_version(self, capsys):
        code, out, _ = run(["--version"], capsys)
        assert code == 0
        assert out.strip() == cli.__version__

    def test_exhausted_series_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(specfun, "_MAX_TERMS", 0)
        code, _, err = run(["moments", "--mu", "0.003,-0.001,0.002,0.0",
                            "--sigma", "0.02", "--rho", "0.12"], capsys)
        assert code == 3
        assert "convergence failure" in err


class TestSimulateMrlCheck:
    def test_closed_form_and_bracket(self, tmp_path, capsys):
        out_dir = tmp_path / "mrl"
        code, out, _ = run(
            ["simulate", "mrl-check", "--count", "30000",
             "--output-dir", str(out_dir)],
            capsys,
        )
        assert code == 0
        payload = read_json(out_dir / "mrl_check.json")
        assert payload["rounded"]["argument"] == pytest.approx(0.1288)
        assert payload["closed_form_mrl"] == pytest.approx(0.0417, abs=5e-5)
        assert payload["bracket"] == [0.039, 0.044]
        assert "closed-form 0.0417" in out

    def test_deterministic_artifacts(self, tmp_path, capsys):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for d in dirs:
            code, _, _ = run(
                ["simulate", "mrl-check", "--count", "5000", "--seed", "7",
                 "--output-dir", str(d)],
                capsys,
            )
            assert code == 0
        for name in ("mrl_check.json", "manifest.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_env_seed_used(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "4242")
        out_dir = tmp_path / "env"
        code, _, _ = run(
            ["simulate", "mrl-check", "--count", "2000",
             "--output-dir", str(out_dir)],
            capsys,
        )
        assert code == 0
        assert read_json(out_dir / "manifest.json")["seed"] == 4242

    def test_env_seed_invalid(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-seed")
        code, _, _ = run(
            ["simulate", "mrl-check", "--count", "2000",
             "--output-dir", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize("seed,code", [
        ("-1", 2), ("18446744073709551616", 2), ("18446744073709551615", 0),
    ])
    def test_seed_range(self, seed, code, tmp_path, capsys):
        got, _, err = run(
            ["simulate", "mrl-check", "--count", "2000", "--seed", seed,
             "--output-dir", str(tmp_path / "x")],
            capsys,
        )
        assert got == code
        if code == 2:
            assert "[0, 2^64)" in err
            assert not (tmp_path / "x").exists()

    def test_env_seed_out_of_range(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "-1")
        code, _, err = run(
            ["simulate", "mrl-check", "--count", "2000",
             "--output-dir", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert "[0, 2^64)" in err

    def test_explicit_seed_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "4242")
        out_dir = tmp_path / "flag"
        code, _, _ = run(
            ["simulate", "mrl-check", "--count", "2000", "--seed", "9",
             "--output-dir", str(out_dir)],
            capsys,
        )
        assert code == 0
        assert read_json(out_dir / "manifest.json")["seed"] == 9


    @pytest.mark.parametrize("cov", [
        1e-10 * (0.5 * np.eye(4) + 0.5),
        0.00002 * np.eye(4) + 0.99998,
    ], ids=["sigma-rounds-to-0", "rho-rounds-to-1"])
    def test_rounded_statistic_degenerates(self, cov, tmp_path, capsys):
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"mu": [0.01, 0.0, -0.01, 0.005],
                                      "cov": cov.tolist()}))
        code, _, err = run(
            ["simulate", "mrl-check", "--params", str(params), "--count", "2000",
             "--output-dir", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert "at 4 decimals" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("spelling", ["", "@"])
    def test_empty_params_path_exits_2(self, spelling, tmp_path, capsys):
        code, out, err = run(
            ["simulate", "mrl-check", "--params", spelling, "--count", "2000",
             "--output-dir", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2
        assert "--params" in err and "empty" in err
        assert "Is a directory" not in err
        assert out == ""
        assert not (tmp_path / "x").exists()


class TestParamsFile:
    """--params files that exit 2 (usage), keys a command does not read,
    and a tampered bundled set."""

    def simulate(self, tmp_path, capsys, command, *params):
        return run(["simulate", *command, *params, "--count", "2000",
                    "--output-dir", str(tmp_path / "out")], capsys)

    @staticmethod
    def bundled_with(**keys):
        """The bundled set's JSON with keys replaced; None drops a key."""
        raw = {**json.loads(fixtures.BUNDLED_PARAMS_PATH.read_text()), **keys}
        return json.dumps({k: v for k, v in raw.items() if v is not None})

    MRL = ("mrl-check",)
    HETERO = ("ic-pdf", "--variant", "hetero")

    @pytest.mark.parametrize("text,message,command", [
        ("{not json", "is not valid JSON", MRL),
        ("[1.0, 2.0]", "must hold a JSON object", MRL),
        ('{"sigma10": [[1.0, 0.0], [0.0, 1.0]]}',
         "lacks the key needed for ten_base: 'mu10'", MRL),
        ('{"mu": [0.1, 0.2], "cov": [[1.0, 0.0], [0.0]]}',
         "key 'cov' is not a 2-d array of numbers", MRL),
        ('{"mu": [0.1, "x"], "cov": [[1.0, 0.0], [0.0, 1.0]]}',
         "key 'mu' is not a 1-d array of numbers", MRL),
        ('{"mu": [0.1, 0.2]}', "lacks the key needed for ten_base: 'cov'", MRL),
        # Python's json reads NaN, so the model, not the reader, rejects it.
        ('{"mu": [0.1, 0.2, 0.3], "cov": [[1.0, 0.0, 0.0], [0.0, NaN, 0.0], '
         '[0.0, 0.0, 1.0]]}', "cov has non-finite entries", MRL),
        (bundled_with(hetero_scale=[1.0, 3.0]),
         "key 'hetero_scale' has 2 entries for 'sigma10' of shape (10, 10)", HETERO),
        (bundled_with(hetero_scale=None),
         "lacks the key needed for ten_hetero: 'hetero_scale'", HETERO),
        # A plain model has no hetero_scale; it must not run as the base model.
        ('{"mu": [0.1, 0.2], "cov": [[1.0, 0.0], [0.0, 1.0]]}',
         "plain model (mu, cov), but ten_hetero needs", HETERO),
    ], ids=["not_json", "list", "no_mu10", "ragged_cov", "string_in_mu",
            "mu_without_cov", "nan_cov", "hetero_scale_length", "no_hetero_scale",
            "plain_model_hetero"])
    def test_bad_file_exits_2(self, text, message, command, tmp_path, capsys):
        path = tmp_path / "params.json"
        path.write_text(text)
        code, out, err = self.simulate(tmp_path, capsys, command, "--params", f"@{path}")
        assert code == 2
        assert err.startswith("error: ")
        assert message in err
        assert out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [MRL, ("md-perturb", "--axis", "mu1")],
                             ids=["mrl-check", "md-perturb"])
    def test_key_the_command_does_not_read_is_not_checked(self, command, tmp_path,
                                                          capsys):
        # Neither command reads hetero_scale, so one of the wrong length
        # leaves the artifacts as the bundled set makes them.
        path = tmp_path / "params.json"
        path.write_text(self.bundled_with(hetero_scale=[1.0, 3.0]))
        bundled, edited = tmp_path / "bundled", tmp_path / "edited"
        assert self.simulate(bundled, capsys, command)[0] == 0
        code, _, err = self.simulate(edited, capsys, command, "--params", f"@{path}")
        assert code == 0, err
        assert_same_artifacts(bundled / "out", edited / "out")

    def test_tampered_bundled_fixture_exits_2(self, monkeypatch, tmp_path,
                                              capsys):
        bundled = fixtures.BUNDLED_PARAMS_PATH.read_text()
        data = tmp_path / "benchmark_params.json"
        data.write_text(bundled.replace("0.", "1.", 1))
        checksum = tmp_path / "benchmark_params.sha256"
        checksum.write_text(fixtures._CHECKSUM_PATH.read_text())
        monkeypatch.setattr(fixtures, "BUNDLED_PARAMS_PATH", data)
        monkeypatch.setattr(fixtures, "_CHECKSUM_PATH", checksum)
        code, out, err = self.simulate(tmp_path, capsys, self.MRL)
        assert code == 2
        assert "bundled parameter fixture failed its checksum" in err
        assert out == ""
        # The untampered copy loads.
        data.write_text(bundled)
        assert self.simulate(tmp_path, capsys, self.MRL)[0] == 0


class TestSimulateIcPdf:
    def test_chi_mu_artifacts(self, tmp_path, capsys):
        out_dir = tmp_path / "pdf"
        code, out, _ = run(
            ["simulate", "ic-pdf", "--mode", "chi_mu", "--count", "400",
             "--output-dir", str(out_dir)],
            capsys,
        )
        assert code == 0
        lines = (out_dir / "ic_pdf_density.csv").read_text().splitlines()
        assert lines[0] == "t,density"
        assert len(lines) == 513
        summary = read_json(out_dir / "ic_pdf_summary.json")
        assert summary["count"] == 400
        assert summary["bandwidth"] > 0.0
        assert -1.0 <= summary["min"] <= summary["max"] <= 1.0
        assert "ic-pdf: 400 projections" in out

    def test_sample_md_mode(self, tmp_path, capsys):
        code, _, _ = run(
            ["simulate", "ic-pdf", "--mode", "sample_md", "--count", "400",
             "--variant", "hetero", "--output-dir", str(tmp_path / "h")],
            capsys,
        )
        assert code == 0

    def test_summary_bytes_frozen(self, tmp_path, capsys):
        # Frozen before the KDE moved to binning: the projections, and so
        # the summary, must not change with the density estimator. "max"
        # moved in the last bit when the sample mean direction took
        # standardize_rows' summation order.
        out_dir = tmp_path / "frozen"
        code, _, _ = run(
            ["simulate", "ic-pdf", "--mode", "sample_md", "--variant", "hetero",
             "--count", "5000", "--seed", "7", "--output-dir", str(out_dir)],
            capsys,
        )
        assert code == 0
        assert (out_dir / "ic_pdf_summary.json").read_bytes() == (
            b'{\n'
            b'  "bandwidth": 0.05009308202554603,\n'
            b'  "count": 5000,\n'
            b'  "max": 0.8419896022598568,\n'
            b'  "mean": 0.035934674959632845,\n'
            b'  "min": -0.9124820602362045,\n'
            b'  "mode": "sample_md",\n'
            b'  "sd": 0.3057543736655234,\n'
            b'  "seed": 7,\n'
            b'  "variant": "hetero"\n'
            b'}\n'
        )

    def test_rejects_bad_mode(self, capsys):
        assert run(
            ["simulate", "ic-pdf", "--mode", "nope", "--count", "10"],
            capsys,
        )[0] == 2


class TestSimulateMdPerturb:
    def test_csv_structure(self, tmp_path, capsys):
        out_dir = tmp_path / "md"
        code, _, _ = run(
            ["simulate", "md-perturb", "--axis", "mu1", "--factors", "1,2",
             "--count", "400", "--output-dir", str(out_dir)],
            capsys,
        )
        assert code == 0
        lines = (out_dir / "md_perturb.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:2] == ["factor", "mrl"]
        assert header[-1] == "angle_to_base_deg"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 1.0
        n = len(header) - 3
        md = np.array([float(v) for v in first[2:2 + n]])
        assert abs(np.linalg.norm(md) - 1.0) < 1e-9
        assert abs(md.sum()) < 1e-9

    def test_sigma_axis(self, tmp_path, capsys):
        code, _, _ = run(
            ["simulate", "md-perturb", "--axis", "sigma1", "--factors",
             "0.5,1", "--count", "400", "--output-dir", str(tmp_path / "s")],
            capsys,
        )
        assert code == 0

    def test_unparseable_factor_exits_2(self, tmp_path, capsys):
        code, _, err = run(
            ["simulate", "md-perturb", "--axis", "mu1", "--factors", "1,abc",
             "--count", "400", "--output-dir", str(tmp_path / "bad")],
            capsys,
        )
        assert code == 2
        assert "--factors" in err
        assert not (tmp_path / "bad").exists()

    def test_constant_mean_exits_1_before_drawing(self, monkeypatch, tmp_path,
                                                  capsys):
        # The base direction is checked before any factor's draws.
        def experiment(*args):
            raise AssertionError("md-perturb drew for a constant mean")

        monkeypatch.setattr(cli.montecarlo, "md_perturbation_experiment",
                            experiment)
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"mu": [0.1, 0.1, 0.1],
                                      "cov": np.eye(3).tolist()}))
        code, out, err = run(
            ["simulate", "md-perturb", "--axis", "mu1", "--factors", "1,2",
             "--params", str(params), "--count", "2000000",
             "--output-dir", str(tmp_path / "md")],
            capsys,
        )
        assert code == 1, err
        assert out == ""
        assert not (tmp_path / "md").exists()


class TestEmpirical:
    def test_yearly_pipeline(self, five_year_panel_csv, tmp_path, capsys):
        out_dir = tmp_path / "emp"
        code, out, _ = run(
            ["empirical", "--input", five_year_panel_csv,
             "--windows", "yearly", "--rolling", "20",
             "--output-dir", str(out_dir)],
            capsys,
        )
        assert code == 0
        summary = read_json(out_dir / "empirical_summary.json")
        assert summary["windows"] == [
            "2014", "2015", "2016", "2017", "2018", "full"
        ]
        for label in summary["windows"]:
            assert (out_dir / f"window_{label}.json").exists()
            assert (out_dir / f"scatter_spectrum_{label}.csv").exists()
            assert (out_dir / f"projected_{label}.csv").exists()
        full = read_json(out_dir / "window_full.json")
        assert full["projected_stats"]["mean"] == pytest.approx(
            full["mrl"], abs=1e-12
        )
        assert sum(full["scatter_eigenvalues"]) == pytest.approx(1.0, abs=1e-9)
        rolling = (out_dir / "rolling.csv").read_text().splitlines()
        assert rolling[0] == "date,mrl,cssd"
        assert len(rolling) - 1 == summary["rows"] - 19
        corr = read_json(out_dir / "correlations.json")
        assert abs(corr["mean_corr_x"]) < abs(corr["mean_corr_z"]) / 5.0
        assert "6 windows" in out

    def test_correlations_skip_constant_rows(self, tmp_path, capsys):
        t, n = 300, 6
        matrix = one_factor_returns(t, n, seed=41)
        matrix[[40, 41, 150, 299]] = 0.01
        path = tmp_path / "gaps.csv"
        write_panel_csv(path, business_days(datetime.date(2020, 1, 2), t),
                        [f"C{j}" for j in range(n)], matrix)
        out_dir = tmp_path / "corr"
        code, out, _ = run(
            ["empirical", "--input", str(path), "--output-dir", str(out_dir)],
            capsys,
        )
        assert code == 0
        assert "4 degenerate rows" in out
        panel = empirical.load_panel(path)
        units, kept = sphere.standardize_rows(panel.returns)
        expected = empirical.correlation_summary(panel.returns[kept], units)
        assert read_json(out_dir / "correlations.json") == expected

    def test_two_assets_have_one_pair(self, tmp_path, capsys):
        # One pair has no standard deviation of its correlations; the
        # run writes null for it instead of failing on a NaN.
        path = tmp_path / "pair.csv"
        path.write_text("date,A,B\n2020-01-01,0.1,0.2\n"
                        "2020-01-02,0.1,0.3\n2020-01-03,0.3,0.2\n")
        first = tmp_path / "p1"
        code, _, _ = run(
            ["empirical", "--input", str(path), "--windows", "full",
             "--rolling", "2", "--output-dir", str(first)],
            capsys,
        )
        assert code == 0
        assert (first / "manifest.json").exists()
        corr = read_json(first / "correlations.json")
        assert corr["pairs"] == 1
        assert corr["sd_corr_z"] is None and corr["sd_corr_x"] is None
        second = tmp_path / "p2"
        code, _, _ = run(
            ["rerun", "--manifest", str(first / "manifest.json"),
             "--output-dir", str(second)],
            capsys,
        )
        assert code == 0
        assert_same_artifacts(first, second)

    def test_range_window(self, five_year_panel_csv, tmp_path, capsys):
        out_dir = tmp_path / "rng"
        code, _, _ = run(
            ["empirical", "--input", five_year_panel_csv,
             "--windows", "2015-01-01:2015-06-30",
             "--output-dir", str(out_dir)],
            capsys,
        )
        assert code == 0
        label = "2015-01-01_2015-06-30"
        report = read_json(out_dir / f"window_{label}.json")
        assert report["start"] >= "2015-01-01"
        assert report["end"] <= "2015-06-30"

    def test_iota_projection(self, five_year_panel_csv, tmp_path, capsys):
        code, _, _ = run(
            ["empirical", "--input", five_year_panel_csv,
             "--iota", "1,-1,0,0,0,0,0,0,0,0",
             "--output-dir", str(tmp_path / "iota")],
            capsys,
        )
        assert code == 0

    def test_iota_dimension_mismatch(self, five_year_panel_csv, tmp_path, capsys):
        code, _, _ = run(
            ["empirical", "--input", five_year_panel_csv,
             "--iota", "1,-1", "--output-dir", str(tmp_path / "bad")],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize("spec,message", [
        ("2015-01-01:2015-13-01", "--windows range must be ISO dates"),
        ("2015-01-01:", "--windows range must be ISO dates"),
        ("monthly", "--windows must be 'yearly', 'full', or 'from:to'"),
    ])
    def test_bad_windows_spec_exits_2(self, spec, message, five_year_panel_csv,
                                      tmp_path, capsys):
        code, out, err = run(
            ["empirical", "--input", five_year_panel_csv, "--windows", spec,
             "--output-dir", str(tmp_path / "w")],
            capsys,
        )
        assert code == 2
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("rows,extra,message", [
        (2, (), "need at least 3 rows"),
        (40, ("--rolling", "100"), "window 100 exceeds the panel length 40"),
    ], ids=["correlations", "rolling"])
    def test_late_failure_writes_nothing(self, rows, extra, message, tmp_path,
                                         capsys):
        # Every artifact is computed before any is written, so a run that
        # fails on its correlations or rolling series leaves no window
        # artifacts behind without a manifest.
        path = tmp_path / "short.csv"
        write_panel_csv(path, business_days(datetime.date(2020, 1, 2), rows),
                        [f"C{j}" for j in range(5)],
                        one_factor_returns(rows, 5, seed=28))
        code, out, err = run(
            ["empirical", "--input", str(path), *extra,
             "--output-dir", str(tmp_path / "out")],
            capsys,
        )
        assert code == 2
        assert message in err
        assert out == ""
        assert not (tmp_path / "out").exists()

    def test_oversized_rolling_window(self, five_year_panel_csv, tmp_path, capsys):
        code, _, _ = run(
            ["empirical", "--input", five_year_panel_csv,
             "--rolling", "5000", "--output-dir", str(tmp_path / "r")],
            capsys,
        )
        assert code == 2

    def test_constant_panel_is_degenerate(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text(
            "date,A,B,C\n2020-01-02,0.01,0.01,0.01\n2020-01-03,0.02,0.02,0.02\n"
        )
        code, _, _ = run(
            ["empirical", "--input", str(path),
             "--output-dir", str(tmp_path / "out")],
            capsys,
        )
        assert code == 1

    def test_missing_file(self, tmp_path, capsys):
        code, _, err = run(
            ["empirical", "--input", str(tmp_path / "nope.csv"),
             "--output-dir", str(tmp_path / "o")],
            capsys,
        )
        assert code == 2
        assert "cannot read panel" in err

    @pytest.mark.parametrize("filled,policy,manifest_sha256", [
        (False, "cross_mean",
         "bd502137a0a89b520b2ad5048220a830ed00a21b8aec3019303018e31cb806d8"),
        (True, "cross_mean",
         "7eb0dab43e34b255236611f22e4ff424f95b424a128f6b4597ef8ef96938c153"),
        (False, "drop_row",
         "27c5f33378f4efe0c372bd3d9b543bb2eff582d9e1d6d42778f11725706f8dc9"),
    ], ids=["holes", "filled", "drop-row"])
    def test_artifact_hashes_frozen(self, filled, policy, manifest_sha256,
                                    tmp_path, monkeypatch, capsys):
        # 600 weekdays x 12 assets: isolated holes, a column missing 20%
        # of its cells (dropped) and three constant rows. Filled, only
        # the sparse column has holes, so every row survives cleaning
        # unchanged. The manifest holds every artifact's sha256, and
        # --input is relative, so the manifest's own hash pins them all.
        t, n = 600, 12
        matrix = one_factor_returns(t, n, seed=606)
        rng = np.random.default_rng(607)
        matrix[rng.choice(t, 3, replace=False)] = 0.001 * np.arange(1, 4)[:, None]
        holes = {(int(i), 0) for i in np.flatnonzero(rng.random(t) < 0.2)}
        if not filled:
            holes |= {(int(i), int(j))
                      for i, j in zip(*np.nonzero(rng.random((t, n)) < 0.01))}
        monkeypatch.chdir(tmp_path)
        write_panel_csv("panel.csv", business_days(datetime.date(2019, 1, 2), t),
                        [f"S{j}" for j in range(n)], matrix, holes)
        code, _, _ = run(
            ["empirical", "--input", "panel.csv", "--windows", "yearly",
             "--rolling", "20", "--missing-policy", policy,
             "--output-dir", "out"],
            capsys,
        )
        assert code == 0
        out = tmp_path / "out"
        manifest = read_json(out / "manifest.json")
        for name, digest in manifest["artifacts"].items():
            assert sha256_file(out / name) == digest, name
        assert len(manifest["artifacts"]) == 15
        assert sha256_file(out / "manifest.json") == manifest_sha256


class TestOracle:
    def test_specfun_suite(self, capsys):
        code, out, _ = run(["oracle", "--suite", "specfun"], capsys)
        assert code == 0
        lines = [l for l in out.splitlines() if l]
        assert len(lines) == 3
        assert all(l.startswith("ok  ") for l in lines)

    def test_optimize_suite(self, capsys):
        code, out, _ = run(["oracle", "--suite", "optimize"], capsys)
        assert code == 0
        assert "optimize.homoscedastic_suite" in out

    def test_cov_suite_small_count(self, tmp_path, capsys):
        out_dir = tmp_path / "orc"
        code, out, _ = run(
            ["oracle", "--suite", "cov", "--count", "20000",
             "--output-dir", str(out_dir)],
            capsys,
        )
        assert code == 0
        report = read_json(out_dir / "oracle_report.json")
        assert all(c["ok"] for c in report["checks"])
        assert {c["name"] for c in report["checks"]} == {
            "cov.canonical_n3", "cov.canonical_n5", "cov.canonical_n9"
        }

    def test_mismatch_exits_4_with_report(self, monkeypatch, tmp_path, capsys):
        varrho = specfun.varrho
        monkeypatch.setattr(specfun, "varrho",
                            lambda n, x: varrho(n, x) * (1.0 + 1e-6))
        out_dir = tmp_path / "orc"
        code, _, err = run(["oracle", "--suite", "specfun",
                            "--output-dir", str(out_dir)], capsys)
        assert code == 4
        assert "oracle failure" in err
        report = read_json(out_dir / "oracle_report.json")
        assert [c["ok"] for c in report["checks"]] == [False] * 3
        # main writes the manifest after the failing command returns.
        manifest = read_json(out_dir / "manifest.json")
        assert manifest["artifacts"] == {
            "oracle_report.json": sha256_file(out_dir / "oracle_report.json")}

    @staticmethod
    def shifted_value(real):
        def min_variance(cov):
            res = real(cov)
            return dataclasses.replace(res, value=res.value + 1e-6)
        return min_variance

    @staticmethod
    def misaligned(real):
        def min_variance(cov):
            res = real(cov)
            turned = sphere.standardize(np.roll(res.theta_star.coords, 1))
            return dataclasses.replace(res, theta_star=turned)
        return min_variance

    @staticmethod
    def varies_with_lambda(real):
        def mean_variance(model, lam):
            res = real(model, lam)
            if not math.isinf(lam):
                return res
            flipped = sphere.UnitDirection(-res.theta_star.coords)
            return dataclasses.replace(res, theta_star=flipped)
        return mean_variance

    @pytest.mark.parametrize("name,patch,detail", [
        ("min_variance", shifted_value,
         r"trial 0: min-variance value off by 1\.00e-06"),
        ("min_variance", misaligned,
         r"trial 0: minimizer misaligned \(0\.\d{12}\)"),
        ("mean_variance_homoscedastic", varies_with_lambda,
         r"trial 0: penalty level changed the maximizer"),
    ], ids=["value", "misaligned", "lambda"])
    def test_optimize_failure_exits_4_with_report(self, name, patch, detail,
                                                  monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(optimize, name, patch(getattr(optimize, name)))
        out_dir = tmp_path / "orc"
        code, out, err = run(["oracle", "--suite", "optimize", "--seed", "7",
                              "--output-dir", str(out_dir)], capsys)
        assert code == 4
        assert err == ("oracle failure: 1 oracle check(s) failed: "
                       "['optimize.homoscedastic_suite']\n")
        assert out.startswith("FAIL optimize.homoscedastic_suite: trial ")
        (check,) = read_json(out_dir / "oracle_report.json")["checks"]
        assert check["name"] == "optimize.homoscedastic_suite"
        assert check["ok"] is False
        assert re.fullmatch(detail, check["detail"])
        manifest = read_json(out_dir / "manifest.json")
        assert manifest["artifacts"] == {
            "oracle_report.json": sha256_file(out_dir / "oracle_report.json")}


class TestRerun:
    def test_bit_identical_reexecution(self, tmp_path, capsys):
        first = tmp_path / "first"
        code, _, _ = run(
            ["simulate", "mrl-check", "--count", "4000", "--seed", "11",
             "--output-dir", str(first)],
            capsys,
        )
        assert code == 0
        second = tmp_path / "second"
        code, _, _ = run(
            ["rerun", "--manifest", str(first / "manifest.json"),
             "--output-dir", str(second)],
            capsys,
        )
        assert code == 0
        for name in ("mrl_check.json", "manifest.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    @pytest.mark.parametrize("argv,artifacts", [
        (["simulate", "mrl-check"], {
            "mrl_check.json":
            "1daeefe92d9e80e995ae4e9e9adf17ccea15a3d7111db1576f238dd922d27570"}),
        (["simulate", "md-perturb", "--axis", "mu1", "--factors", "0.5,2"], {
            "md_perturb.csv":
            "a9226cb042f89592ef91476925cea264653320c71fc198ddb47c74f19b2d501a"}),
        (["simulate", "md-perturb", "--axis", "sigma1", "--factors", "0.5,2"], {
            "md_perturb.csv":
            "acd297b63072d4f145bf1ed5485ad37283e226d886c885a2b19578f955c372e2"}),
    ], ids=["mrl-check", "md-perturb-mu1", "md-perturb-sigma1"])
    def test_streamed_resultant_hashes_frozen(self, argv, artifacts, tmp_path,
                                              capsys):
        # Frozen when shards were summed whole: a manifest saved then
        # reruns to the same bytes. 70,001 rows end in a partial shard.
        first = tmp_path / "first"
        code, _, _ = run([*argv, "--count", "70001", "--seed", "5",
                          "--output-dir", str(first)], capsys)
        assert code == 0
        assert read_json(first / "manifest.json")["artifacts"] == artifacts
        second = tmp_path / "second"
        code, _, _ = run(["rerun", "--manifest", str(first / "manifest.json"),
                          "--output-dir", str(second)], capsys)
        assert code == 0
        assert (first / "manifest.json").read_bytes() == (
            second / "manifest.json").read_bytes()

    def test_rerun_empirical(self, five_year_panel_csv, tmp_path, capsys):
        first = tmp_path / "e1"
        code, _, _ = run(
            ["empirical", "--input", five_year_panel_csv,
             "--output-dir", str(first)],
            capsys,
        )
        assert code == 0
        second = tmp_path / "e2"
        code, _, _ = run(
            ["rerun", "--manifest", str(first / "manifest.json"),
             "--output-dir", str(second)],
            capsys,
        )
        assert code == 0
        manifest = read_json(first / "manifest.json")
        for name in manifest["artifacts"]:
            assert (first / name).read_bytes() == (second / name).read_bytes()

    @pytest.mark.parametrize("kind", [
        "moments", "empirical", "mrl-check", "ic-pdf-sample-md", "oracle-cov",
        "moments-minus-list", "moments-minus-float",
    ])
    def test_threads_ignored_where_command_has_none(
            self, kind, five_year_panel_csv, tmp_path, capsys):
        # --threads is accepted, and ignored, by simulate, oracle and rerun:
        # old scripts and the benchmark argv pass it. The minus cases rerun
        # values that argparse takes for options unless joined by '='
        # (-1e-05 is the repr of the float typed as -0.00001).
        argv, accepts_threads = {
            "moments": (["moments", "--mu", "1,2,4", "--sigma", "1.0",
                         "--rho", "0.0", "--theta", "1,0,-1"], False),
            "moments-minus-list": (["moments", "--mu=-0.005,0.001,0.002,0.0",
                                    "--sigma", "0.02", "--rho", "0.12"], False),
            "moments-minus-float": (["moments", "--mu", "0.005,0.001,0.002,0.0",
                                     "--sigma", "0.02", "--rho", "-0.00001"], False),
            "empirical": (["empirical", "--input", five_year_panel_csv,
                           "--rolling", "20"], False),
            "mrl-check": (["simulate", "mrl-check", "--count", "3000"], True),
            "ic-pdf-sample-md": (["simulate", "ic-pdf", "--mode", "sample_md",
                                  "--count", "3000"], True),
            "oracle-cov": (["oracle", "--suite", "cov", "--count", "3000"], True),
        }[kind]
        plain = tmp_path / "plain"
        assert run(argv + ["--output-dir", str(plain)], capsys)[0] == 0
        first = tmp_path / "first"
        flag = ["--threads", "2"] if accepts_threads else []
        assert run(argv + flag + ["--output-dir", str(first)], capsys)[0] == 0
        manifest = read_json(first / "manifest.json")
        assert "--threads" not in manifest["parameters"]["argv"]
        second = tmp_path / "second"
        code, _, err = run(["rerun", "--manifest", str(first / "manifest.json"),
                            "--output-dir", str(second), "--threads", "2"],
                           capsys)
        assert code == 0, err
        for out in (first, second):
            assert_same_artifacts(plain, out)
            assert ((plain / "manifest.json").read_bytes()
                    == (out / "manifest.json").read_bytes())

    def test_unusable_manifest(self, tmp_path, capsys):
        bad = tmp_path / "m.json"
        bad.write_text("{}")
        assert run(["rerun", "--manifest", str(bad)], capsys)[0] == 2
        assert run(
            ["rerun", "--manifest", str(tmp_path / "missing.json")], capsys
        )[0] == 2

    @pytest.mark.parametrize("argv", [
        ["simulate", "mrl-check", "--count", 3000],
        "simulate mrl-check",
    ], ids=["number", "string"])
    def test_argv_not_a_list_of_strings(self, argv, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps({"parameters": {"argv": argv}}))
        code, _, err = run(["rerun", "--manifest", str(bad),
                            "--output-dir", str(tmp_path / "out")], capsys)
        assert code == 2
        assert "unusable manifest" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["rerun", "--manifest", "SELF"], ["--version"], [],
    ], ids=["rerun-self", "no-command", "empty"])
    def test_argv_not_a_manifest_command(self, argv, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        argv = [str(bad) if a == "SELF" else a for a in argv]
        bad.write_text(json.dumps({"parameters": {"argv": argv}}))
        code, out, err = run(["rerun", "--manifest", str(bad),
                              "--output-dir", str(tmp_path / "out")], capsys)
        assert code == 2
        assert "unusable manifest" in err
        assert out == ""
        assert not (tmp_path / "out").exists()

    def test_seed_outside_range_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps({"parameters": {"argv": [
            "simulate", "mrl-check", "--count", "2000",
            "--seed", "18446744073709551617"]}}))
        code, _, err = run(["rerun", "--manifest", str(bad),
                            "--output-dir", str(tmp_path / "out")], capsys)
        assert code == 2
        assert "[0, 2^64)" in err
        assert not (tmp_path / "out").exists()


class TestBenchmarkArgv:
    def test_every_workload_argv_parses(self, tmp_path):
        # The benchmark runs these command lines; a flag it passes that
        # the parser drops fails here, not in a benchmark run.
        workloads = load_perfbench("workloads")
        parser = cli._build_parser()
        for workload in workloads.WORKLOADS.values():
            workload.state["path"] = tmp_path / "panel.csv"  # set by prepare()
            argv = workload.argv(tmp_path / workload.name, 7, 2)
            args = parser.parse_args(argv)
            assert args.output_dir == str(tmp_path / workload.name)


class TestOutputDir:
    @pytest.mark.parametrize("kind", [
        "moments", "ic-pdf", "md-perturb", "mrl-check", "empirical", "oracle",
    ])
    def test_manifest_hashes_every_file(self, kind, five_year_panel_csv,
                                        tmp_path, capsys):
        argv = {
            "moments": ["moments", "--mu", "1,2,4", "--sigma", "1.0",
                        "--rho", "0.0", "--theta", "1,0,-1"],
            "ic-pdf": ["simulate", "ic-pdf", "--count", "3000"],
            "md-perturb": ["simulate", "md-perturb", "--axis", "mu1",
                           "--factors", "0.5,2", "--count", "2000"],
            "mrl-check": ["simulate", "mrl-check", "--count", "2000"],
            "empirical": ["empirical", "--input", five_year_panel_csv,
                          "--windows", "yearly", "--rolling", "20"],
            "oracle": ["oracle", "--suite", "cov", "--count", "3000"],
        }[kind]
        out = tmp_path / "out"
        code, _, err = run(argv + ["--output-dir", str(out)], capsys)
        assert code == 0, err
        artifacts = read_json(out / "manifest.json")["artifacts"]
        files = {path.name for path in out.iterdir()} - {"manifest.json"}
        assert set(artifacts) == files
        for name, digest in artifacts.items():
            assert sha256_file(out / name) == digest, name

    @pytest.mark.parametrize("argv", [
        ["simulate", "mrl-check", "--count", "2000"],
        ["oracle", "--suite", "specfun"],
    ], ids=["mrl-check", "oracle"])
    @pytest.mark.parametrize("where", ["file", "below-file"])
    def test_unusable_output_dir_exits_2(self, argv, where, tmp_path, capsys):
        blocker = tmp_path / "taken"
        blocker.write_text("not a directory\n")
        target = blocker if where == "file" else blocker / "sub"
        code, _, err = run(argv + ["--output-dir", str(target)], capsys)
        assert code == 2
        assert "--output-dir" in err
        assert blocker.read_text() == "not a directory\n"


def holed_panel(tmp_path, n, holes, *extra):
    path = tmp_path / "holed.csv"
    write_panel_csv(path, business_days(datetime.date(2020, 1, 2), 10),
                    [f"H{j}" for j in range(n)],
                    one_factor_returns(10, n, seed=29), holes)
    return ["empirical", "--input", str(path), *extra]


class TestInputErrors:
    """Typed errors from outside input exit 2 with an 'error: ' line and
    leave no output directory."""

    @pytest.mark.parametrize("argv,message", [
        (lambda tmp: ["moments", "--mu", "nan,0.01,0.02", "--sigma", "0.02",
                      "--rho", "0.1"],
         "vector has non-finite entries"),
        (lambda tmp: ["moments", "--mu", "0.01,0.02,0,0", "--sigma", "0.02",
                      "--rho", "0.1", "--theta", "1,-1"],
         "theta and summary dimensions differ"),
        # The second and third of three columns miss every other cell.
        (lambda tmp: holed_panel(tmp, 3, {(i, j) for i in range(0, 10, 2)
                                          for j in (1, 2)}),
         "fewer than 2 columns survive the missing-data limit"),
        # One hole per row keeps every column (10% missing) and no row.
        (lambda tmp: holed_panel(tmp, 10, {(i, i) for i in range(10)},
                                 "--missing-policy", "drop_row"),
         "fewer than 2 rows survive the missing-data policy"),
    ], ids=["nan_mu", "theta_dimension", "columns_missing", "rows_dropped"])
    def test_exits_2_without_output(self, argv, message, tmp_path, capsys):
        code, out, err = run(argv(tmp_path) + ["--output-dir", str(tmp_path / "out")],
                             capsys)
        assert code == 2
        assert err.startswith("error: ")
        assert message in err
        assert out == ""
        assert not (tmp_path / "out").exists()


def computing_flags(tmp_path, panel_csv):
    """A non-default value for every option that can change an artifact,
    per artifact-writing command."""
    params = tmp_path / "params.json"
    params.write_text(fixtures.BUNDLED_PARAMS_PATH.read_text())
    iota = tmp_path / "iota.json"
    iota.write_text(json.dumps([1.0] + [0.0] * 8 + [-1.0]))
    sim = {"--params": f"@{params}", "--seed": "5", "--count": "3000"}
    return {
        ("moments",): {"--mu": "0.3,-0.1,0.2", "--sigma": "0.5",
                       "--rho": "0.1", "--theta": "1,0,-1"},
        ("simulate", "ic-pdf"): {**sim, "--mode": "sample_md",
                                 "--variant": "hetero", "--bandwidth": "0.05"},
        ("simulate", "md-perturb"): {**sim, "--axis": "sigma1",
                                     "--factors": "0.5,2"},
        ("simulate", "mrl-check"): sim,
        ("empirical",): {"--input": panel_csv, "--windows": "yearly",
                         "--rolling": "20", "--iota": f"@{iota}",
                         "--missing-policy": "drop_row"},
        ("oracle",): {"--suite": "cov", "--count": "20000", "--seed": "3"},
    }


class TestManifestArgv:
    @pytest.mark.parametrize("path", [
        ("moments",), ("simulate", "ic-pdf"), ("simulate", "md-perturb"),
        ("simulate", "mrl-check"), ("empirical",), ("oracle",),
    ], ids=lambda p: "-".join(p))
    def test_every_computing_flag_reaches_manifest(
            self, path, five_year_panel_csv, tmp_path, capsys):
        flags = computing_flags(tmp_path, five_year_panel_csv)[path]
        argv = list(path) + [w for pair in flags.items() for w in pair]
        parser = cli._build_parser().parse_args(argv).parser
        options = {a.option_strings[0]: a for a in parser._actions
                   if a.dest not in ("help", "output_dir", "threads")}
        # The table covers every option, so a new flag fails here first.
        assert set(options) == set(flags)
        for flag, value in flags.items():
            action = options[flag]
            assert (action.type or str)(value) != action.default, flag

        first = tmp_path / "first"
        code, _, _ = run(argv + ["--output-dir", str(first)], capsys)
        assert code == 0
        manifest_argv = read_json(first / "manifest.json")["parameters"]["argv"]
        k = len(path)
        assert manifest_argv[:k] == list(path)
        assert dict(zip(manifest_argv[k::2], manifest_argv[k + 1::2])) == flags

        second = tmp_path / "second"
        code, _, _ = run(["rerun", "--manifest", str(first / "manifest.json"),
                          "--output-dir", str(second)], capsys)
        assert code == 0
        assert_same_artifacts(first, second)
        assert ((first / "manifest.json").read_bytes()
                == (second / "manifest.json").read_bytes())

    @pytest.mark.parametrize("kind", ["ic-pdf", "empirical"])
    def test_manifest_in_earlier_argv_order_reruns(
            self, kind, five_year_panel_csv, tmp_path, capsys):
        # Manifests once listed the options in a hand-kept order.
        old = {
            "ic-pdf": ["simulate", "ic-pdf", "--mode", "sample_md",
                       "--variant", "hetero", "--count", "3000",
                       "--seed", "21"],
            "empirical": ["empirical", "--input", five_year_panel_csv,
                          "--windows", "yearly", "--missing-policy",
                          "cross_mean", "--iota", "md", "--rolling", "20"],
        }[kind]
        saved = tmp_path / "old_manifest.json"
        saved.write_text(json.dumps({"parameters": {"argv": old}}))
        direct = tmp_path / "direct"
        assert run(old + ["--output-dir", str(direct)], capsys)[0] == 0
        again = tmp_path / "again"
        code, _, _ = run(["rerun", "--manifest", str(saved),
                          "--output-dir", str(again)], capsys)
        assert code == 0
        assert_same_artifacts(direct, again)
        assert ((direct / "manifest.json").read_bytes()
                == (again / "manifest.json").read_bytes())


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "icsphere", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == cli.__version__
