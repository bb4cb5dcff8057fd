"""The scripts keep step with the package: the experiment battery passes
only argv that the CLI accepts, and the fixture script writes the bundled
parameter files byte for byte."""

import hashlib
import importlib.util
import sys
from pathlib import Path

from icsphere import cli, fixtures

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "run_experiments.py"


def test_run_experiments_argv_parse(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("run_experiments", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    recorded = []

    def record(argv):
        recorded.append(argv)
        return 0

    monkeypatch.setattr(script, "icsphere_main", record)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--output-dir", str(tmp_path)])
    assert script.main() == 0
    assert [argv[:2] for argv in recorded] == (
        [["simulate", "ic-pdf"]] * 4
        + [["simulate", "md-perturb"]] * 2
        + [["simulate", "mrl-check"], ["empirical", "--input"], ["oracle", "--suite"]]
    )
    parser = cli._build_parser()
    for argv in recorded:
        args = parser.parse_args(argv)
        assert Path(args.output_dir).parent == tmp_path
    assert (tmp_path / "synthetic_panel.csv").exists()


def test_fixture_script_reproduces_bundled_files():
    path = SCRIPT.parent / "build_benchmark_fixture.py"
    spec = importlib.util.spec_from_file_location("build_benchmark_fixture", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    text = script.fixture_text().encode()
    assert text == fixtures.BUNDLED_PARAMS_PATH.read_bytes()
    sidecar = fixtures.BUNDLED_PARAMS_PATH.with_suffix(".sha256")
    assert hashlib.sha256(text).hexdigest() + "\n" == sidecar.read_text()
