"""Committed benchmark records must be result lines of perfbench/run.py.

Every ``BENCH_*.json`` at the repository root is named
``BENCH_<int>_<workload>.json``, with a workload BENCHMARK.json
declares, and holds one result line, a list of them, or an object whose
values are result lines (for example ``{"parent": ..., "change": ...}``).
Each line must report a correct run and carry the end-to-end metrics
BENCHMARK.json declares, with their units. With no such file the test
passes trivially.
"""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _end_to_end_units() -> dict:
    return {m["name"]: m["unit"] for m in _declared()["end_to_end"]}


def _result_lines(record):
    if isinstance(record, list):
        return record
    if isinstance(record, dict):
        return [record] if "metrics" in record else list(record.values())
    raise AssertionError(f"expected a JSON object or list, got {type(record).__name__}")


def test_records_hold_correct_result_lines():
    units = _end_to_end_units()
    for path in sorted(ROOT.glob("BENCH_*.json")):
        lines = _result_lines(json.loads(path.read_text()))
        assert lines, f"{path.name} holds no result line"
        for line in lines:
            assert isinstance(line, dict), f"{path.name}: {line!r} is not a result line"
            assert line.get("correct") is True, path.name
            metrics = line["metrics"]
            assert set(metrics) == set(units), path.name
            for name, unit in units.items():
                assert metrics[name]["unit"] == unit, (path.name, name)
                assert isinstance(metrics[name]["value"], (int, float)), (path.name, name)


def test_record_names_follow_pattern():
    workloads = {w["name"] for w in _declared()["workloads"]}
    for path in sorted(ROOT.glob("BENCH_*.json")):
        match = re.fullmatch(r"BENCH_([0-9]+)_(.+)\.json", path.name)
        assert match, f"{path.name} is not named BENCH_<int>_<workload>.json"
        assert match.group(2) in workloads, f"{path.name}: unknown workload"
