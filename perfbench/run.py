"""icsphere benchmark: four CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload mc_mrl --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from a source checkout: the library is imported from ``src/``,
nothing needs installing. ``--workload all`` runs every workload, each
in a fresh process, one after another.

Load shape: a closed loop with one client. Each op calls
``icsphere.cli.main(argv)`` in-process and starts when the previous op
returns. Inputs come from ``--seed``, which is also the MC seed passed
as ``--seed``. One untimed warm-up op runs first; timed ops then run
until ``--seconds`` have passed. Every op's outputs are checked against
references built without icsphere code, and its manifest hashes must
equal the warm-up op's.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced ops (see spans.py) and reports per-layer self times
and exact counts, as per-op medians over the traced ops.

Timing uses this process's own timers (``time.perf_counter``) and
``getrusage`` only: no system-wide tracing, no cache dropping, and no
kernel or cgroup changes. The machine record is read-only.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric
names and units are the ones BENCHMARK.json declares. README.md has
the workloads, metrics and checks in full.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import spans
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 9
SETUP_PROBE = ("import time; t = time.perf_counter(); import icsphere.cli; "
               "print(time.perf_counter() - t)")
TIMING_NOTE = ("in-process timers only (perf_counter, getrusage): no system-wide "
               "tracing, no cache dropping, no kernel or cgroup changes")


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine_record() -> dict:
    model = None
    cpuinfo = _read("/proc/cpuinfo") or ""
    for line in cpuinfo.splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    quota = _read("/sys/fs/cgroup/cpu.max")
    if quota is None:
        v1 = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        quota = None if v1 is None else f"{v1} {period}"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cgroup_cpu_quota": quota,
        "timing": TIMING_NOTE,
    }


def setup_times() -> list[float]:
    """Wall time of ``import icsphere.cli`` in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(SETUP_SAMPLES):
        child = subprocess.run([sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=env,
                               capture_output=True, text=True, timeout=60, check=True)
        out.append(float(child.stdout.strip().splitlines()[-1]))
    return out


class Runner:
    """Runs ops of one workload and keeps the tally of failures."""

    def __init__(self, cli, workload, workdir: Path, seed: int, threads: int):
        self.cli = cli
        self.workload = workload
        self.workdir = workdir
        self.seed = seed
        self.threads = threads
        self.hashes = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.last_bytes = 0

    def op(self, threads: int | None = None, tracer=None, sites=None) -> tuple[float, bool]:
        outdir = self.workdir / "out"
        shutil.rmtree(outdir, ignore_errors=True)
        argv = self.workload.argv(outdir, self.seed, threads or self.threads)
        sink = io.StringIO()
        scope = spans.traced(tracer, sites) if tracer else contextlib.nullcontext()
        crash = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), scope:
            t0 = time.perf_counter()
            root = tracer.open("cli.main") if tracer else None
            try:
                code = self.cli.main(argv)
            except Exception:  # a crash is a failed op, not a failed benchmark
                code, crash = None, traceback.format_exc()
            finally:
                if tracer:
                    tracer.close(root)
            elapsed = time.perf_counter() - t0
        problems = self._evaluate(outdir, code) if crash is None else [crash]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"op {self.attempted} ({' '.join(argv)}): "
                                 + "; ".join(problems) + "\n" + sink.getvalue()[-2000:])
        return elapsed, not problems

    def _evaluate(self, outdir: Path, code) -> list[str]:
        if code != 0:
            return [f"exit code {code}"]
        try:
            problems = self.workload.check(outdir)
            manifest = json.loads((outdir / "manifest.json").read_text())
            hashes = manifest["artifacts"]
        except (OSError, KeyError, ValueError, IndexError) as exc:
            return [f"unreadable output: {exc!r}"]
        self.last_bytes = sum(p.stat().st_size for p in outdir.iterdir())
        if self.hashes is None:
            self.hashes = hashes
        elif hashes != self.hashes:
            problems.append("artifact hashes differ from the first op")
        return problems


def _timed_loop(seconds: float, step) -> None:
    start = time.perf_counter()
    step()
    while time.perf_counter() - start < seconds:
        step()


def run_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setup = setup_times()
    runner.op()  # warm-up
    times: list[float] = []
    ok: list[bool] = []

    def step():
        elapsed, good = runner.op()
        times.append(elapsed)
        ok.append(good)

    _timed_loop(seconds, step)
    done = sum(ok)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(times),
        "work_per_s": done * runner.workload.items / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_ratio": 1.0 - runner.failed / runner.attempted,
    }
    samples = {"setup_s": len(setup), "op_p50_s": len(times),
               "work_per_s": len(times), "peak_rss_mb": 1,
               "ok_ops_ratio": runner.attempted}
    return metrics, samples


def run_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    sites = spans.find_sites()
    runner.op()  # warm-up, untraced
    plain: list[float] = []
    two: list[float] = []
    traced: list[float] = []
    layers: list[dict] = []
    problems = runner.problems
    check_2t = runner.workload.name == "mc_mrl" and len(os.sched_getaffinity(0)) >= 2

    def step():
        problems.extend(spans.unwrapped_problems(sites))
        plain.append(runner.op()[0])
        tracer = spans.Tracer()
        traced.append(runner.op(tracer=tracer, sites=sites)[0])
        problems.extend(spans.unwrapped_problems(sites))
        if any(s < 0.0 for s in tracer.self_times()):
            problems.append("negative self time")
        layer = spans.layer_metrics(tracer)
        layer["cli.artifact_bytes"] = runner.last_bytes
        layers.append(layer)
        if check_2t:
            # Same hashes at two threads: Runner compares with the first op.
            two.append(runner.op(threads=2)[0])

    _timed_loop(seconds, step)
    if len(layers) < 2:
        step()
    for name in spans.COUNT_METRICS:
        if len({layer[name] for layer in layers}) != 1:
            problems.append(f"count {name} differs between traced ops")
    metrics = {name: statistics.median(layer[name] for layer in layers)
               for name in layers[0]}
    metrics["montecarlo.speedup_2t"] = (statistics.median(plain) / statistics.median(two)
                                        if two else 0.0)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain) - 1
    samples = {name: len(layers) for name in metrics}
    samples["montecarlo.speedup_2t"] = len(two)
    return metrics, samples


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "icsphere" / "cli.py").is_file():
        sys.stderr.write(f"no icsphere sources under {SRC}; run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("icsphere.cli")
    if Path(cli.__file__).resolve().parent != SRC / "icsphere":
        sys.stderr.write(f"imported icsphere from {cli.__file__}, not {SRC}\n")
        return 2

    workload = WORKLOADS[name]
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload.prepare(ROOT, workdir, seed)
        threads = 1 if name == "mc_mrl" else min(2, len(os.sched_getaffinity(0)))
        runner = Runner(cli, workload, workdir, seed, threads)
        run = run_traced if trace else run_end_to_end
        metrics, samples = run(runner, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if trace else "end_to_end"]}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    print("# machine " + json.dumps(machine_record()))
    print(f"# workload {name} seed {seed} trace {int(trace)}: "
          f"{runner.attempted} ops incl. 1 warm-up, {runner.failed} failed")
    for problem in runner.problems[:5]:
        print("# FAIL " + problem.replace("\n", "\n#   "))
    if len(runner.problems) > 5:
        print(f"# ... and {len(runner.problems) - 5} more failures")
    print(f"# {'metric':34} {'value':>16} {'unit':8} samples")
    for key in sorted(metrics):
        print(f"# {key:34} {metrics[key]:16.6g} {units[key]:8} {samples[key]}")
    if not trace:
        print(f"# {'failed_ops_ratio':34} {runner.failed / runner.attempted:16.6g} "
              f"{'ratio':8} {runner.attempted}")
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own fresh process, one at a time."""
    status = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
