"""Spans around the public functions of each icsphere layer.

The library has no tracing of its own, so the traced run replaces each
layer's public function, at every module attribute it is reached
through, with a wrapper that records a span, and puts the originals
back when the op returns. Untraced ops run the library unchanged:
``unwrapped_problems`` confirms that by identity.

A span's self time is its duration minus the part of its interval that
its child spans cover. Spans opened on a shard worker thread with no
open span of their own are children of the innermost span open on the
thread that started the tracer, which is the sampler call that fanned
the shards out.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    info: dict = field(default_factory=dict)


class Tracer:
    """Collects spans in memory; one instance per traced op."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        span = Span(name, time.perf_counter(), parent)
        with self._lock:  # shard threads open spans concurrently
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack().pop()

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append((span.start, span.end))
        out = []
        for i, span in enumerate(self.spans):
            covered = 0.0
            cursor = span.start
            for lo, hi in sorted(children.get(i, ())):
                lo, hi = max(lo, cursor), min(hi, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append((span.end - span.start) - covered)
        return out


def _rows_info(args, kwargs, result) -> dict:
    units, kept = result
    return {"rows_in": int(kept.shape[0]),
            "rows_dropped": int(kept.shape[0] - units.shape[0])}


def _eigen_info(args, kwargs, result) -> dict:
    n = int(result[0].shape[0])
    return {"n3": n ** 3}


def _kde_info(args, kwargs, result) -> dict:
    return {"values": int(len(args[0]))}


def _panel_info(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# (module, attribute path, span name, counts taken from the call).
# Attributes are found by identity in every icsphere module, so a
# function imported by name into another module is wrapped there too.
TARGETS = [
    ("icsphere.montecarlo", "estimate_chi_mrl", "montecarlo.sampler", None),
    ("icsphere.montecarlo", "ic_distribution", "montecarlo.sampler", None),
    ("icsphere.montecarlo", "projected_moments_mc", "montecarlo.sampler", None),
    ("icsphere.montecarlo", "kde", "montecarlo.kde", _kde_info),
    ("icsphere.sphere", "standardize_rows", "sphere.standardize_rows", _rows_info),
    ("icsphere.optimize", "symmetric_eigen", "optimize.symmetric_eigen", _eigen_info),
    ("icsphere.specfun", "kummer_m", "specfun.kummer_m", None),
    ("icsphere.fixtures", "load_params", "fixtures.load_params", None),
    ("icsphere.empirical", "load_panel", "empirical.load_panel", _panel_info),
    ("icsphere.empirical", "standardize_panel", "empirical.standardize_panel", None),
    ("icsphere.empirical", "window_report", "empirical.window", None),
    ("icsphere.empirical", "StandardizedPanel.restrict", "empirical.window", None),
    ("icsphere.empirical", "rolling_mrl_cssd", "empirical.rolling", None),
    ("icsphere.empirical", "correlation_summary", "empirical.correlation", None),
]


@dataclass(frozen=True)
class Site:
    """One place a target function is reached through."""

    owner: object
    key: str
    original: object
    span: str
    info_fn: object


def find_sites() -> list[Site]:
    """Every module or class attribute that holds a target function.

    Call it before any wrapping, so ``original`` is the library's own.
    """
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "icsphere" or n.startswith("icsphere."))]
    sites = []
    for module, path, span, info_fn in TARGETS:
        *outer, attr = path.split(".")
        holder = sys.modules[module]
        for part in outer:
            holder = getattr(holder, part)
        original = vars(holder)[attr]
        for owner in ([holder] if outer else modules):
            for key, value in list(vars(owner).items()):
                if value is original:
                    sites.append(Site(owner, key, original, span, info_fn))
    return sites


def unwrapped_problems(sites: list[Site]) -> list[str]:
    """Names of sites that do not hold the library's own function."""
    return [f"{getattr(s.owner, '__name__', s.owner)}.{s.key} is not the original"
            for s in sites if vars(s.owner)[s.key] is not s.original]


def _wrap(tracer: Tracer, site: Site):
    fn, name, info_fn = site.original, site.span, site.info_fn

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if info_fn is not None:
            tracer.spans[index].info = info_fn(args, kwargs, result)
        return result
    return wrapper


@contextmanager
def traced(tracer: Tracer, sites: list[Site]):
    """Wrap every site for the duration of the block, then restore it."""
    wrappers = {}
    try:
        for site in sites:
            if id(site.original) not in wrappers:
                wrappers[id(site.original)] = _wrap(tracer, site)
            setattr(site.owner, site.key, wrappers[id(site.original)])
        yield
    finally:
        for site in sites:
            setattr(site.owner, site.key, site.original)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times (s) and exact counts for one traced op.

    The op's root span is named ``cli.main``; its self time is what the
    CLI does between calls into the layers.
    """
    selfs = tracer.self_times()
    time_of: dict[str, float] = {}
    calls: dict[str, int] = {}
    info: dict[str, int] = {}
    for span, own in zip(tracer.spans, selfs):
        time_of[span.name] = time_of.get(span.name, 0.0) + own
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.info.items():
            k = f"{span.name}.{key}"
            info[k] = info.get(k, 0) + value
    load_s = sum(s.end - s.start for s in tracer.spans
                 if s.name == "empirical.load_panel")
    load_mb = info.get("empirical.load_panel.bytes", 0) / 1e6
    return {
        "montecarlo.sampler_self_s": time_of.get("montecarlo.sampler", 0.0),
        "montecarlo.kde_s": time_of.get("montecarlo.kde", 0.0),
        "montecarlo.kde_values": info.get("montecarlo.kde.values", 0),
        "sphere.standardize_rows_s": time_of.get("sphere.standardize_rows", 0.0),
        "sphere.rows_in": info.get("sphere.standardize_rows.rows_in", 0),
        "sphere.rows_dropped": info.get("sphere.standardize_rows.rows_dropped", 0),
        "optimize.symmetric_eigen_s": time_of.get("optimize.symmetric_eigen", 0.0),
        "optimize.symmetric_eigen_calls": calls.get("optimize.symmetric_eigen", 0),
        "optimize.symmetric_eigen_n3": info.get("optimize.symmetric_eigen.n3", 0),
        "cli.self_s": time_of.get("cli.main", 0.0),
        "empirical.load_panel_s": time_of.get("empirical.load_panel", 0.0),
        "empirical.load_panel_mb_per_s": load_mb / load_s if load_s > 0 else 0.0,
        "empirical.window_self_s": time_of.get("empirical.window", 0.0),
        "empirical.rolling_s": time_of.get("empirical.rolling", 0.0),
        "empirical.correlation_s": time_of.get("empirical.correlation", 0.0),
        "empirical.standardize_panel_s": time_of.get("empirical.standardize_panel", 0.0),
        "specfun.kummer_m_s": time_of.get("specfun.kummer_m", 0.0),
        "specfun.kummer_m_calls": calls.get("specfun.kummer_m", 0),
        "fixtures.load_params_s": time_of.get("fixtures.load_params", 0.0),
    }


COUNT_METRICS = ("montecarlo.kde_values", "sphere.rows_in", "sphere.rows_dropped",
                 "optimize.symmetric_eigen_calls", "optimize.symmetric_eigen_n3",
                 "specfun.kummer_m_calls")
