"""Bundled benchmark parameters, checksum-verified at load time."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import MalformedInputError

__all__ = ["BUNDLED_PARAMS_PATH", "load_params", "model_params"]

_FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"
BUNDLED_PARAMS_PATH = _FIXTURE_DIR / "benchmark_params.json"
_CHECKSUM_PATH = _FIXTURE_DIR / "benchmark_params.sha256"


def _verify_bundled(text: str) -> None:
    expected = _CHECKSUM_PATH.read_text().strip()
    actual = hashlib.sha256(text.encode()).hexdigest()
    if actual != expected:
        raise MalformedInputError(
            f"bundled parameter fixture failed its checksum "
            f"(expected {expected}, got {actual})"
        )


def load_params(path=None) -> dict:
    """Parse a parameter file into numpy arrays.

    With no path, loads the bundled ten-asset benchmark set and verifies
    its sha256 sidecar. User files may either follow the bundled schema
    or provide just {"mu": [...], "cov": [[...]]}.
    """
    bundled = path is None
    if path == "":
        # Path("") is the working directory; name what the user gave.
        raise MalformedInputError("--params names no file: the path is empty")
    target = BUNDLED_PARAMS_PATH if bundled else Path(path)
    try:
        text = target.read_text()
    except OSError as exc:
        raise MalformedInputError(f"cannot read parameter file {target}: {exc}") from None
    if bundled:
        _verify_bundled(text)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"parameter file {target} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise MalformedInputError("parameter file must hold a JSON object")

    out: dict = {"source": str(target), "version": raw.get("version")}
    array_keys = ("mu10", "sigma10", "hetero_scale", "mu3", "sigma3", "mu", "cov")
    for key in array_keys:
        if key in raw:
            out[key] = np.asarray(raw[key], dtype=np.float64)
    if "sigma10" in out and "hetero_scale" in out:
        h = out["hetero_scale"]
        out["sigma10_hetero"] = out["sigma10"] * np.outer(h, h)
    return out


def model_params(params: dict, which: str) -> tuple[np.ndarray, np.ndarray]:
    """Pick a (mu, cov) pair out of a loaded parameter dict.

    which is one of ten_base, ten_hetero, three. A user file carrying
    plain mu/cov overrides the named selection.
    """
    if "mu" in params and "cov" in params:
        return params["mu"], params["cov"]
    try:
        if which == "ten_base":
            return params["mu10"], params["sigma10"]
        if which == "ten_hetero":
            return params["mu10"], params["sigma10_hetero"]
        if which == "three":
            return params["mu3"], params["sigma3"]
    except KeyError as exc:
        raise MalformedInputError(
            f"parameter file lacks the key needed for {which}: {exc}"
        ) from None
    raise MalformedInputError(f"unknown parameter selection {which!r}")
