"""Bundled benchmark parameters, checksum-verified at load time."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .errors import MalformedInputError

__all__ = ["BUNDLED_PARAMS_PATH", "load_params"]

_FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"
BUNDLED_PARAMS_PATH = _FIXTURE_DIR / "benchmark_params.json"
_CHECKSUM_PATH = _FIXTURE_DIR / "benchmark_params.sha256"

# The (mean, covariance) keys each selection reads; ten_hetero also
# reads hetero_scale.
_SELECTIONS = {"ten_base": ("mu10", "sigma10"), "ten_hetero": ("mu10", "sigma10"),
               "three": ("mu3", "sigma3")}


def _verify_bundled(text: str) -> None:
    expected = _CHECKSUM_PATH.read_text().strip()
    actual = hashlib.sha256(text.encode()).hexdigest()
    if actual != expected:
        raise MalformedInputError(
            f"bundled parameter fixture failed its checksum "
            f"(expected {expected}, got {actual})"
        )


def load_params(path, which: str) -> tuple[np.ndarray, np.ndarray]:
    """The (mu, cov) pair that selection `which` names in a parameter file.

    With path None, reads the bundled ten-asset benchmark set and
    verifies its sha256 sidecar. which is ten_base (mu10, sigma10),
    ten_hetero (mu10, sigma10 scaled by hetero_scale on both sides) or
    three (mu3, sigma3). A file holding mu or cov is a plain model: it
    needs both, and they override ten_base and three; it has no
    hetero_scale, so ten_hetero rejects it. Only the keys read are
    checked.
    """
    if path == "":
        # Path("") is the working directory; name what the user gave.
        raise MalformedInputError("--params names no file: the path is empty")
    target = BUNDLED_PARAMS_PATH if path is None else Path(path)
    try:
        text = target.read_text()
    except OSError as exc:
        raise MalformedInputError(f"cannot read parameter file {target}: {exc}") from None
    if path is None:
        _verify_bundled(text)
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"parameter file {target} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise MalformedInputError("parameter file must hold a JSON object")

    def array(key: str, ndim: int) -> np.ndarray:
        try:
            value = np.asarray(raw[key])
        except KeyError:
            raise MalformedInputError(
                f"parameter file lacks the key needed for {which}: {key!r}") from None
        except ValueError:  # ragged nesting
            value = np.asarray(None)
        if value.dtype.kind not in "iuf" or value.ndim != ndim:
            raise MalformedInputError(
                f"parameter file key {key!r} is not a {ndim}-d array of numbers")
        return value.astype(np.float64)

    plain = "mu" in raw or "cov" in raw
    if plain and which == "ten_hetero":
        raise MalformedInputError(
            "parameter file is a plain model (mu, cov), but ten_hetero needs "
            "the bundled schema's mu10, sigma10 and hetero_scale")
    mu_key, cov_key = ("mu", "cov") if plain else _SELECTIONS[which]
    mu, cov = array(mu_key, 1), array(cov_key, 2)
    if which == "ten_hetero" and not plain:
        h = array("hetero_scale", 1)
        if cov.shape != h.shape * 2:
            raise MalformedInputError(f"parameter file key 'hetero_scale' has "
                                      f"{h.size} entries for 'sigma10' of shape {cov.shape}")
        cov = cov * np.outer(h, h)
    return mu, cov
