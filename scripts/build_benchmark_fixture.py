"""Regenerate the bundled benchmark parameter fixture and its checksum.

The ten-asset mean vector and covariance matrix (monthly return scale,
entries quoted in units of 1e-4), the heteroscedastic variant's scale
vector, and the three-asset sub-block. Run from the repo root:

    python3 scripts/build_benchmark_fixture.py
"""

import hashlib
import json
from pathlib import Path

MU10_BP = [4.60, 7.83, 14.78, -16.32, 4.50, 10.26, -3.22, 0.39, -3.99, -4.41]

# Upper triangle by row, including the diagonal.
SIGMA10_UPPER_BP = [
    [3.67, 2.26, 0.98, 0.75, 1.54, 0.72, 0.16, 1.48, -0.05, -0.08],
    [6.60, 0.96, 1.31, 1.57, 1.01, 0.11, 1.16, -0.32, -0.04],
    [5.72, 1.29, 0.97, 1.60, -0.20, 0.41, -0.38, 0.19],
    [4.74, 1.69, 0.96, 0.06, 0.35, 0.41, 0.19],
    [5.11, 0.97, -0.04, 0.72, -0.11, -0.06],
    [11.86, 0.20, 0.01, 0.81, 0.59],
    [1.47, 0.07, 0.50, 0.23],
    [1.32, -0.12, -0.01],
    [6.10, 0.64],
    [3.77],
]

HETERO_SCALE = [1, 1, 1, 1, 1, 3, 1, 1, 1, 1]

SCALE = 1e-4


def full_symmetric(upper_rows):
    n = len(upper_rows)
    full = [[0.0] * n for _ in range(n)]
    for i, row in enumerate(upper_rows):
        for k, val in enumerate(row):
            j = i + k
            full[i][j] = val * SCALE
            full[j][i] = val * SCALE
    return full


def fixture_text() -> str:
    """The bundled fixture's JSON text, byte for byte."""
    sigma10 = full_symmetric(SIGMA10_UPPER_BP)
    mu10 = [v * SCALE for v in MU10_BP]
    payload = {
        "version": 1,
        "description": "Ten-asset Gaussian benchmark parameter set "
                       "(means, covariance, heteroscedastic scale, "
                       "three-asset sub-block)",
        "mu10": mu10,
        "sigma10": sigma10,
        "hetero_scale": [float(s) for s in HETERO_SCALE],
        "mu3": mu10[:3],
        "sigma3": [row[:3] for row in sigma10[:3]],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def main():
    out_dir = Path(__file__).resolve().parent.parent / "src" / "icsphere" / "fixtures"
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / "benchmark_params.json"
    text = fixture_text()
    target.write_text(text)
    digest = hashlib.sha256(text.encode()).hexdigest()
    (out_dir / "benchmark_params.sha256").write_text(digest + "\n")
    print(f"wrote {target} ({digest})")


if __name__ == "__main__":
    main()
