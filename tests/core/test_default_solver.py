"""Default training solves S3 with LAPACK Cholesky.

A config that names no solver resolves the ``solver`` knob's default,
``"lapack"``: every algorithm's training loop must call the
LAPACK variant, never the from-scratch reference, and still agree with
the reference to 1e-10.  The default path must also stay free of
``scipy.linalg`` (a second OpenBLAS and tens of MB of resident memory).
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core.als import POLICIES, TrainConfig, train
from repro.datasets.catalog import DatasetSpec
from repro.datasets.synthetic import generate_ratings
from repro.obs import metrics as obs_metrics
from repro.obs.spans import capture

_SPEC = DatasetSpec(
    name="default-solver", abbr="DSLV", m=120, n=80, nnz=2400,
    row_alpha=0.9, col_alpha=0.9, rating_min=1.0, rating_max=5.0,
)


@pytest.fixture(autouse=True)
def _no_solver_override(monkeypatch):
    # The shared fixture already clears configured knobs.
    monkeypatch.delenv("REPRO_SOLVER", raising=False)


@pytest.fixture(scope="module")
def ratings():
    return generate_ratings(_SPEC, seed=3)


@pytest.mark.parametrize("algorithm", sorted(POLICIES))
def test_default_train_calls_lapack_only(ratings, algorithm):
    obs_metrics.reset()
    with capture():
        train(ratings, TrainConfig(k=12, iterations=2), algorithm)
    counters = obs_metrics.snapshot()["counters"]
    assert counters.get("solver.lapack.calls", 0) > 0
    assert "solver.cholesky.calls" not in counters


@pytest.mark.parametrize("algorithm", sorted(POLICIES))
def test_default_train_agrees_with_reference(ratings, algorithm):
    default = train(ratings, TrainConfig(k=12, iterations=3), algorithm)
    reference = train(
        ratings, TrainConfig(k=12, iterations=3, solver="cholesky"), algorithm
    )
    np.testing.assert_allclose(default.X, reference.X, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(default.Y, reference.Y, rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(
        default.losses(), reference.losses(), rtol=1e-10, atol=1e-10
    )


def test_default_fit_does_not_import_scipy_linalg():
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    code = (
        "import sys\n"
        "from repro.api import Recommender\n"
        "from repro.datasets.catalog import dataset_by_name\n"
        "from repro.datasets.synthetic import generate_ratings\n"
        "ratings = generate_ratings(dataset_by_name('YMR4').scaled(0.01))\n"
        "Recommender(k=8, iterations=2).fit(ratings)\n"
        "Recommender(k=8, iterations=1, algorithm='implicit').fit(ratings)\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "REPRO_SOLVER"}
    env["PYTHONPATH"] = src
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        timeout=300, env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "False"
