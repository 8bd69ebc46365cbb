"""Tests for the empirical S3 solver selector (§III-D applied to S3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autotune.choice import Decision, bucket, clear_decisions, decisions
from repro.autotune.solver import MAX_PROBE_BATCH, measure_solvers, select_solver
from repro.kernels.fastpath import fast_half_sweep
from repro.linalg.solvers import SOLVERS
from repro.obs import metrics as obs_metrics
from repro.obs.spans import capture
from tests.conftest import random_rating_matrix


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_decisions()
    yield
    clear_decisions()


class TestBatchBucket:
    def test_powers_of_two(self):
        assert bucket(0) == 1
        assert bucket(1) == 1
        assert bucket(2) == 2
        assert bucket(3) == 4
        assert bucket(1000) == 1024
        assert bucket(1024) == 1024
        assert bucket(1025) == 2048

    def test_neighbors_share_a_bucket(self):
        assert bucket(700) == bucket(900)


class TestMeasure:
    def test_times_every_registered_variant(self):
        decision = measure_solvers(k=4, batch=16, repeats=1)
        assert set(decision.seconds) == set(SOLVERS)
        assert all(s > 0 for s in decision.seconds.values())

    def test_winner_is_the_fastest(self):
        decision = measure_solvers(k=4, batch=16, repeats=1)
        assert decision.choice == min(decision.seconds, key=decision.seconds.get)
        assert decision.speedup >= 1.0

    def test_probe_batch_capped(self):
        decision = measure_solvers(k=2, batch=100_000, repeats=1)
        assert decision.detail["probe_batch"] == MAX_PROBE_BATCH
        assert decision.key == (2, bucket(100_000))

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            measure_solvers(k=0, batch=4)
        with pytest.raises(ValueError):
            measure_solvers(k=4, batch=0)
        with pytest.raises(ValueError):
            measure_solvers(k=4, batch=4, repeats=0)


class TestSelect:
    def test_returns_a_registered_name(self):
        assert select_solver(k=4, batch=32) in SOLVERS

    def test_verdict_cached_per_context(self):
        select_solver(k=4, batch=33)
        assert len(decisions()) == 1
        select_solver(k=4, batch=40)  # same bucket (64): no re-measure
        assert len(decisions()) == 1
        select_solver(k=4, batch=200)  # new bucket
        select_solver(k=5, batch=33)  # new k
        assert len(decisions()) == 3

    def test_cached_decisions_are_decisions(self):
        select_solver(k=4, batch=32)
        (decision,) = decisions()
        assert isinstance(decision, Decision)
        assert decision.kind == "solver"
        assert decision.key == (4, 32)  # 32 is already a power of two

    def test_clear_cache(self):
        select_solver(k=4, batch=32)
        clear_decisions()
        assert decisions() == ()

    def test_measurements_counted(self):
        obs_metrics.reset()
        with capture():
            select_solver(k=4, batch=32)
            select_solver(k=4, batch=32)  # cache hit: not re-counted
        counters = obs_metrics.snapshot()["counters"]
        assert counters["solver.auto.measurements"] == 1.0
        chose = [c for c in counters if c.startswith("solver.auto.chose_")]
        assert len(chose) == 1 and counters[chose[0]] == 1.0


class TestAutoInTheSweep:
    def test_auto_solver_end_to_end(self, rng):
        R = random_rating_matrix(rng, m=20, n=15, density=0.4)
        Y = rng.standard_normal((R.ncols, 4))
        X_auto = fast_half_sweep(R, Y, 0.1, solver="auto")
        X_ref = fast_half_sweep(R, Y, 0.1, solver="cholesky")
        np.testing.assert_allclose(X_auto, X_ref, rtol=1e-9, atol=1e-9)
        assert len(decisions("solver")) == 1
