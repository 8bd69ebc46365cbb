"""Training loss read off the normal equations.

After an exact full-width solve of row ``u`` against ``(Y_ΩᵀY_Ω + ρI)``,
its squared error is ``‖r_u‖² − x_u·b_u − ρ‖x_u‖²``; the ALS and ALS-WR
trainers sum that identity over the per-row ``x·b`` the executor returns
instead of re-gathering every rating.  These tests pin the identity
against the gathered reference functions at 1e-12 relative across every
execution layout, check that the paths the identity does not cover
(held-out RMSE, strict subspace blocks, implicit) still gather, and that
``tol`` early stopping is unchanged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.als import ALSConfig, train_als
from repro.core.alswr import train_als_wr
from repro.core.implicit import ImplicitConfig, _weighted_loss, train_implicit_als
from repro.core.loss import SolvedLoss, regularized_loss, rmse, rmse_from_sq
from repro.datasets.catalog import DatasetSpec
from repro.datasets.shardio import build_shard_store
from repro.datasets.splits import train_test_split
from repro.datasets.synthetic import generate_ratings
from repro.parallel import SweepExecutor
from repro.parallel.executor import solve_bytes_per_row
from repro.sparse import COOMatrix, CSRMatrix, ShardStore
from repro.sparse.csc import CSCMatrix

RTOL = 1e-12
K = 24  # wide enough that each orientation streams in several shards
LAM = 0.1

_SPEC = DatasetSpec(
    name="identity", abbr="IDNT", m=900, n=220, nnz=14000,
    row_alpha=0.9, col_alpha=0.9, rating_min=1.0, rating_max=5.0,
)


@pytest.fixture(scope="module")
def coo():
    return generate_ratings(_SPEC, seed=7).deduplicate()


@pytest.fixture(scope="module")
def store(coo, tmp_path_factory):
    root = tmp_path_factory.mktemp("identity")
    build_shard_store(root / "store", coo)
    store = ShardStore.open(root / "store", shard_bytes=1 << 20)
    extra = solve_bytes_per_row(K)
    assert len(store.rows.shards(extra)) > 1 and len(store.cols.shards(extra)) > 1
    return store


def _train(algorithm, ratings, **overrides):
    kw = dict(k=K, lam=LAM, iterations=3, seed=2)
    kw.update(overrides)
    if algorithm == "implicit":
        return train_implicit_als(ratings, ImplicitConfig(alpha=5.0, **kw))
    trainer = train_als if algorithm == "als" else train_als_wr
    return trainer(ratings, ALSConfig(**kw))


def _gathered(algorithm, coo, X, Y):
    """``(loss, train_rmse)`` from the gathered reference functions."""
    if algorithm == "implicit":
        return _weighted_loss(coo, X, Y, LAM, 5.0), None
    lam = LAM if algorithm == "als" else 0.0  # ALS-WR records Σ err² alone
    return regularized_loss(coo, X, Y, lam), rmse(coo, X, Y)


def _last(model):
    h = model.history[-1]
    return h.loss, h.train_rmse


LAYOUTS = ("workers1", "workers2", "store", "memmap", "dk")


def _run_layout(layout, algorithm, coo, store, tmp_path):
    if layout == "workers1":
        return _train(algorithm, coo, workers=1)
    if layout == "workers2":
        return _train(algorithm, coo, workers=2)
    if layout == "store":
        return _train(algorithm, store)
    if layout == "memmap":
        return _train(algorithm, coo, factors="memmap", factors_dir=str(tmp_path))
    return _train(algorithm, coo, block_size=K)


class TestIdentityMatchesGathered:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("algorithm", ("als", "als-wr", "implicit"))
    def test_final_loss_and_rmse(self, algorithm, layout, coo, store, tmp_path):
        model = _run_layout(layout, algorithm, coo, store, tmp_path)
        loss, train_rmse = _last(model)
        ref_loss, ref_rmse = _gathered(
            algorithm, coo, np.asarray(model.X), np.asarray(model.Y)
        )
        assert loss == pytest.approx(ref_loss, rel=RTOL, abs=0)
        if ref_rmse is not None:
            assert train_rmse == pytest.approx(ref_rmse, rel=RTOL, abs=0)

    @pytest.mark.parametrize("algorithm", ("als", "als-wr"))
    def test_every_iteration(self, algorithm, coo):
        """Each iteration's identity loss equals the gathered loss of the
        factors a run stopped at that iteration ends with."""
        full = _train(algorithm, coo, iterations=4)
        for it, stats in enumerate(full.history, start=1):
            prefix = _train(algorithm, coo, iterations=it)
            ref_loss, ref_rmse = _gathered(algorithm, coo, prefix.X, prefix.Y)
            assert stats.loss == pytest.approx(ref_loss, rel=RTOL, abs=0)
            assert stats.train_rmse == pytest.approx(ref_rmse, rel=RTOL, abs=0)

    @pytest.mark.parametrize("algorithm", ("als", "als-wr"))
    def test_workers_bitwise(self, algorithm, coo):
        one = _train(algorithm, coo, workers=1)
        two = _train(algorithm, coo, workers=2)
        assert [h.loss for h in one.history] == [h.loss for h in two.history]
        assert [h.train_rmse for h in one.history] == [
            h.train_rmse for h in two.history
        ]


class TestGatheredPathsRemain:
    def test_validation_rmse_is_gathered(self, coo):
        split = train_test_split(coo, 0.2, seed=1)
        train, test = split.train, split.test
        model = train_als(train, ALSConfig(k=K, lam=LAM, iterations=2, seed=2),
                          validation=test)
        assert model.history[-1].validation_rmse == rmse(test, model.X, model.Y)

    @pytest.mark.parametrize("algorithm", ("als", "als-wr"))
    def test_strict_subspace_blocks_gather(self, algorithm, coo):
        model = _train(algorithm, coo, block_size=K // 2)
        ref_loss, ref_rmse = _gathered(algorithm, coo, model.X, model.Y)
        loss, train_rmse = _last(model)
        assert loss == ref_loss
        assert train_rmse == ref_rmse


class TestEarlyStopping:
    @pytest.mark.parametrize("algorithm", ("als", "als-wr", "implicit"))
    def test_tol_stops_at_the_gathered_iteration(self, algorithm, coo):
        tol, budget = 0.1, 10
        # The stopping rule applied to gathered losses of prefix runs is
        # what the trainer did before the identity replaced them.
        losses = []
        expected = budget
        for it in range(1, budget + 1):
            m = _train(algorithm, coo, iterations=it)
            losses.append(_gathered(algorithm, coo, m.X, m.Y)[0])
            if it >= 2 and (losses[-2] - losses[-1]) / losses[-2] < tol:
                expected = it
                break
        assert expected < budget  # the fixture does stop early
        model = _train(algorithm, coo, iterations=budget, tol=tol)
        assert len(model.history) == expected
        assert _last(model)[0] == pytest.approx(losses[-1], rel=RTOL, abs=0)

    def test_als_wr_applies_tol_and_tracks_validation(self, coo):
        split = train_test_split(coo, test_fraction=0.2, seed=4)
        tol, budget = 0.1, 10
        full = _train("als-wr", split.train, iterations=budget).losses()
        # ALS-WR records Σ err²; the first iteration improving it by less
        # than ``tol`` (relative) is the last one run.
        expected = next(
            it for it in range(2, budget + 1)
            if (full[it - 2] - full[it - 1]) / full[it - 2] < tol
        )
        assert expected < budget  # the fixture does stop early
        model = train_als_wr(
            split.train,
            ALSConfig(k=K, lam=LAM, iterations=budget, seed=2, tol=tol),
            validation=split.test,
        )
        assert model.losses() == full[:expected]
        assert all(s.validation_rmse is not None for s in model.history)
        assert model.history[-1].validation_rmse == rmse(
            split.test, model.X, model.Y
        )


class TestSolvedLoss:
    def test_executor_rhs_dot_is_layout_free(self, coo, store):
        R = CSRMatrix.from_coo(coo)
        R_cols = CSCMatrix.from_csr(R).transpose_as_csr()
        X = np.random.default_rng(3).uniform(-1, 1, (R.nrows, K))
        runs = []
        for workers, view in ((1, R_cols), (2, R_cols), (1, store.cols)):
            xb = np.full(R.ncols, np.nan)
            with SweepExecutor(workers) as ex:
                Y = ex.half_sweep(view, X, LAM, xb_out=xb)
            runs.append((Y, xb))
        for Y, xb in runs[1:]:
            assert np.array_equal(Y, runs[0][0])
            assert np.array_equal(xb, runs[0][1])

    @pytest.mark.parametrize("weighted", (False, True))
    def test_empty_rows_contribute_nothing(self, weighted):
        dense = np.random.default_rng(4).uniform(1, 5, (20, 12))
        dense[np.random.default_rng(5).random(dense.shape) < 0.6] = 0.0
        dense[:, 3] = 0.0  # an item nobody rated
        R = CSRMatrix.from_dense(dense)
        R_cols = CSCMatrix.from_csr(R).transpose_as_csr()
        X = np.random.default_rng(6).uniform(-1, 1, (R.nrows, K))
        Y_prev = np.random.default_rng(7).uniform(-1, 1, (R.ncols, K))
        solved = SolvedLoss(R_cols, LAM, weighted=weighted)
        with SweepExecutor(1) as ex:
            Y = ex.half_sweep(
                R_cols, X, LAM, X_prev=Y_prev, weighted=weighted,
                xb_out=solved.xb,
            )
        assert np.array_equal(Y[3], Y_prev[3])  # kept, not solved
        sq = regularized_loss(R.to_coo(), X, Y, 0.0)
        assert solved.sq_error(Y) == pytest.approx(sq, rel=RTOL, abs=0)

    def test_rmse_clamps_rounding_below_zero(self):
        assert rmse_from_sq(-1e-18, 3) == 0.0
        assert rmse_from_sq(3.0, 3) == pytest.approx(1.0)
        assert rmse_from_sq(0.0, 0) == 0.0

    def test_empty_matrix(self):
        R = CSRMatrix.from_coo(COOMatrix((4, 3), [], [], []))
        assert SolvedLoss(R, LAM).sq_error(np.ones((4, K))) == 0.0
