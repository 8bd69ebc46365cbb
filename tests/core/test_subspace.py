"""Tests for iALS++ subspace block coordinate descent.

The tentpole guarantees: ``block_size == k`` reproduces the historical
full sweep *bitwise* for all three trainers, d < k reaches the full-k
loss at a lower arithmetic cost, and the blocked path is insensitive to
parallelism and to the out-of-core input representation.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.als import ALSConfig, ALSModel, IterationStats, train_als
from repro.core.alswr import train_als_wr
from repro.core.implicit import ImplicitConfig, ImplicitModel, train_implicit_als
from repro.core.subspace import (
    BLOCK_SCHEDULES,
    make_blocks,
    pass_cost,
    resolve_block_size,
    validate_block_size,
)
from repro.linalg.normal_equations import GramCache, complement_predictions
from repro.sparse import CSRMatrix

K = 8


@pytest.fixture(scope="module")
def ratings():
    """Non-negative ratings so the same fixture feeds all three trainers."""
    gen = np.random.default_rng(11)
    dense = np.where(
        gen.random((60, 45)) < 0.3,
        gen.integers(1, 6, size=(60, 45)).astype(np.float64),
        0.0,
    )
    return CSRMatrix.from_dense(dense).to_coo()


def _train(algorithm, ratings, **overrides):
    kw = dict(k=K, lam=0.1, iterations=3, seed=3)
    kw.update(overrides)
    if algorithm == "implicit":
        return train_implicit_als(ratings, ImplicitConfig(alpha=10.0, **kw))
    trainer = train_als if algorithm == "als" else train_als_wr
    return trainer(ratings, ALSConfig(**kw))


class TestBlockPlumbing:
    def test_make_blocks_covers_k(self):
        assert make_blocks(8, 3) == ((0, 3), (3, 6), (6, 8))
        assert make_blocks(8, 8) == ((0, 8),)
        with pytest.raises(ValueError):
            make_blocks(8, 16)  # resolve_block_size clamps before this

    def test_validate_block_size(self):
        validate_block_size(None)
        validate_block_size("auto")
        validate_block_size(4)
        with pytest.raises(ValueError):
            validate_block_size(0)
        with pytest.raises(ValueError):
            validate_block_size("fast")
        with pytest.raises(ValueError):
            validate_block_size(True)

    def test_resolve_clamps_to_k(self):
        assert resolve_block_size(None, 8) is None
        assert resolve_block_size(16, 8) == 8
        assert resolve_block_size(4, 8) == 4

    def test_pass_cost_smaller_blocks_cheaper_solve(self):
        # Same assembly-side nnz work order, but a d=4 pass solves
        # 2 systems of size 4 instead of 1 of size 8.
        full = pass_cost(8, 8, nnz=1000, rows=100)
        blocked = pass_cost(8, 4, nnz=1000, rows=100)
        assert blocked != full
        assert pass_cost(64, 16, nnz=10**5, rows=10**3) < pass_cost(
            64, 64, nnz=10**5, rows=10**3
        )

    def test_config_rejects_bad_blocks(self):
        with pytest.raises(ValueError):
            ALSConfig(k=4, block_size=0)
        with pytest.raises(ValueError):
            ALSConfig(k=4, block_schedule="zigzag")
        with pytest.raises(ValueError):
            ImplicitConfig(k=4, block_size="turbo")


class TestFullWidthReduction:
    """``block_size == k`` is the historical full sweep, bit for bit."""

    @pytest.mark.parametrize("algorithm", ("als", "als-wr", "implicit"))
    @pytest.mark.parametrize("schedule", BLOCK_SCHEDULES)
    def test_dk_bitwise_equal(self, ratings, algorithm, schedule):
        base = _train(algorithm, ratings)
        blocked = _train(
            algorithm, ratings, block_size=K, block_schedule=schedule
        )
        assert np.array_equal(np.asarray(base.X), np.asarray(blocked.X))
        assert np.array_equal(np.asarray(base.Y), np.asarray(blocked.Y))

    @pytest.mark.parametrize("algorithm", ("als", "implicit"))
    def test_dk_loss_history_equal(self, ratings, algorithm):
        base = _train(algorithm, ratings)
        blocked = _train(algorithm, ratings, block_size=K)
        assert base.losses() == blocked.losses()


class TestSubspaceConvergence:
    @pytest.mark.parametrize("algorithm", ("als", "als-wr", "implicit"))
    def test_reaches_full_k_loss_at_lower_cost(self, ratings, algorithm):
        iterations = 6
        base = _train(algorithm, ratings, iterations=iterations)
        sub = _train(
            algorithm, ratings, iterations=2 * iterations, block_size=K // 4
        )
        losses = sub.losses()
        target = base.losses()[-1]
        bar = target + abs(target) * 1e-6
        reached = [i for i, loss in enumerate(losses) if loss <= bar]
        assert reached, f"subspace never reached full-k loss {target}"
        # Arithmetic-cost proxy for wall time: the passes spent getting
        # there must undercut the full-k passes.
        nnz, rows = ratings.nnz, 60
        spent = (reached[0] + 1) * pass_cost(K, K // 4, nnz=nnz, rows=rows)
        full = iterations * pass_cost(K, K, nnz=nnz, rows=rows)
        assert spent < full

    def test_parallel_matches_serial_bitwise(self, ratings):
        serial = _train("als", ratings, block_size=3)
        threaded = _train("als", ratings, block_size=3, workers=3)
        assert np.array_equal(np.asarray(serial.X), np.asarray(threaded.X))
        assert np.array_equal(np.asarray(serial.Y), np.asarray(threaded.Y))

    @pytest.mark.parametrize("algorithm", ("als", "implicit"))
    def test_shard_store_matches_in_ram_bitwise(
        self, ratings, algorithm, tmp_path
    ):
        from repro.datasets.shardio import build_shard_store
        from repro.sparse.shards import ShardStore

        build_shard_store(tmp_path / "store", ratings)
        store = ShardStore.open(tmp_path / "store", shard_bytes=1 << 20)
        ram = _train(algorithm, ratings, block_size=3)
        ooc = _train(algorithm, store, block_size=3)
        assert np.array_equal(np.asarray(ram.X), np.asarray(ooc.X))
        assert np.array_equal(np.asarray(ram.Y), np.asarray(ooc.Y))


class TestBuildingBlocks:
    def test_complement_predictions_matches_dense(self, rng):
        dense = np.where(rng.random((12, 9)) < 0.4, rng.random((12, 9)), 0.0)
        R = CSRMatrix.from_dense(dense)
        X = rng.standard_normal((12, 6))
        Y = rng.standard_normal((9, 6))
        got = complement_predictions(R, X, Y, 2, 4)
        rows = R.expanded_rows()
        expect = np.einsum(
            "ej,ej->e", X[rows][:, [0, 1, 4, 5]], Y[R.col_idx][:, [0, 1, 4, 5]]
        )
        np.testing.assert_allclose(got, expect, rtol=1e-12)

    def test_complement_full_block_is_zero(self, rng):
        dense = np.where(rng.random((6, 5)) < 0.5, rng.random((6, 5)), 0.0)
        R = CSRMatrix.from_dense(dense)
        X = rng.standard_normal((6, 4))
        Y = rng.standard_normal((5, 4))
        assert np.all(complement_predictions(R, X, Y, 0, 4) == 0.0)

    def test_gram_cache_block_update_tracks_fresh_recompute(self, rng):
        F = rng.standard_normal((20, 8))
        cache = GramCache(F)
        F[:, 2:5] = rng.standard_normal((20, 3))
        cache.update_block(F, 2, 5)
        np.testing.assert_allclose(
            cache.matrix, GramCache(F).matrix, rtol=1e-12, atol=1e-12
        )

    def test_gram_cache_full_width_update_is_exact(self, rng):
        F = rng.standard_normal((10, 4))
        cache = GramCache(F)
        F[:] = rng.standard_normal((10, 4))
        cache.update_block(F, 0, 4)
        assert np.array_equal(cache.matrix, GramCache(F).matrix)


class TestElapsedSeconds:
    @pytest.mark.parametrize("algorithm", ("als", "als-wr"))
    def test_monotone_cumulative(self, ratings, algorithm):
        model = _train(algorithm, ratings, iterations=4)
        elapsed = [s.elapsed_seconds for s in model.history]
        assert all(e > 0 for e in elapsed)
        assert elapsed == sorted(elapsed)

    def test_implicit_stats_monotone(self, ratings):
        model = _train("implicit", ratings, iterations=4)
        assert isinstance(model.history[0], IterationStats)
        elapsed = [s.elapsed_seconds for s in model.history]
        assert len(model.history) == 4
        assert all(s.train_rmse is None for s in model.history)
        assert all(e > 0 for e in elapsed)
        assert elapsed == sorted(elapsed)

    def test_old_checkpoints_default_to_zero(self):
        stats = IterationStats(iteration=0, loss=1.0, train_rmse=0.5)
        assert stats.elapsed_seconds == 0.0

    @pytest.mark.parametrize("algorithm", ("als", "implicit"))
    def test_roundtrips_through_save_load(self, ratings, algorithm, tmp_path):
        from repro.api import Recommender

        rec = Recommender(
            k=4, iterations=3, seed=5, algorithm=algorithm, alpha=10.0
        ).fit(ratings)
        rec.save(tmp_path / "model")
        loaded = Recommender.load(tmp_path / "model")
        saved = [s.elapsed_seconds for s in rec.model.history]
        back = [s.elapsed_seconds for s in loaded.model.history]
        assert back == saved
        assert saved == sorted(saved)


class TestImplicitLossControls:
    def test_validation(self):
        with pytest.raises(ValueError):
            ImplicitConfig(k=4, tol=-1.0)
        with pytest.raises(ValueError):
            ImplicitConfig(k=4, tol=1e-3, track_loss=False)
        ImplicitConfig(k=4, tol=1e-3)  # fine with tracking on

    def test_track_loss_off_skips_history(self, ratings):
        model = _train("implicit", ratings, track_loss=False)
        assert model.history == []
        assert np.all(np.isfinite(model.X))

    def test_tol_early_stops(self, ratings):
        lax = _train("implicit", ratings, iterations=30, tol=0.5)
        assert len(lax.history) < 30
        # The tight-tol run keeps going at least as long.
        tight = _train("implicit", ratings, iterations=30, tol=1e-12)
        assert len(tight.history) >= len(lax.history)
