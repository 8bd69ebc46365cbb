"""Recommender facade: the implicit algorithm and persistence hardening."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import Recommender
from repro.core.implicit import ImplicitConfig, ImplicitModel
from repro.sparse import COOMatrix


@pytest.fixture
def counts(rng) -> COOMatrix:
    dense = np.where(
        rng.random((20, 14)) < 0.3, rng.integers(1, 6, size=(20, 14)), 0
    ).astype(np.float32)
    return COOMatrix.from_dense(dense)


@pytest.fixture
def fitted(counts) -> Recommender:
    return Recommender(k=3, iterations=2, algorithm="implicit", alpha=15.0).fit(
        counts
    )


class TestImplicitAlgorithm:
    def test_fit_produces_implicit_model(self, fitted):
        assert isinstance(fitted.model, ImplicitModel)
        assert isinstance(fitted.config, ImplicitConfig)
        assert fitted.config.alpha == 15.0
        assert all(isinstance(h, float) for h in fitted.model.losses())

    def test_predict_and_recommend_work(self, fitted, counts):
        scores = fitted.predict([0, 1], [2, 3])
        assert scores.shape == (2,)
        recs = fitted.recommend(user=0, n_items=5)
        seen = set(counts.col[counts.row == 0].tolist())
        assert all(item not in seen for item, _ in recs)

    def test_evaluate_ranking_accepts_implicit_model(self, fitted, counts):
        test = COOMatrix((20, 14), [0, 3], [1, 2], [1.0, 1.0])
        metrics = fitted.evaluate_ranking(test, n=5)
        assert metrics.users == 2

    def test_save_load_roundtrip(self, fitted, tmp_path):
        path = tmp_path / "implicit.npz"
        fitted.save(path)
        loaded = Recommender.load(path)
        assert loaded.algorithm == "implicit"
        assert isinstance(loaded.model, ImplicitModel)
        assert loaded.config.alpha == 15.0
        np.testing.assert_array_equal(loaded.model.X, fitted.model.X)
        np.testing.assert_array_equal(loaded.model.Y, fitted.model.Y)
        assert loaded.model.history == fitted.model.history

    def test_loaded_model_serves(self, fitted, tmp_path):
        path = tmp_path / "implicit.npz"
        fitted.save(path)
        loaded = Recommender.load(path)
        np.testing.assert_array_equal(
            loaded.predict([0, 1], [2, 3]), fitted.predict([0, 1], [2, 3])
        )


class TestPersistenceHardening:
    def test_explicit_roundtrip_unchanged(self, counts, tmp_path):
        rec = Recommender(k=3, iterations=2).fit(counts)
        path = tmp_path / "als.npz"
        rec.save(path)
        loaded = Recommender.load(path)
        assert loaded.algorithm == "als"
        np.testing.assert_array_equal(loaded.model.X, rec.model.X)
        assert loaded.model.history[-1].train_rmse == rec.model.history[-1].train_rmse

    def test_missing_keys_is_value_error(self, tmp_path):
        path = tmp_path / "broken.npz"
        np.savez(path, X=np.zeros((2, 3)))
        with pytest.raises(ValueError, match="missing"):
            Recommender.load(path)

    def test_unknown_algorithm_is_value_error(self, tmp_path):
        path = tmp_path / "alien.npz"
        meta = {"algorithm": "svd++", "config": {"k": 3}, "history": []}
        np.savez(
            path, X=np.zeros((2, 3)), Y=np.zeros((4, 3)),
            meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        )
        with pytest.raises(ValueError, match="unknown algorithm"):
            Recommender.load(path)

    def test_factor_shape_mismatch_is_value_error(self, counts, tmp_path):
        rec = Recommender(k=3, iterations=1).fit(counts)
        path = tmp_path / "truncated.npz"
        rec.save(path)
        with np.load(path) as data:
            meta, X, Y = data["meta"], data["X"], data["Y"]
        np.savez(tmp_path / "bad.npz", X=X[:, :2], Y=Y, meta=meta)
        with pytest.raises(ValueError, match="shape"):
            Recommender.load(tmp_path / "bad.npz")
