"""Checkpoints written before the trainers shared one config and model.

Until then ``Recommender.save`` wrote two formats: explicit models
stored an ``ALSConfig`` (no ``alpha``) and a history of per-iteration
stats dicts; implicit models stored an ``ImplicitConfig`` (no
``cholesky``), their weighted loss as a float ``history`` and the
structured entries under ``stats``.  Both must still load into a
:class:`FactorModel` whose history is :class:`IterationStats`.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.api import Recommender
from repro.core import FactorModel, IterationStats, TrainConfig

ALS_META = {
    "algorithm": "als",
    "config": {
        "k": 2, "lam": 0.1, "iterations": 2, "tol": 0.0, "seed": 0,
        "cholesky": True, "init_scale": 0.1, "track_loss": True,
        "assembly": None, "tile_nnz": None, "assembly_dtype": None,
        "solver": None, "workers": None, "factors": "ram",
        "factors_dir": None, "block_size": None, "block_schedule": "paired",
    },
    "history": [
        {"iteration": 1, "loss": 59.746996988879175,
         "train_rmse": 1.7696685039782263, "validation_rmse": None,
         "elapsed_seconds": 0.0011270910035818815},
        {"iteration": 2, "loss": 27.736616102487393,
         "train_rmse": 1.13187226241347, "validation_rmse": None,
         "elapsed_seconds": 0.0017535310034872964},
    ],
}

IMPLICIT_META = {
    "algorithm": "implicit",
    "config": {
        "k": 2, "lam": 0.1, "alpha": 3.0, "iterations": 2, "tol": 0.0,
        "track_loss": True, "seed": 0, "init_scale": 0.1, "assembly": None,
        "tile_nnz": None, "assembly_dtype": None, "solver": None,
        "workers": None, "factors": "ram", "factors_dir": None,
        "block_size": None, "block_schedule": "paired",
    },
    "history": [92.8216279187155, 17.454543058775663],
    "stats": [
        {"iteration": 1, "loss": 92.8216279187155, "train_rmse": None,
         "validation_rmse": None, "elapsed_seconds": 0.0010993849937221967},
        {"iteration": 2, "loss": 17.454543058775663, "train_rmse": None,
         "validation_rmse": None, "elapsed_seconds": 0.001801811988116242},
    ],
}


def _write(directory, meta):
    directory.mkdir()
    rng = np.random.default_rng(0)
    np.save(directory / "X.npy", rng.standard_normal((6, 2)))
    np.save(directory / "Y.npy", rng.standard_normal((5, 2)))
    (directory / "meta.json").write_text(json.dumps(meta))
    return directory


def _stats(meta):
    return meta.get("stats", meta["history"])


@pytest.mark.parametrize("meta", (ALS_META, IMPLICIT_META), ids=("als", "implicit"))
def test_old_checkpoint_loads_into_factor_model(tmp_path, meta):
    rec = Recommender.load(_write(tmp_path / "model", meta))
    assert rec.algorithm == meta["algorithm"]
    model = rec.model
    assert isinstance(model, FactorModel)
    assert all(isinstance(s, IterationStats) for s in model.history)
    assert model.losses() == [s["loss"] for s in _stats(meta)]
    assert [s.elapsed_seconds for s in model.history] == [
        s["elapsed_seconds"] for s in _stats(meta)
    ]
    assert [s.train_rmse for s in model.history] == [
        s["train_rmse"] for s in _stats(meta)
    ]
    for name, value in meta["config"].items():
        if name != "cholesky":  # retired; see test_retired_cholesky_flag_maps
            assert getattr(rec.config, name) == value, name
    # The field each old format lacks takes the shared default.
    defaults = TrainConfig()
    if meta["algorithm"] == "als":
        assert rec.config.alpha == defaults.alpha
    assert not hasattr(rec.config, "cholesky")


@pytest.mark.parametrize(
    "cholesky, solver, expected",
    [(True, None, None), (False, None, "gaussian"), (False, "lapack", "lapack")],
)
def test_retired_cholesky_flag_maps(tmp_path, cholesky, solver, expected):
    """``"cholesky": false`` meant Gaussian elimination unless ``solver``
    named one; ``true`` was the default and is dropped."""
    config = dict(ALS_META["config"], cholesky=cholesky, solver=solver)
    meta = dict(ALS_META, config=config)
    rec = Recommender.load(_write(tmp_path / "model", meta))
    assert rec.config.solver == expected
    kept = {k: v for k, v in config.items() if k != "cholesky"}
    assert rec.config == TrainConfig(**dict(kept, solver=expected))


def test_float_history_without_stats_loads(tmp_path):
    meta = {k: v for k, v in IMPLICIT_META.items() if k != "stats"}
    model = Recommender.load(_write(tmp_path / "model", meta)).model
    assert model.losses() == meta["history"]
    assert [s.iteration for s in model.history] == [1, 2]
    assert all(s.train_rmse is None for s in model.history)


def test_resaved_old_checkpoint_round_trips(tmp_path):
    old = Recommender.load(_write(tmp_path / "old", IMPLICIT_META))
    old.save(tmp_path / "new")
    new = Recommender.load(tmp_path / "new")
    assert new.model.history == old.model.history
    assert new.config == old.config


def test_unknown_algorithm_still_rejected(tmp_path):
    meta = dict(ALS_META, algorithm="svd++")
    with pytest.raises(ValueError, match="unknown algorithm"):
        Recommender.load(_write(tmp_path / "model", meta))
