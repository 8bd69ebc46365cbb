"""Hyper-parameter search for the ALS model (k, λ).

Grid search over validation RMSE — the model-quality complement to
:mod:`repro.autotune`, which tunes the *implementation* for speed.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.als import FactorModel, TrainConfig, train
from repro.core.loss import rmse
from repro.datasets.splits import train_test_split
from repro.sparse.coo import COOMatrix

__all__ = ["GridPoint", "GridSearchResult", "grid_search"]


@dataclass(frozen=True)
class GridPoint:
    """One evaluated hyper-parameter combination."""

    k: int
    lam: float
    validation_rmse: float
    train_rmse: float

    @property
    def overfit_gap(self) -> float:
        return self.validation_rmse - self.train_rmse


@dataclass(frozen=True)
class GridSearchResult:
    """All evaluated points plus the winner and its refit model."""

    points: tuple[GridPoint, ...]
    best: GridPoint
    model: FactorModel  # refit on all data with the best settings

    def ranking(self) -> list[GridPoint]:
        return sorted(self.points, key=lambda p: p.validation_rmse)


def _last_train_rmse(model: FactorModel) -> float:
    if not model.history:
        raise RuntimeError(
            "grid_search needs the per-iteration history to report "
            "train_rmse, but the model trained with track_loss disabled — "
            "run grid_search with track_loss=True (the default)"
        )
    return model.history[-1].train_rmse


def grid_search(
    ratings: COOMatrix,
    ks: tuple[int, ...] = (5, 10, 20),
    lams: tuple[float, ...] = (0.01, 0.1, 1.0),
    iterations: int = 8,
    validation_fraction: float = 0.2,
    seed: int = 0,
    *,
    solver: str | None = None,
    workers: int | str | None = None,
    block_size: int | str | None = None,
    block_schedule: str | None = None,
    track_loss: bool = True,
) -> GridSearchResult:
    """Pick (k, λ) by held-out RMSE, then refit on all ratings.

    The split is made once so every grid point sees the same validation
    set; the returned model is retrained on the full data with the
    winning settings.  The trainer knobs — ``solver`` (S3 variant),
    ``workers`` (half-sweep parallelism), ``block_size``/
    ``block_schedule`` (iALS++ subspace descent) — forward to every grid
    point and the final refit, so the search runs on the same optimized
    configuration the production training will.  ``track_loss`` must
    stay enabled: the reported ``train_rmse`` comes from the iteration
    history.
    """
    if not ks or not lams:
        raise ValueError("need at least one k and one lambda candidate")
    if any(k <= 0 for k in ks) or any(lam <= 0 for lam in lams):
        raise ValueError("k and lambda candidates must be positive")
    if not track_loss:
        raise ValueError(
            "grid_search requires track_loss=True: train_rmse is read "
            "from the per-iteration history"
        )
    knobs = dict(solver=solver, workers=workers, track_loss=track_loss)
    if block_size is not None:
        knobs["block_size"] = block_size
    if block_schedule is not None:
        knobs["block_schedule"] = block_schedule
    split = train_test_split(ratings, test_fraction=validation_fraction, seed=seed)
    points: list[GridPoint] = []
    for k in ks:
        for lam in lams:
            model = train(
                split.train,
                TrainConfig(k=k, lam=lam, iterations=iterations, seed=seed, **knobs),
            )
            points.append(
                GridPoint(
                    k=k,
                    lam=lam,
                    validation_rmse=rmse(split.test, model.X, model.Y),
                    train_rmse=_last_train_rmse(model),
                )
            )
    best = min(points, key=lambda p: p.validation_rmse)
    final = train(
        ratings,
        TrainConfig(k=best.k, lam=best.lam, iterations=iterations, seed=seed, **knobs),
    )
    return GridSearchResult(points=tuple(points), best=best, model=final)
