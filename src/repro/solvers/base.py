"""Common solver interfaces.

A solver exposes two orthogonal capabilities:

* :meth:`BaseSolver.fit` — functional training on a materialized rating
  matrix (all solvers compute the same ALS math; they differ in hardware
  mapping, which the simulator prices, not in results), and
* :meth:`BaseSolver.simulate` — the simulated execution time on the
  solver's device for a dataset *shape* (full-scale degree sequences),
  which is what the paper's tables and figures measure.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.clsim.costmodel import StepCosts
from repro.core.als import FactorModel, TrainConfig, train
from repro.datasets.catalog import DatasetSpec
from repro.datasets.synthetic import degree_sequences
from repro.sparse.coo import COOMatrix

__all__ = ["SimulatedRun", "SolverReport", "BaseSolver"]


@dataclass(frozen=True)
class SimulatedRun:
    """Result of simulating a training run on a device."""

    solver: str
    device: str
    dataset: str
    k: int
    ws: int
    iterations: int
    seconds: float
    step_costs: StepCosts | None  # per-iteration step decomposition

    def __str__(self) -> str:
        return (
            f"{self.solver:18s} {self.device:6s} {self.dataset:6s} "
            f"k={self.k:<3d} ws={self.ws:<4d} {self.iterations} iters: "
            f"{self.seconds:9.3f} s"
        )


@dataclass(frozen=True)
class SolverReport:
    """Functional training result plus its simulated cost."""

    model: FactorModel
    run: SimulatedRun


class BaseSolver(abc.ABC):
    """Interface shared by PortableALS, Sac15Baseline and CuMF."""

    #: Human-readable solver name used in reports.
    name: str = "solver"

    @abc.abstractmethod
    def simulate(
        self,
        row_lengths: np.ndarray,
        col_lengths: np.ndarray,
        k: int = 10,
        iterations: int = 5,
        dataset: str = "?",
    ) -> SimulatedRun:
        """Simulated wall-clock for training on the given dataset shape."""

    def simulate_spec(
        self,
        spec: DatasetSpec,
        k: int = 10,
        iterations: int = 5,
        seed: int = 7,
    ) -> SimulatedRun:
        """Convenience: simulate directly from a Table I dataset spec."""
        rows, cols = degree_sequences(spec, seed=seed)
        return self.simulate(rows, cols, k=k, iterations=iterations, dataset=spec.abbr)

    def fit(
        self, ratings: COOMatrix, config: TrainConfig | None = None
    ) -> FactorModel:
        """Functional ALS training (identical math across solvers)."""
        return train(ratings, config)
