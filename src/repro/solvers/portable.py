"""PortableALS: the paper's efficient & portable OpenCL solver.

One code base, three devices: the solver picks (or is given) a code
variant and a work-group size, builds the per-device cost model, and
enqueues the S1/S2/S3 kernels of every half-sweep on a simulated command
queue.  Functional results come from the validated fast path; execution
time comes from the queue's profiling events.
"""

from __future__ import annotations

import numpy as np

from repro.clsim.calibration import Calibration
from repro.clsim.costmodel import LaunchCost
from repro.clsim.device import DeviceSpec
from repro.clsim.runtime import CommandQueue, Context
from repro.clsim.transfer import training_transfer_cost
from repro.core.als import TrainConfig
from repro.kernels.variants import Variant, recommended_variant
from repro.solvers.base import BaseSolver, SimulatedRun, SolverReport
from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix

__all__ = ["PortableALS"]


class PortableALS(BaseSolver):
    """The paper's thread-batched, variant-selected ALS solver."""

    name = "ours"

    def __init__(
        self,
        device: DeviceSpec,
        variant: Variant | None = None,
        ws: int = 32,
        calibration: Calibration | None = None,
    ) -> None:
        if ws <= 0:
            raise ValueError("work-group size must be positive")
        self.device = device
        self.variant = variant or recommended_variant(device)
        if self.variant.is_baseline:
            raise ValueError(
                "PortableALS is the thread-batched solver; use Sac15Baseline "
                "for the flat mapping"
            )
        self.ws = ws
        self.context = Context(device, calibration)

    # ------------------------------------------------------------------
    # simulated timing
    # ------------------------------------------------------------------
    def simulate(
        self,
        row_lengths: np.ndarray,
        col_lengths: np.ndarray,
        k: int = 10,
        iterations: int = 5,
        dataset: str = "?",
        queue: CommandQueue | None = None,
    ) -> SimulatedRun:
        """Simulate a training run; pass ``queue`` to keep the per-launch
        profiling events (e.g. for the merged trace export)."""
        cm = self.context.cost_model
        if queue is None:
            queue = self.context.create_queue()
        flags = self.variant.flags
        transfer = training_transfer_cost(
            self.device,
            m=len(row_lengths),
            n=len(col_lengths),
            nnz=int(np.asarray(row_lengths).sum()),
            k=k,
        )
        if transfer.transfers:
            queue.enqueue("pcie_transfers", LaunchCost(0.0, 0.0, transfer.seconds))
        per_iter = None
        for _ in range(iterations):
            for lengths, side in ((row_lengths, "X"), (col_lengths, "Y")):
                costs = cm.batched_half_sweep(lengths, k, self.ws, flags)
                queue.enqueue(f"s1_update_{side}", costs.s1)
                queue.enqueue(f"s2_update_{side}", costs.s2)
                queue.enqueue(f"s3_update_{side}", costs.s3)
                per_iter = costs if per_iter is None else per_iter + costs
        return SimulatedRun(
            solver=f"{self.name}[{self.variant.name}]",
            device=self.device.kind.value,
            dataset=dataset,
            k=k,
            ws=self.ws,
            iterations=iterations,
            seconds=queue.total_seconds,
            step_costs=per_iter,
        )

    # ------------------------------------------------------------------
    # functional + simulated combined
    # ------------------------------------------------------------------
    def fit_report(
        self,
        ratings: COOMatrix,
        config: TrainConfig | None = None,
        dataset: str = "?",
    ) -> SolverReport:
        """Train on materialized ratings and report the simulated cost of
        the same run on this solver's device."""
        config = config or TrainConfig()
        model = self.fit(ratings, config)
        R = CSRMatrix.from_coo(ratings)
        cols = CSCMatrix.from_csr(R).col_lengths()
        run = self.simulate(
            R.row_lengths(),
            cols,
            k=config.k,
            iterations=config.iterations,
            dataset=dataset,
        )
        return SolverReport(model=model, run=run)
