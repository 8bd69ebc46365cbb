"""Implicit-feedback ALS (Hu, Koren & Volinsky) on the optimized substrate.

The paper's introduction credits ALS with being able to "incorporate
implicit ratings" [1]; this module implements that variant.  Observations
become binary preferences ``p_ui = 1`` with confidence
``c_ui = 1 + α·r_ui``, and each row solves

    x_u = (YᵀY + Yᵀ(C_u − I)Y + λI)⁻¹ Yᵀ C_u p_u

using the classic trick: the dense ``YᵀY`` is computed once per
half-sweep and only the sparse correction ``Yᵀ(C_u − I)Y`` is assembled
per row.

Historically that correction was built by materializing every per-rating
outer product as an ``(nnz, k, k)`` tensor and scatter-adding it — ~32 GB
at MovieLens-1M with k = 64, an out-of-memory crash on exactly the
datasets the paper benchmarks.  The sweep now runs on the shared
machinery the explicit path uses:

* the correction ``Σ α·r · y yᵀ`` and the RHS ``Σ (1 + α·r) · y`` ride
  the degree-binned, nnz-tile-budgeted assembly of
  :mod:`repro.linalg.normal_equations` (per-nnz weight vector; the
  ``(nnz, k, k)`` intermediate is gone and peak scratch is bounded by
  the ``tile_nnz`` budget / ``REPRO_TILE_NNZ``);
* S3 goes through the :mod:`repro.linalg.solvers` registry (LAPACK-class
  batched Cholesky available), with the shared ``YᵀY`` broadcast kept;
* half-sweeps shard over :class:`repro.parallel.SweepExecutor` with the
  same bitwise-equal-to-serial guarantee as explicit ALS (weights derive
  from each shard's own values);
* instrumented runs emit ``als.implicit.s1``/``s2``/``s3`` spans plus
  the ``assembly.implicit.peak_tile_bytes`` gauge.

The retained scatter reference is one knob away (``assembly="scatter"``)
for parity tests and ``benchmarks/bench_implicit.py``.

Training is the shared loop of :mod:`repro.core.als` under the
``"implicit"`` policy; this module keeps the standalone half-sweep.
"""

from __future__ import annotations

import numpy as np

from repro.core.als import FactorModel, TrainConfig, train
# ledger/train.py resolves the loss under this historical name.
from repro.core.loss import weighted_loss as _weighted_loss  # noqa: F401
from repro.parallel.executor import SweepExecutor
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.shards import ShardStore, ShardedCSR

__all__ = ["ImplicitConfig", "ImplicitModel", "implicit_half_sweep", "train_implicit_als"]

# Compatibility names: every algorithm shares the one config and model.
ImplicitConfig = TrainConfig
ImplicitModel = FactorModel


def implicit_half_sweep(
    R: CSRMatrix | ShardedCSR,
    Y: np.ndarray,
    lam: float,
    alpha: float,
    *,
    solver: str | None = None,
    assembly: str | None = None,
    tile_nnz: int | None = None,
    compute_dtype: object | None = None,
    executor: SweepExecutor | None = None,
    workers: int | str | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Update all row factors of ``R`` for implicit feedback.

    Empty rows resolve to zero (their preference vector is all-zero and
    the system is ``(YᵀY + λI) x = 0``).  The shared dense ``YᵀY`` is
    computed once here and broadcast onto every occupied row's system
    (the Hu-Koren trick); the sparse correction assembles through the
    binned/tiled weighted kernel, so peak scratch is bounded by the
    ``tile_nnz`` budget instead of growing with ``nnz·k²``.

    Pass an ``executor`` to reuse a training run's thread pool; with
    ``workers`` (or neither) a transient executor handles this sweep.
    The parallel result is bitwise-identical to the serial one, as is
    the blocked out-of-core sweep a :class:`ShardedCSR` ``R`` selects.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    YtY = Y.T @ Y  # shared dense part, computed once (the Hu-Koren trick)
    kw = dict(
        implicit_alpha=float(alpha), base_gram=YtY, solver=solver,
        assembly=assembly, tile_nnz=tile_nnz, compute_dtype=compute_dtype,
        out=out,
    )
    if executor is not None:
        return executor.half_sweep(R, Y, lam, **kw)
    with SweepExecutor(workers) as ex:
        return ex.half_sweep(R, Y, lam, **kw)


def train_implicit_als(
    ratings: COOMatrix | CSRMatrix | ShardStore,
    config: TrainConfig | None = None,
    validation: COOMatrix | None = None,
) -> FactorModel:
    """Implicit ALS: :func:`~repro.core.als.train` with
    ``algorithm="implicit"`` on interaction counts/strengths."""
    return train(ratings, config, "implicit", validation)
