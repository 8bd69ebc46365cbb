"""Loss and error metrics.

``regularized_loss`` is Eq. 2 of the paper — the objective ALS minimizes:

    L(X, Y) = Σ_{(u,i)∈Ω} (r_ui − x_uᵀ y_i)² + λ (Σ_u |x_u|² + Σ_i |y_i|²)

Note the regularizer sums over *all* factor rows once (the standard ALS
objective); each half-sweep is an exact minimizer of L in its own block,
which gives the monotone-descent property the tests assert.

The training loop does not re-gather the ratings to evaluate L after
every iteration.  A half-sweep that solves row ``u`` exactly from
``(Y_ΩᵀY_Ω + ρ_u I) x_u = b_u = Y_Ωᵀ r_u`` already holds everything its
squared error needs:

    ‖r_u − Y_Ω x_u‖² = ‖r_u‖² − x_u·b_u − ρ_u ‖x_u‖²

with ``ρ_u = λ`` for ALS and ``λ·|Ω_u|`` for ALS-WR.  :class:`SolvedLoss`
keeps the per-row ``‖r_u‖²`` of one fit and sums this identity over the
per-row ``x·b`` the executor returns, at O(n·k) instead of the O(nnz·k)
gather.  The gathered functions below remain for held-out ratings and
for updates that are not exact full-width solves (strict iALS++ blocks).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.shards import ShardedCSR

__all__ = [
    "regularized_loss",
    "rmse",
    "mae",
    "squared_error",
    "penalty",
    "rmse_from_sq",
    "weighted_loss",
    "SolvedLoss",
]


def _predicted(ratings: COOMatrix, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    if X.shape[0] != ratings.shape[0] or Y.shape[0] != ratings.shape[1]:
        raise ValueError(
            f"factor shapes {X.shape}/{Y.shape} do not match ratings {ratings.shape}"
        )
    return np.einsum("ij,ij->i", X[ratings.row], Y[ratings.col])


def _err_reductions(
    ratings: COOMatrix | ShardedCSR, X: np.ndarray, Y: np.ndarray
) -> tuple[float, float]:
    """``(Σ err², Σ |err|)`` over observed entries, for either view.

    A :class:`ShardedCSR` streams one resident row-range shard at a
    time (no prefetch: the training loop calls this only for updates the
    normal-equation identity does not cover), accumulating partial sums;
    each partial matches the in-RAM reduction to float64 rounding.
    """
    if isinstance(ratings, ShardedCSR):
        if X.shape[0] != ratings.shape[0] or Y.shape[0] != ratings.shape[1]:
            raise ValueError(
                f"factor shapes {X.shape}/{Y.shape} do not match "
                f"ratings {ratings.shape}"
            )
        sq = 0.0
        ab = 0.0
        for sp, mat in ratings.iter_resident(prefetch=False):
            rows = sp.row_start + mat.expanded_rows()
            pred = np.einsum("ij,ij->i", X[rows], Y[mat.col_idx])
            err = mat.value.astype(np.float64) - pred
            sq += float(err @ err)
            ab += float(np.abs(err).sum())
        return sq, ab
    err = ratings.value.astype(np.float64) - _predicted(ratings, X, Y)
    return float(err @ err), float(np.abs(err).sum())


def squared_error(
    ratings: COOMatrix | ShardedCSR, X: np.ndarray, Y: np.ndarray
) -> float:
    """``Σ (r − x·y)²`` over the given ratings, gathered."""
    return _err_reductions(ratings, X, Y)[0]


def penalty(X: np.ndarray, Y: np.ndarray, lam: float) -> float:
    """Eq. 2's regularizer ``λ (‖X‖² + ‖Y‖²)``."""
    return lam * (float(np.sum(X * X)) + float(np.sum(Y * Y)))


def regularized_loss(
    ratings: COOMatrix | ShardedCSR, X: np.ndarray, Y: np.ndarray, lam: float
) -> float:
    """Eq. 2: squared error over observed entries plus the λ penalty."""
    return squared_error(ratings, X, Y) + penalty(X, Y, lam)


def weighted_loss(
    ratings: COOMatrix | ShardedCSR,
    X: np.ndarray,
    Y: np.ndarray,
    lam: float,
    alpha: float,
) -> float:
    """Implicit feedback's confidence-weighted objective over observed
    entries, ``Σ (1 + α·r)(1 − x·y)²``, plus the λ penalty.

    The full implicit objective also sums over *unobserved* cells; this
    tracker omits that constant-heavy term (standard practice for
    monitoring convergence direction cheaply).  A :class:`ShardedCSR`
    streams resident shards and accumulates partial sums (matching the
    in-RAM value to float64 rounding).

    Unlike the explicit losses, this one is gathered every iteration:
    the normal equations give row ``u``'s term as
    ``Σc − x·b − xᵀ(YᵀY)x − λ‖x‖² + Σ_{i∈Ω_u} (x·y_i)²``, and that last
    sum over the observed predictions is itself an nnz·k gather.
    """
    if isinstance(ratings, ShardedCSR):
        fit = 0.0
        for sp, mat in ratings.iter_resident(prefetch=False):
            rows = sp.row_start + mat.expanded_rows()
            pred = np.einsum("ij,ij->i", X[rows], Y[mat.col_idx])
            conf = 1.0 + alpha * mat.value.astype(np.float64)
            err = 1.0 - pred
            fit += float(conf @ (err * err))
    else:
        pred = np.einsum("ij,ij->i", X[ratings.row], Y[ratings.col])
        conf = 1.0 + alpha * ratings.value.astype(np.float64)
        err = 1.0 - pred
        fit = float(conf @ (err * err))
    return fit + penalty(X, Y, lam)


def rmse_from_sq(sq: float, nnz: int) -> float:
    """RMSE from a squared-error sum over ``nnz`` ratings.  The normal-
    equation identity can round an almost perfect fit's error a hair
    below zero; that reads as 0."""
    if nnz == 0:
        return 0.0
    return float(np.sqrt(max(sq, 0.0) / nnz))


def rmse(ratings: COOMatrix | ShardedCSR, X: np.ndarray, Y: np.ndarray) -> float:
    """Root-mean-square error over the given ratings (train or held-out)."""
    if ratings.nnz == 0:
        return 0.0
    return rmse_from_sq(squared_error(ratings, X, Y), ratings.nnz)


def mae(ratings: COOMatrix | ShardedCSR, X: np.ndarray, Y: np.ndarray) -> float:
    """Mean absolute error over the given ratings."""
    if ratings.nnz == 0:
        return 0.0
    _, ab = _err_reductions(ratings, X, Y)
    return float(ab / ratings.nnz)


class SolvedLoss:
    """Training squared error read off the normal equations of a sweep.

    Built once per fit for the matrix ``R`` whose rows the last
    half-sweep of every iteration solves (the item side, ``R_cols``).
    Pass :attr:`xb` as that half-sweep's ``xb_out``; afterwards
    :meth:`sq_error` returns ``Σ (r − x·y)²`` over every rating from the
    solved factors alone.  ``weighted`` selects ALS-WR's ridge
    ``λ·|Ω_u|`` instead of ALS's ``λ``.

    The identity holds only when every occupied row was just solved
    exactly at full width; rows without ratings contribute zero.  All
    per-row terms are summed in row order, so the result is the same
    for any worker count.  With float32 assembly it describes the
    rounded system, so it matches the gathered loss only to float32
    precision (about 1e-7 relative).
    """

    def __init__(
        self, R: CSRMatrix | ShardedCSR, lam: float, weighted: bool = False
    ) -> None:
        counts = np.asarray(R.row_lengths(), dtype=np.float64)
        self.ridge = lam * (counts if weighted else (counts > 0))
        self.rr = np.zeros(R.nrows)
        if isinstance(R, ShardedCSR):
            for sp, mat in R.iter_resident(prefetch=False):
                self.rr[sp.row_start:sp.row_stop] = _row_sumsq(mat)
        else:
            self.rr[:] = _row_sumsq(R)
        self.xb = np.zeros(R.nrows)

    def sq_error(self, F: np.ndarray) -> float:
        """``Σ_u (‖r_u‖² − x_u·b_u − ρ_u‖x_u‖²)`` for the solved factors ``F``."""
        ridge_term = self.ridge * np.einsum("ij,ij->i", F, F)
        return float((self.rr - self.xb - ridge_term).sum())


def _row_sumsq(R: CSRMatrix) -> np.ndarray:
    v = R.value.astype(np.float64)
    return np.bincount(R.expanded_rows(), weights=v * v, minlength=R.nrows)
