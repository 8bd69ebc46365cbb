"""The training loop (Algorithm 1) and its per-algorithm policies.

Alternates exact least-squares updates of X (rows, CSR sweep) and Y
(columns, CSC sweep) until the iteration budget is reached — the same
fixed-iteration regime the paper benchmarks (5 iterations, k = 10,
λ = 0.1 unless stated, §IV-B).

ALS, ALS-WR (Zhou et al. [3]) and implicit-feedback ALS (Hu, Koren &
Volinsky) run this one loop.  They differ only in the per-row system
each half-sweep solves and in the loss the history records, which
:data:`POLICIES` states per algorithm:

============  =============  ==========  ===============  ========================
algorithm     weights        ridge       base Gram        recorded loss
============  =============  ==========  ===============  ========================
``als``       1              λ           none             Σerr² + λ(‖X‖² + ‖Y‖²)
``als-wr``    1              λ·|Ω_u|     none             Σerr²
``implicit``  1 + α·r        λ           fresh ``FᵀF``    confidence-weighted loss
============  =============  ==========  ===============  ========================

The explicit losses come from the item sweep's normal equations
(:class:`~repro.core.loss.SolvedLoss`); the implicit one is gathered
(:func:`~repro.core.loss.weighted_loss`).
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from repro.core.init import init_factors
from repro.core.loss import (
    SolvedLoss,
    penalty,
    rmse,
    rmse_from_sq,
    squared_error,
    weighted_loss,
)
from repro.core.subspace import (
    BLOCK_SCHEDULES,
    make_blocks,
    resolve_block_size,
    subspace_iteration,
    validate_block_size,
)
from repro.knobs import resolve
from repro.parallel.executor import SweepExecutor
from repro.obs import metrics as obs_metrics
from repro.obs.spans import span
from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.shards import ShardStore, ShardedCSR

__all__ = [
    "TrainConfig",
    "IterationStats",
    "FactorModel",
    "Policy",
    "POLICIES",
    "policy_for",
    "train",
    "ALSConfig",
    "ALSModel",
    "train_als",
    "ratings_views",
    "training_views",
]

FACTOR_MODES = ("ram", "memmap")


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of Algorithm 1, shared by every algorithm.

    Algorithm 1 "iterates until it reaches the maximum specified cycles
    or error rate": ``iterations`` is the cycle budget and ``tol`` the
    error-rate criterion — training stops early once the relative loss
    improvement between iterations falls below it (0 disables).
    """

    k: int = 10  # latent factor dimensionality (paper default)
    lam: float = 0.1  # regularization λ (paper default)
    iterations: int = 5  # sweeps (paper's benchmark setting)
    tol: float = 0.0  # relative-improvement stopping threshold
    seed: int = 0
    init_scale: float = 0.1
    track_loss: bool = True  # record the loss after every iteration
    alpha: float = 40.0  # implicit confidence slope: c = 1 + α·r
    # The knobs below share their names with repro.knobs; None defers to
    # repro.configure, then the REPRO_* environment, then the default.
    # S1/S2 assembly code variant (§III-D analogue).
    assembly: str | None = None  # "binned" | "scatter" | "auto"
    tile_nnz: int | None = None  # nnz budget per assembly tile
    assembly_dtype: str | None = None  # "float32" | "float64" compute mode
    # S3 solver code variant; "cholesky" names the from-scratch reference
    # kernel, the default "lapack" the chunked LAPACK Cholesky.
    solver: str | None = None  # "cholesky" | "gaussian" | "lapack" | "auto"
    # Half-sweep parallelism: "auto" = one worker per usable core, N =
    # exactly N threads; the default is serial.
    workers: int | str | None = None
    # Factor-matrix backing: "ram" (heap arrays, the default) or "memmap"
    # (.npy-backed maps with per-shard spill — the out-of-core trainers'
    # option for shapes where even X and Y strain memory).
    factors: str = "ram"
    factors_dir: str | None = None  # memmap location; None = fresh temp dir
    # iALS++ subspace descent: update the factors in column blocks of
    # width `block_size` — an int, "auto" (the measured tune-blocks
    # selector), or None for the historical full-k sweeps.  A full-width
    # block reproduces the full sweep bitwise.  `block_schedule` orders
    # the updates: "paired" interleaves X/Y per block (iALS++), "sweep"
    # finishes all X blocks before any Y block.
    block_size: int | str | None = None
    block_schedule: str = "paired"

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError("k must be positive")
        if self.lam <= 0:
            raise ValueError("lam must be positive (λI keeps smat SPD)")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        if self.tol < 0:
            raise ValueError("tol must be non-negative")
        if self.tol > 0 and not self.track_loss:
            raise ValueError("tol-based stopping requires track_loss")
        for knob in ("assembly", "tile_nnz", "assembly_dtype", "solver", "workers"):
            value = getattr(self, knob)
            if value is not None:
                resolve(knob, value)  # raises on a bad value
        if self.factors not in FACTOR_MODES:
            raise ValueError(
                f"factors must be one of {FACTOR_MODES}, got {self.factors!r}"
            )
        validate_block_size(self.block_size)
        if self.block_schedule not in BLOCK_SCHEDULES:
            raise ValueError(
                f"block_schedule must be one of {BLOCK_SCHEDULES}, "
                f"got {self.block_schedule!r}"
            )


@dataclass(frozen=True)
class IterationStats:
    """Objective tracking for one training iteration.

    ``loss`` is the algorithm's recorded loss (see :data:`POLICIES`);
    ``train_rmse`` is ``None`` for implicit feedback, whose targets are
    preferences rather than ratings.  ``elapsed_seconds`` is the
    cumulative monotonic training time up to and including this
    iteration's sweeps — loss/validation evaluation is excluded, so the
    history doubles as a loss-vs-wall-seconds curve (checkpoints written
    before this field existed load as 0.0).
    """

    iteration: int
    loss: float
    train_rmse: float | None
    validation_rmse: float | None = None
    elapsed_seconds: float = 0.0


@dataclass
class FactorModel:
    """Trained factors plus the per-iteration history."""

    X: np.ndarray  # (m, k) user factors
    Y: np.ndarray  # (n, k) item factors
    config: TrainConfig
    history: list[IterationStats] = field(default_factory=list)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.X.shape[0], self.Y.shape[0])

    @property
    def k(self) -> int:
        return self.X.shape[1]

    def losses(self) -> list[float]:
        return [s.loss for s in self.history]

    def score(self, user: int) -> np.ndarray:
        """Scores of one user over all items."""
        return self.Y @ self.X[user]


@dataclass(frozen=True)
class Policy:
    """What one algorithm changes in the shared loop.

    ``weighted`` scales the ridge to ``λ·|Ω_u|`` (ALS-WR).  ``implicit``
    gives every rating the confidence weight ``1 + α·r`` on top of a
    fresh ``FᵀF`` base Gram, resolves empty rows to zero, records the
    gathered confidence-weighted loss without a ``train_rmse``, and
    rejects negative input.  Explicit updates keep empty rows through
    ``X_prev`` and record the normal-equation squared error, plus the
    λ penalty when ``penalty`` is set.
    """

    weighted: bool = False
    implicit: bool = False
    penalty: bool = True

    def side_kw(self, config: TrainConfig, F_fixed, F_upd) -> dict:
        """Executor arguments of one full-width half-sweep updating
        ``F_upd`` against the fixed factors ``F_fixed``."""
        if self.implicit:
            # A fresh shared Gram (the Hu-Koren trick); empty rows → 0.
            return dict(
                implicit_alpha=float(config.alpha), base_gram=F_fixed.T @ F_fixed
            )
        return dict(X_prev=F_upd)  # empty rows keep their value

    def loss(
        self,
        config: TrainConfig,
        solved: SolvedLoss | None,
        loss_view,
        X: np.ndarray,
        Y: np.ndarray,
        nnz: int,
    ) -> tuple[float, float | None]:
        """``(loss, train_rmse)`` recorded after one iteration."""
        if self.implicit:
            return weighted_loss(loss_view, X, Y, config.lam, config.alpha), None
        if solved is not None:
            sq = solved.sq_error(Y)
        else:
            sq = squared_error(loss_view, X, Y)
        loss = sq + penalty(X, Y, config.lam) if self.penalty else sq
        return loss, rmse_from_sq(sq, nnz)


POLICIES = {
    "als": Policy(),
    "als-wr": Policy(weighted=True, penalty=False),
    "implicit": Policy(implicit=True),
}


def policy_for(algorithm: str) -> Policy:
    """The policy of ``algorithm``; :class:`ValueError` names the known ones."""
    if algorithm not in POLICIES:
        known = ", ".join(sorted(POLICIES))
        raise ValueError(f"unknown algorithm {algorithm!r}; known: {known}")
    return POLICIES[algorithm]


# Compatibility names: every algorithm shares the one config and model.
ALSConfig = TrainConfig
ALSModel = FactorModel


def ratings_views(ratings: COOMatrix | CSRMatrix) -> tuple[COOMatrix, CSRMatrix]:
    """Canonical ``(deduplicated COO, CSR)`` views of a rating input.

    The single conversion point the trainer (and the ``Recommender``
    facade) shares: COO inputs are deduplicated and converted exactly
    once; a prebuilt CSR passes through untouched.
    """
    if isinstance(ratings, COOMatrix):
        coo = ratings.deduplicate()
        return coo, CSRMatrix.from_coo(coo)
    if isinstance(ratings, CSRMatrix):
        return ratings.to_coo(), ratings
    raise TypeError(f"ratings must be COOMatrix or CSRMatrix, got {type(ratings)}")


def training_views(
    ratings: COOMatrix | CSRMatrix | ShardStore,
) -> tuple[CSRMatrix | ShardedCSR, CSRMatrix | ShardedCSR | None, object]:
    """``(R_rows, R_cols, loss_view)`` for in-RAM or out-of-core input.

    A :class:`ShardStore` contributes both pre-materialized orientations
    (nothing to transpose at train time) and its row view doubles as the
    streaming loss view.  For in-RAM input ``R_cols`` comes back ``None``
    — the trainer builds the CSC view inside its ``als.build_views``
    span, where the conversion cost is attributed.
    """
    if isinstance(ratings, ShardStore):
        return ratings.rows, ratings.cols, ratings.rows
    coo, R_rows = ratings_views(ratings)
    return R_rows, None, coo


def resolve_factor_dir(config: TrainConfig) -> str | None:
    """The memmap directory for factor spill (``None`` for RAM factors)."""
    if config.factors != "memmap":
        return None
    return config.factors_dir or tempfile.mkdtemp(prefix="repro-factors-")


def solved_loss(
    R_cols: CSRMatrix | ShardedCSR,
    config: TrainConfig,
    blocks: tuple[tuple[int, int], ...] | None,
    policy: Policy,
) -> SolvedLoss | None:
    """The fit's normal-equation loss tracker, or ``None`` when the loss
    is not tracked, is gathered (implicit), or the item update is not one
    exact full-width solve (strict subspace blocks gather instead)."""
    if policy.implicit or not config.track_loss:
        return None
    if blocks is not None and len(blocks) > 1:
        return None
    with span("als.loss.setup"):
        return SolvedLoss(R_cols, config.lam, weighted=policy.weighted)


def train(
    ratings: COOMatrix | CSRMatrix | ShardStore,
    config: TrainConfig | None = None,
    algorithm: str = "als",
    validation: COOMatrix | None = None,
) -> FactorModel:
    """Factorize ``ratings ≈ X Yᵀ`` with the policy of ``algorithm``.

    Accepts COO (converted once), a prebuilt CSR matrix, or an on-disk
    :class:`ShardStore` — the out-of-core path, where each half-sweep
    streams byte-budgeted row-range shards of its natural orientation
    and the loss is accumulated the same way.  Each iteration performs
    the two half-sweeps of Algorithm 1: rows over the CSR view, columns
    over the CSC view (as the paper stores them, §III-A), through one
    shared :class:`SweepExecutor`; with ``block_size`` set they become
    the iALS++ block schedule of :func:`subspace_iteration`.  When a
    ``validation`` set is given its RMSE is tracked per iteration.

    The explicit loss comes from the item half-sweep's normal equations
    (:class:`~repro.core.loss.SolvedLoss`) whenever that sweep solves
    every row exactly at full width; strict subspace blocks and the
    held-out RMSE gather the ratings instead.
    """
    policy = policy_for(algorithm)
    config = config or TrainConfig()
    R_rows, R_cols, loss_view = training_views(ratings)
    sharded = R_cols is not None
    if policy.implicit and R_rows.nnz:
        low = R_rows.min_value() if sharded else loss_view.value.min()
        if low < 0:
            raise ValueError("implicit feedback must be non-negative")
    with span(
        "als.train",
        algorithm=algorithm,
        k=config.k,
        iterations=config.iterations,
        nnz=R_rows.nnz,
        out_of_core=sharded,
    ):
        with span("als.build_views"):
            if R_cols is None:
                R_cols = CSCMatrix.from_csr(R_rows).transpose_as_csr()
            m, n = R_rows.shape
            X, Y = init_factors(
                m, n, config.k, seed=config.seed, scale=config.init_scale,
                memmap_dir=resolve_factor_dir(config),
            )

        model = FactorModel(X=X, Y=Y, config=config)
        inplace = config.factors == "memmap"
        alpha = float(config.alpha) if policy.implicit else None
        sweep_kw = dict(
            weighted=policy.weighted, solver=config.solver,
            assembly=config.assembly,
            tile_nnz=config.tile_nnz, compute_dtype=config.assembly_dtype,
        )
        block_d = resolve_block_size(
            config.block_size, config.k,
            nnz_per_row=R_rows.nnz / max(1, m),
            compute_dtype=config.assembly_dtype,
        )
        blocks = None if block_d is None else make_blocks(config.k, block_d)
        solved = solved_loss(R_cols, config, blocks, policy)
        xb = None if solved is None else solved.xb
        grams: dict = {}  # implicit iALS++ Gramians, persistent across iterations

        elapsed = 0.0
        with SweepExecutor(config.workers) as executor:
            def half_sweep(side, R, F_fixed, F_upd, it, xb_out=None):
                t_hs = perf_counter()
                with span("als.half_sweep", side=side, iteration=it):
                    F = executor.half_sweep(
                        R, F_fixed, config.lam, out=F_upd if inplace else None,
                        xb_out=xb_out, **policy.side_kw(config, F_fixed, F_upd),
                        **sweep_kw,
                    )
                obs_metrics.observe_latency(
                    "als.half_sweep.seconds", perf_counter() - t_hs
                )
                return F

            for it in range(1, config.iterations + 1):
                with span("als.iteration", iteration=it):
                    obs_metrics.inc("als.iterations")
                    t_iter = perf_counter()
                    if blocks is None:
                        X = half_sweep("X", R_rows, Y, X, it)
                        Y = half_sweep("Y", R_cols, X, Y, it, xb_out=xb)
                    else:
                        X, Y = subspace_iteration(
                            executor, R_rows, R_cols, X, Y, config.lam,
                            blocks, config.block_schedule, sweep_kw,
                            implicit_alpha=alpha, grams=grams,
                            inplace=inplace, iteration=it, xb_out=xb,
                        )
                    elapsed += perf_counter() - t_iter
                    if config.track_loss:
                        with span("als.loss", iteration=it):
                            loss, train_rmse = policy.loss(
                                config, solved, loss_view, X, Y, R_rows.nnz
                            )
                            model.history.append(
                                IterationStats(
                                    iteration=it,
                                    loss=loss,
                                    train_rmse=train_rmse,
                                    validation_rmse=(
                                        rmse(validation, X, Y)
                                        if validation is not None
                                        else None
                                    ),
                                    elapsed_seconds=elapsed,
                                )
                            )
                if config.track_loss and config.tol > 0 and len(model.history) >= 2:
                    prev = model.history[-2].loss
                    cur = model.history[-1].loss
                    if prev > 0 and (prev - cur) / prev < config.tol:
                        break
        model.X, model.Y = X, Y
    return model


def train_als(
    ratings: COOMatrix | CSRMatrix | ShardStore,
    config: TrainConfig | None = None,
    validation: COOMatrix | None = None,
) -> FactorModel:
    """Plain ALS: :func:`train` with ``algorithm="als"``."""
    return train(ratings, config, "als", validation)
