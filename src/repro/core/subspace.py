"""iALS++ subspace block coordinate descent (Rendle et al. 2021).

A full ALS half-sweep solves every row's k×k normal equations; the cost
per coordinate step is O(k²) in assembly and O(k³) in the solve.  iALS++
observes that updating only a *block* of ``d ≪ k`` factor coordinates at
a time — holding the complement fixed and folding its contribution into
the right-hand side — drops those to O(d·k) and O(d³) per block while
converging to the same stationary point, so on large k the loss falls
much faster per wall-second.  This module is the schedule layer: it
walks the column blocks of the factor matrices and drives the existing
degree-binned, tile-budgeted kernels (:func:`sweep_occupied` with
``col_block``) through the shared :class:`SweepExecutor`, which keeps
every downstream optimization — binned assembly, solver registry,
nnz-balanced sharding, blocked out-of-core streaming — in play
unchanged.

Two schedules are provided:

* ``"paired"`` — the iALS++ ordering: for each block, update the user
  factors then the item factors before moving on.  Freshly-updated user
  coordinates are visible to the very next item update, which is what
  gives iALS++ its convergence edge.
* ``"sweep"`` — finish every user block, then every item block; the
  closest analogue of the classical alternating sweep.

With one full-width block both schedules reduce to the historical
trainers *bitwise* (asserted by tests/core/test_subspace.py): the kernel
skips every complement term, the executor scatters whole rows, and the
implicit Gramian cache degenerates to the per-half-sweep recompute.

For the implicit trainer the dense ``FᵀF`` Gramians are maintained
incrementally by :class:`~repro.linalg.normal_equations.GramCache` —
after a block update only the affected ``d`` rows/columns are
recomputed (O(m·d·k) instead of O(m·k²)).
"""

from __future__ import annotations

import numpy as np

from repro.linalg.normal_equations import GramCache
from repro.obs import metrics as obs_metrics
from repro.obs.spans import is_enabled, span

__all__ = [
    "BLOCK_SCHEDULES",
    "make_blocks",
    "pass_cost",
    "resolve_block_size",
    "subspace_iteration",
    "validate_block_size",
]

BLOCK_SCHEDULES = ("paired", "sweep")


def validate_block_size(value: int | str | None) -> None:
    """Raise on a malformed ``block_size`` spec (config validation)."""
    if value is None:
        return
    if isinstance(value, str):
        if value.strip().lower() != "auto":
            raise ValueError(
                f"block_size must be 'auto' or a positive integer, got {value!r}"
            )
        return
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(
            f"block_size must be 'auto' or a positive integer, got {value!r}"
        )
    if int(value) < 1:
        raise ValueError(f"block_size must be >= 1, got {int(value)}")


def resolve_block_size(
    block_size: int | str | None,
    k: int,
    *,
    nnz_per_row: float | None = None,
    compute_dtype: object | None = None,
) -> int | None:
    """The effective subspace size: ``None`` (full sweeps), an explicit
    ``d`` clamped to ``k``, or the measured ``"auto"`` selection per
    (k, nnz/row, dtype) from :mod:`repro.autotune.blocks`."""
    if block_size is None:
        return None
    if isinstance(block_size, str):
        from repro.autotune.blocks import select_block_size

        return min(k, select_block_size(
            k, nnz_per_row=nnz_per_row, compute_dtype=compute_dtype
        ))
    return min(k, int(block_size))


def make_blocks(k: int, d: int) -> tuple[tuple[int, int], ...]:
    """Contiguous column blocks of width ``d`` covering ``[0, k)``; the
    last block absorbs the remainder when ``d`` does not divide ``k``."""
    if not 1 <= d <= k:
        raise ValueError(f"block size must be in [1, {k}], got {d}")
    return tuple((s, min(s + d, k)) for s in range(0, k, d))


def pass_cost(k: int, d: int, nnz: int, rows: int) -> float:
    """Flop-count proxy for one full subspace pass (both half-sweeps).

    Per block of width ``d``: the Gram tiles cost ``nnz·d²``, the
    complement predictions ``nnz·(k−d)``, the RHS segment-sum ``nnz·d``,
    and the batched solve ``rows·(d³/3 + 2d²)``.  Summed over the
    ``⌈k/d⌉`` blocks this is the wall-clock proxy the convergence tests
    use (machine-independent, monotone in the real cost).
    """
    nblocks = -(-k // d)
    comp = (k - d) if d < k else 0
    assembly = nblocks * nnz * (d * d + comp + d)
    solve = nblocks * rows * (d ** 3 / 3.0 + 2.0 * d * d)
    return float(assembly + solve)


def _zero_unoccupied(F: np.ndarray, R, cache: GramCache | None) -> None:
    """Zero the factor rows with no observations, syncing ``cache``.

    The full implicit half-sweep resolves empty rows to zero (their
    system is ``(FᵀF + λI)x = 0``); the in-place block updates skip them
    entirely, so the driver zeroes them once up front.  When that
    actually changes values (the initializer's random rows, first
    iteration only) the Gramian cache is refreshed so its complement
    entries do not carry stale contributions.
    """
    empty = np.asarray(R.row_lengths()) == 0
    if not np.any(empty):
        return
    if not np.any(F[empty]):
        return
    F[empty] = 0.0
    if cache is not None:
        cache.refresh(F)


def subspace_iteration(
    executor,
    R_rows,
    R_cols,
    X: np.ndarray,
    Y: np.ndarray,
    lam: float,
    blocks: tuple[tuple[int, int], ...],
    schedule: str,
    sweep_kw: dict,
    *,
    implicit_alpha: float | None = None,
    grams: dict | None = None,
    inplace: bool = False,
    iteration: int = 0,
    xb_out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One training iteration as a sequence of subspace block updates.

    ``sweep_kw`` carries the trainer's solver/assembly knobs (plus
    ``weighted=True`` for ALS-WR) verbatim into
    :meth:`SweepExecutor.half_sweep`.  For the implicit trainer pass
    ``implicit_alpha`` and a persistent ``grams`` dict (one per training
    run): the driver creates and block-refreshes the ``X``/``Y``
    :class:`GramCache` entries in it.

    Updates run in place on working copies (or on the memmapped factors
    themselves when ``inplace``), so each block reads the freshest
    complement coordinates — Gauss–Seidel across blocks, Jacobi within
    one (see the executor's snapshot contract).

    ``xb_out`` is forwarded to the item-side update as the executor's
    ``xb_out``; it is only meaningful for one full-width block, where
    that update is the exact full sweep the loss identity needs.
    """
    if schedule not in BLOCK_SCHEDULES:
        raise ValueError(
            f"block_schedule must be one of {BLOCK_SCHEDULES}, got {schedule!r}"
        )
    if xb_out is not None and len(blocks) != 1:
        raise ValueError("xb_out needs a single full-width block")
    implicit = implicit_alpha is not None
    if implicit and grams is None:
        raise ValueError("implicit subspace descent needs a persistent grams dict")
    call_kw = dict(sweep_kw)
    if implicit:
        call_kw["implicit_alpha"] = float(implicit_alpha)
    Xw = X if inplace else X.copy()
    Yw = Y if inplace else Y.copy()
    d = max(e - s for s, e in blocks)
    if is_enabled():
        obs_metrics.set_gauge("subspace.block_size", d)
        obs_metrics.set_gauge("subspace.blocks", len(blocks))

    def gram_for(side: str, F: np.ndarray) -> np.ndarray | None:
        if not implicit:
            return None
        cache = grams.get(side)
        if cache is None:
            cache = grams[side] = GramCache(F)
        return cache.matrix

    def fresh_gram(side: str, F: np.ndarray) -> None:
        cache = grams.get(side)
        if cache is None:
            grams[side] = GramCache(F)
        else:
            cache.refresh(F)

    def update(side: str, R, F_fixed: np.ndarray, F_upd: np.ndarray,
               s: int, e: int, base_gram: np.ndarray | None) -> None:
        with span(
            "als.subspace.block", side=side, start=s, stop=e,
            iteration=iteration,
        ):
            executor.half_sweep(
                R, F_fixed, lam, X_prev=F_upd, out=F_upd,
                col_block=(s, e), base_gram=base_gram,
                xb_out=xb_out if side == "Y" else None, **call_kw,
            )
        if implicit:
            cache = grams.get(side)
            if cache is None:
                # First touch of this side: a fresh Gramian of the
                # just-updated factor is exact by construction.
                grams[side] = GramCache(F_upd)
            else:
                cache.update_block(F_upd, s, e)

    if schedule == "paired":
        first_y = True
        if implicit:
            # The Y Gramian must predate the X zeroing order below, like
            # the full trainer's first YᵀY (computed from the raw
            # initializer output).
            gram_for("Y", Yw)
            _zero_unoccupied(Xw, R_rows, grams.get("X"))
        for s, e in blocks:
            update("X", R_rows, Yw, Xw, s, e, gram_for("Y", Yw))
            if implicit and first_y:
                _zero_unoccupied(Yw, R_cols, grams.get("Y"))
                first_y = False
            update("Y", R_cols, Xw, Yw, s, e, gram_for("X", Xw))
    else:  # "sweep"
        if implicit:
            fresh_gram("Y", Yw)
            _zero_unoccupied(Xw, R_rows, grams.get("X"))
        for s, e in blocks:
            update("X", R_rows, Yw, Xw, s, e, gram_for("Y", Yw))
        if implicit:
            fresh_gram("X", Xw)
            _zero_unoccupied(Yw, R_cols, grams.get("Y"))
        for s, e in blocks:
            update("Y", R_cols, Xw, Yw, s, e, gram_for("X", Xw))
    return Xw, Yw
