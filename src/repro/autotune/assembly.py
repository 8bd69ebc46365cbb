"""The host assembly probe for ``assembly="auto"``.

Times the two host assembly strategies — ``scatter`` (legacy
``np.add.at``) and ``binned`` (degree-binned batched GEMM) — on a small
row-prefix sample of the actual rating matrix, for a ``(shape, nnz, k,
weighted)`` context.  The sample is a prefix of the *whole* matrix, so
an in-RAM matrix and a shard store of the same ratings probe the same
rows and share one verdict.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.autotune.choice import Decision, fastest, measured_choice
from repro.linalg import normal_equations as ne
from repro.sparse.csr import CSRMatrix
from repro.sparse.shards import ShardedCSR, ShardSpan

__all__ = ["measure_assembly", "select_assembly", "DEFAULT_SAMPLE_NNZ"]

#: Non-zeros in the timing sample (further capped so the scatter probe's
#: (nnz, k, k) tensor stays under ~64 MB — the probe must never cost more
#: than the sweep it is trying to speed up).
DEFAULT_SAMPLE_NNZ = 40_000

_SCATTER_PROBE_BYTES = 64 << 20


def _sample_rows(R: CSRMatrix | ShardedCSR, sample_nnz: int) -> CSRMatrix:
    """A row-prefix submatrix with roughly ``sample_nnz`` non-zeros."""
    if R.nnz <= sample_nnz and isinstance(R, CSRMatrix):
        return R
    cut = max(1, int(np.searchsorted(R.row_ptr, sample_nnz, side="left")))
    cut = min(cut, R.nrows)
    end = int(R.row_ptr[cut])
    if isinstance(R, ShardedCSR):
        return R.load(ShardSpan(0, 0, cut, 0, end))
    return CSRMatrix(
        (cut, R.ncols),
        R.value[:end],
        R.col_idx[:end],
        R.row_ptr[: cut + 1],
    )


def _key(R: CSRMatrix | ShardedCSR, k: int, weighted: bool) -> tuple:
    return (tuple(R.shape), int(R.nnz), int(k), bool(weighted))


def measure_assembly(
    R: CSRMatrix | ShardedCSR,
    k: int,
    lam: float = 0.1,
    sample_nnz: int | None = None,
    repeats: int = 1,
    seed: int = 0,
    weighted: bool = False,
) -> Decision:
    """Time both assembly variants on a sample of ``R`` and pick a winner.

    The sample's derived structures (degree bins, expanded rows) are
    built before timing: a real training run reuses one matrix across
    every iteration, so the steady-state per-sweep cost is what matters.

    ``weighted=True`` times the confidence-weighted (implicit) kernels
    instead — the variants do the same work per non-zero either way, but
    the verdict is measured, not assumed, exactly like the paper's
    per-context variant selection.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    if sample_nnz is None:
        sample_nnz = max(
            2048, min(DEFAULT_SAMPLE_NNZ, _SCATTER_PROBE_BYTES // max(1, k * k * 8))
        )
    S = _sample_rows(R, sample_nnz)
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((S.ncols, k))
    S.degree_bins(ne.DEFAULT_BIN_GROWTH)
    S.expanded_rows()
    kw = {}
    if weighted:
        # α = 1 probe weights: the kernels' cost does not depend on the
        # weight values, only on their presence.
        w = S.value.astype(np.float64)
        kw = dict(nnz_weight=w, rhs_nnz_value=w + 1.0)
    seconds: dict[str, float] = {}
    for mode, fn in (
        ("binned", ne.binned_normal_equations),
        ("scatter", ne.scatter_normal_equations),
    ):
        best = float("inf")
        for _ in range(repeats):
            t0 = perf_counter()
            fn(S, Y, lam, **kw)
            best = min(best, perf_counter() - t0)
        seconds[mode] = best
    return fastest(
        "assembly", _key(R, k, weighted), seconds,
        sample_rows=S.nrows, sample_nnz=S.nnz,
    )


def select_assembly(
    R: CSRMatrix | ShardedCSR, k: int, lam: float = 0.1, weighted: bool = False
) -> str:
    """The measured-best assembly mode for ``(R, k)``, cached per context.

    Weighted (implicit) and unweighted kernels cache separate verdicts —
    they are different code variants with different constants.
    """
    return measured_choice(
        "assembly", _key(R, k, weighted),
        lambda: measure_assembly(R, k, lam, weighted=weighted),
    ).choice
