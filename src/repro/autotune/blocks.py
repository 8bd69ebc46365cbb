"""The iALS++ probe for ``block_size="auto"``.

The right block width ``d`` is a hardware *and* shape question: smaller
blocks cut per-pass flops (``nnz·k·d`` assembly, ``d³`` solves) but pay
complement-prediction overhead (``nnz·(k−d)`` per block) and make less
progress per pass, and where the balance lands depends on k, the matrix
density, and the BLAS the host runs.  This probe *trains* a small
synthetic problem at every candidate width, reads the loss-vs-seconds
curve each run records (``IterationStats.elapsed_seconds``), and picks
the width that reached the common target loss fastest, for a ``(k,
nnz/row bucket, dtype)`` context.
"""

from __future__ import annotations

from repro.autotune.choice import Decision, bucket, fastest, measured_choice

__all__ = ["block_candidates", "measure_blocks", "select_block_size"]

#: Probe corpus shape: large enough that per-iteration cost dominates
#: Python dispatch, small enough that a full candidate scan stays well
#: under a second at ML-scale k.
PROBE_ROWS = 384

#: Densities above this many ratings per row share the top bucket.
MAX_NNZ_BUCKET = 1024


def block_candidates(k: int) -> tuple[int, ...]:
    """Power-of-two widths below ``k`` plus ``k`` itself (full sweeps)."""
    if k <= 0:
        raise ValueError("k must be positive")
    cands = [d for d in (4, 8, 16, 32, 64) if d < k]
    return tuple(cands[-4:]) + (k,)


def _key(k: int, nnz_per_row: float, dtype: str) -> tuple:
    per_row = max(1, int(round(nnz_per_row)))
    return (int(k), min(MAX_NNZ_BUCKET, bucket(per_row)), dtype)


def _time_to_target(history, target: float) -> float:
    for stats in history:
        if stats.loss <= target:
            return max(stats.elapsed_seconds, 1e-9)
    return float("inf")


def measure_blocks(
    k: int,
    nnz_per_row: float,
    *,
    candidates: tuple[int, ...] | None = None,
    lam: float = 0.1,
    iterations: int = 4,
    probe_rows: int = PROBE_ROWS,
    seed: int = 0,
    compute_dtype: object | None = None,
) -> Decision:
    """Train a synthetic probe at every candidate width; pick by
    measured time-to-target-loss.

    The target is the *loosest* final loss across candidates, so every
    width reached it and the comparison is purely about wall-seconds.
    """
    # Imported here: core.subspace resolves "auto" through this module.
    from repro.core.als import TrainConfig, train
    from repro.datasets.catalog import DatasetSpec
    from repro.datasets.synthetic import generate_ratings

    if k <= 0:
        raise ValueError("k must be positive")
    if nnz_per_row <= 0:
        raise ValueError("nnz_per_row must be positive")
    if iterations <= 0:
        raise ValueError("iterations must be positive")
    cands = candidates if candidates is not None else block_candidates(k)
    cands = tuple(sorted({min(k, int(d)) for d in cands}))
    if any(d < 1 for d in cands):
        raise ValueError(f"block candidates must be >= 1, got {cands}")
    m = max(64, int(probe_rows))
    n = max(32, m // 3)
    nnz = int(min(m * max(1.0, nnz_per_row), m * n * 0.5))
    spec = DatasetSpec(
        name=f"blockprobe-k{k}", abbr="BPRB", m=m, n=n, nnz=nnz,
        row_alpha=0.9, col_alpha=0.9, rating_min=1.0, rating_max=5.0,
    )
    ratings = generate_ratings(spec, seed=seed)
    dtype = "float64" if compute_dtype is None else str(compute_dtype)
    histories: dict[int, list] = {}
    for d in cands:
        config = TrainConfig(
            k=k, lam=lam, iterations=iterations, seed=seed,
            assembly_dtype=None if compute_dtype is None else str(compute_dtype),
            block_size=None if d == k else d,
        )
        histories[d] = train(ratings, config).history
    target = max(h[-1].loss for h in histories.values())
    seconds = {d: _time_to_target(h, target) for d, h in histories.items()}
    return fastest(
        "blocks", _key(k, nnz_per_row, dtype), seconds, target_loss=float(target)
    )


def select_block_size(
    k: int,
    *,
    nnz_per_row: float | None = None,
    compute_dtype: object | None = None,
) -> int:
    """The measured-best subspace width for this shape, cached per
    ``(k, nnz/row bucket, dtype)``."""
    per_row = 64.0 if not nnz_per_row or nnz_per_row <= 0 else float(nnz_per_row)
    dtype = "float64" if compute_dtype is None else str(compute_dtype)
    return measured_choice(
        "blocks", _key(k, per_row, dtype),
        lambda: measure_blocks(k, per_row, compute_dtype=compute_dtype),
    ).choice
