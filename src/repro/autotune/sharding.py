"""The out-of-core probe: which shard byte budget sweeps a store fastest.

The shard byte budget trades IO batching (big shards amortize memmap
page faults and prefetch overhead) against residency (small shards keep
the sweep's working set inside the cache hierarchy and the process
inside its memory cap).  The sweet spot depends on the store's shape
and ``k``, so this probe times one X half-sweep per candidate budget on
the actual store, for a ``(k, nnz-bucket)`` context.

Budgets whose whole-row span plan collapses to the same shard count as
an already-measured candidate are skipped — on a store smaller than the
budget every candidate degenerates to one resident shard and there is
nothing to compare.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.autotune.choice import Decision, bucket, fastest, measured_choice
from repro.parallel.executor import solve_bytes_per_row
from repro.sparse.shards import MIN_SHARD_BYTES, ShardStore

__all__ = ["measure_sharding", "select_sharding", "SHARD_CANDIDATES"]

#: Shard byte budgets probed, spanning cache-resident to IO-amortizing.
SHARD_CANDIDATES = (16 << 20, 64 << 20, 256 << 20, 1 << 30)


def measure_sharding(
    store: ShardStore,
    k: int = 10,
    repeats: int = 1,
    seed: int = 0,
    candidates: tuple[int, ...] = SHARD_CANDIDATES,
) -> Decision:
    """Time one X half-sweep per candidate budget on the actual store;
    ``detail["shards"]`` holds each measured budget's shard count."""
    from repro.kernels.fastpath import fast_half_sweep

    if k <= 0:
        raise ValueError("k must be positive")
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    if not candidates:
        raise ValueError("candidates must be non-empty")
    rng = np.random.default_rng(seed)
    n = store.shape[1]
    Y = rng.uniform(-0.1, 0.1, size=(n, k))
    extra = solve_bytes_per_row(k)
    seconds: dict[int, float] = {}
    shards: dict[int, int] = {}
    seen_plans: set[int] = set()
    for budget in sorted(int(b) for b in candidates):
        if budget < MIN_SHARD_BYTES:
            raise ValueError(
                f"candidate budgets must be >= {MIN_SHARD_BYTES}, got {budget}"
            )
        view = ShardStore.open(store.directory, shard_bytes=budget).rows
        n_spans = len(view.shards(extra))
        if n_spans in seen_plans:
            continue  # identical span plan — nothing new to measure
        seen_plans.add(n_spans)
        fast_half_sweep(view, Y, 0.1)  # warm the page cache / first faults
        best = float("inf")
        for _ in range(repeats):
            t0 = perf_counter()
            fast_half_sweep(view, Y, 0.1)
            best = min(best, perf_counter() - t0)
        view.release_pages()
        seconds[budget] = best
        shards[budget] = n_spans
    return fastest(
        "shard", (int(k), bucket(store.nnz)), seconds,
        nnz=store.nnz, shards=shards,
    )


def select_sharding(store: ShardStore, k: int = 10) -> int:
    """The measured-best shard budget for this store and ``k``, cached."""
    return measured_choice(
        "shard", (int(k), bucket(store.nnz)), lambda: measure_sharding(store, k)
    ).choice
