"""The serving probe for ``serve_tile_bytes``/``serve_dtype="auto"``.

Times the tiled top-N engine over a grid of ``(tile_bytes, dtype)``
candidates on synthetic factors shaped like the real catalog, for a
``(k, catalog-bucket)`` context: the best tile is driven by cache
footprint relative to the score-buffer working set, which moves with
``k`` and only coarsely with the exact item count.

The dtype verdict is a *throughput* verdict: float32 scoring halves
memory traffic but rounds scores, so near-tied items can swap ranks
versus the float64 reference.  Engines default to float64; ``"auto"``
opts into the measured winner.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.autotune.choice import Decision, bucket, fastest, measured_choice

__all__ = [
    "measure_serving",
    "select_serving",
    "TILE_CANDIDATES",
    "DTYPE_CANDIDATES",
    "PROBE_USERS",
]

#: Score-buffer budgets probed, spanning L2-resident to LLC-sized tiles.
TILE_CANDIDATES = (1 << 20, 1 << 22, 1 << 23, 1 << 24)

DTYPE_CANDIDATES = ("float32", "float64")

#: Users in the probe block: enough to amortize per-tile constants, small
#: enough that the probe never costs more than a handful of real queries.
PROBE_USERS = 512


def measure_serving(
    n_items: int,
    k: int,
    top_n: int = 10,
    repeats: int = 2,
    seed: int = 0,
    tile_candidates: tuple[int, ...] = TILE_CANDIDATES,
    dtype_candidates: tuple[str, ...] = DTYPE_CANDIDATES,
) -> Decision:
    """Time one probe block per ``(tile_bytes, dtype)`` candidate; the
    verdict's ``choice`` is that pair."""
    from repro.serving.engine import TopNEngine

    if n_items <= 0 or k <= 0:
        raise ValueError("n_items and k must be positive")
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    rng = np.random.default_rng(seed)
    users = min(PROBE_USERS, max(1, n_items))
    X = rng.standard_normal((users, k))
    Y = rng.standard_normal((n_items, k))
    ids = np.arange(users)
    seconds: dict[tuple[int, str], float] = {}
    for dtype in dtype_candidates:
        for tile_bytes in tile_candidates:
            engine = TopNEngine(X, Y, tile_bytes=tile_bytes, dtype=dtype)
            engine.query(ids[:8], n=top_n)  # warm the cast + first tiles
            best = float("inf")
            for _ in range(repeats):
                t0 = perf_counter()
                engine.query(ids, n=top_n)
                best = min(best, perf_counter() - t0)
            seconds[(int(tile_bytes), dtype)] = best
    return fastest(
        "serve", (int(k), bucket(n_items)), seconds,
        n_items=int(n_items), probe_users=users, top_n=top_n,
    )


def select_serving(n_items: int, k: int) -> tuple[int, str]:
    """The measured-best ``(tile_bytes, dtype)`` for ``(n_items, k)``."""
    return measured_choice(
        "serve", (int(k), bucket(n_items)), lambda: measure_serving(n_items, k)
    ).choice
