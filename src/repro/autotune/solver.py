"""The S3 solver probe for ``solver="auto"``.

Times the ``cholesky`` reference, the ``gaussian`` comparator and the
``lapack`` batched variant on a synthetic SPD stack shaped like the
real solve — ``(batch, k, k)`` normal matrices ``WᵀW + λI`` — for a
``(k, batch-bucket)`` context: the crossover between the variants moves
with ``k`` (flops per system) and only coarsely with the batch (fixed
per-call overhead amortized).
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.autotune.choice import Decision, bucket, fastest, measured_choice
from repro.linalg.solvers import SOLVERS

__all__ = ["measure_solvers", "select_solver", "MAX_PROBE_BATCH"]

#: Probe stacks are capped at this many systems: per-system cost is what
#: the measurement estimates, and a 512-system stack already amortizes
#: every per-call constant the variants differ in.
MAX_PROBE_BATCH = 512


def _spd_stack(
    k: int, batch: int, lam: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((batch, k + 3, k))
    A = W.transpose(0, 2, 1) @ W
    idx = np.arange(k)
    A[:, idx, idx] += lam
    b = rng.standard_normal((batch, k))
    return A, b


def measure_solvers(
    k: int,
    batch: int,
    lam: float = 0.1,
    repeats: int = 2,
    seed: int = 0,
) -> Decision:
    """Time every registered S3 variant on an ALS-shaped SPD stack."""
    if k <= 0:
        raise ValueError("k must be positive")
    if batch <= 0:
        raise ValueError("batch must be positive")
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    probe_batch = min(int(batch), MAX_PROBE_BATCH)
    A, b = _spd_stack(k, probe_batch, lam, seed)
    seconds: dict[str, float] = {}
    for name, fn in SOLVERS.items():
        best = float("inf")
        for _ in range(repeats):
            t0 = perf_counter()
            fn(A, b)
            best = min(best, perf_counter() - t0)
        seconds[name] = best
    return fastest(
        "solver", (int(k), bucket(batch)), seconds, probe_batch=probe_batch
    )


def select_solver(k: int, batch: int, lam: float = 0.1) -> str:
    """The measured-best S3 solver for ``(k, batch)``, cached per bucket."""
    return measured_choice(
        "solver", (int(k), bucket(batch)), lambda: measure_solvers(k, batch, lam)
    ).choice
