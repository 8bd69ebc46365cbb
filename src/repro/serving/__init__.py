"""Query-time serving: tiled batched top-N, and the online service.

The serving counterpart of the training-side working-set discipline
(degree-binned assembly tiles, LAPACK batch solves): score user blocks
against the item catalog in byte-budgeted item tiles, carry a running
per-user top-N across tiles, and mask seen items vectorized from the
CSR structure (:mod:`repro.serving.engine`).  On top of the engine sit
the long-lived :class:`RecommendService` — micro-batch coalescing, LRU
result caching, incremental fold-in, atomic hot-swap
(:mod:`repro.serving.service`), the fold-in solver
(:mod:`repro.serving.foldin`) and the closed/open-loop load generators
(:mod:`repro.serving.loadgen`).  See ``docs/serving.md``.
"""

from repro.serving.engine import (
    DEFAULT_TILE_BYTES,
    DEFAULT_USER_BLOCK,
    PAD_ITEM,
    TopNEngine,
    TopNResult,
    topn_from_scores,
)
from repro.serving.foldin import (
    FOLDIN_ALGORITHMS,
    as_new_rows_csr,
    fold_in_factors,
)
from repro.serving.loadgen import LoadReport, run_closed_loop, run_open_loop
from repro.serving.service import (
    ModelState,
    RecommendService,
    ServeResult,
    ServiceEndpoint,
    ServiceStats,
)

__all__ = [
    "DEFAULT_TILE_BYTES",
    "DEFAULT_USER_BLOCK",
    "PAD_ITEM",
    "TopNEngine",
    "TopNResult",
    "topn_from_scores",
    "FOLDIN_ALGORITHMS",
    "as_new_rows_csr",
    "fold_in_factors",
    "LoadReport",
    "run_closed_loop",
    "run_open_loop",
    "ModelState",
    "RecommendService",
    "ServeResult",
    "ServiceEndpoint",
    "ServiceStats",
]
