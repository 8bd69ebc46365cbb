"""Code-variant selection (§III-D + the paper's stated future work).

``search`` implements the paper's empirical approach on the simulated
devices: run every variant × work-group size on the target execution
context and keep the fastest.  ``selector`` implements the
machine-learning approach the paper proposes as future work: learn the
best configuration from (device, dataset) features so new contexts
don't need an exhaustive sweep.

On the host, ``choice`` is the same measure-then-pick loop implemented
once — one cache of :class:`Decision` verdicts keyed by ``(kind,
context)`` — and ``solver``, ``assembly``, ``serving``, ``sharding`` and
``blocks`` are its probes: the S3 solve, the S1/S2 assembly, the
serving tile and precision, the out-of-core shard budget and the
iALS++ block width.
"""

from repro.autotune.search import SearchResult, exhaustive_search, WS_CANDIDATES
from repro.autotune.features import context_features, FEATURE_NAMES
from repro.autotune.selector import VariantSelector, train_default_selector
from repro.autotune.choice import (
    Decision,
    bucket,
    clear_decisions,
    decisions,
    measured_choice,
)
from repro.autotune.assembly import measure_assembly, select_assembly
from repro.autotune.solver import measure_solvers, select_solver
from repro.autotune.serving import measure_serving, select_serving
from repro.autotune.sharding import measure_sharding, select_sharding
from repro.autotune.blocks import block_candidates, measure_blocks, select_block_size

__all__ = [
    "Decision",
    "bucket",
    "clear_decisions",
    "decisions",
    "measured_choice",
    "block_candidates",
    "measure_blocks",
    "select_block_size",
    "measure_sharding",
    "select_sharding",
    "measure_serving",
    "select_serving",
    "measure_solvers",
    "select_solver",
    "measure_assembly",
    "select_assembly",
    "SearchResult",
    "exhaustive_search",
    "WS_CANDIDATES",
    "context_features",
    "FEATURE_NAMES",
    "VariantSelector",
    "train_default_selector",
]
