"""Sparse-matrix substrate built from scratch for the ALS reproduction.

The paper stores the rating matrix ``R`` in compressed sparse row (CSR) form
when updating ``X`` and compressed sparse column (CSC) form when updating
``Y`` (paper §III-A, Fig. 2).  This package provides those structures plus the
degree statistics the performance model consumes.
"""

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix, DegreeBin, RowShard
from repro.sparse.csc import CSCMatrix
from repro.sparse.stats import (
    DegreeStats,
    degree_stats,
    gini_coefficient,
    window_imbalance,
)
from repro.sparse.partition import (
    RowPartition,
    partition_rows_balanced,
    partition_rows_contiguous,
)
from repro.sparse.shards import (
    ShardSpan,
    ShardStore,
    ShardedCSR,
    is_shard_store,
)

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "DegreeBin",
    "RowShard",
    "DegreeStats",
    "degree_stats",
    "gini_coefficient",
    "window_imbalance",
    "RowPartition",
    "partition_rows_balanced",
    "partition_rows_contiguous",
    "ShardSpan",
    "ShardStore",
    "ShardedCSR",
    "is_shard_store",
]
