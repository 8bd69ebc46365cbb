"""``solver``/``assembly="auto"`` are measured once per half-sweep, on
the whole matrix, so the verdict cannot depend on how the rows are
partitioned: results are bitwise equal across worker counts and an
out-of-core run, and only whole-matrix contexts are ever probed."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.autotune.choice import bucket, clear_decisions, decisions
from repro.core.als import TrainConfig, train
from repro.datasets.catalog import DatasetSpec
from repro.datasets.shardio import build_shard_store
from repro.datasets.synthetic import generate_ratings
from repro.sparse import CSRMatrix, ShardStore

_SPEC = DatasetSpec(
    name="auto-variants", abbr="AUTV", m=300, n=90, nnz=4000,
    row_alpha=0.9, col_alpha=0.9, rating_min=1.0, rating_max=5.0,
)
_K = 6


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    coo = generate_ratings(_SPEC, seed=11)
    root = tmp_path_factory.mktemp("auto")
    build_shard_store(root / "store", coo)
    return coo, ShardStore.open(root / "store", shard_bytes=1 << 20)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_decisions()
    yield
    clear_decisions()


def _occupied(R: CSRMatrix) -> int:
    return int(np.count_nonzero(R.row_lengths()))


@pytest.mark.parametrize("algorithm", ["als", "implicit"])
def test_auto_is_partition_independent(data, algorithm):
    coo, store = data
    config = TrainConfig(k=_K, iterations=2, solver="auto", assembly="auto")
    runs = [
        train(coo, config, algorithm),
        train(coo, replace(config, workers=2), algorithm),
        train(store, config, algorithm),
    ]
    for run in runs[1:]:
        assert np.array_equal(run.X, runs[0].X)
        assert np.array_equal(run.Y, runs[0].Y)
    R = CSRMatrix.from_coo(coo.deduplicate())
    R_cols = R.transpose_to_csr()
    whole = {(_K, bucket(_occupied(M))) for M in (R, R_cols)}
    assert {d.key for d in decisions("solver")} == whole
    implicit = algorithm == "implicit"
    assert {d.key for d in decisions("assembly")} == {
        (M.shape, M.nnz, _K, implicit) for M in (R, R_cols)
    }
