"""Measured shard-budget selection: candidate dedup, caching, validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autotune.choice import clear_decisions, decisions
from repro.autotune.sharding import (
    SHARD_CANDIDATES,
    measure_sharding,
    select_sharding,
)
from repro.datasets.catalog import DatasetSpec
from repro.datasets.shardio import build_shard_store
from repro.datasets.synthetic import generate_ratings
from repro.sparse.shards import MIN_SHARD_BYTES, ShardStore

_SPEC = DatasetSpec(
    name="tune", abbr="TUNE", m=400, n=60, nnz=5000,
    row_alpha=0.9, col_alpha=0.9, rating_min=1.0, rating_max=5.0,
)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    dest = tmp_path_factory.mktemp("tune") / "s"
    build_shard_store(dest, generate_ratings(_SPEC, seed=2))
    return ShardStore.open(dest)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_decisions()
    yield
    clear_decisions()


class TestMeasure:
    def test_returns_a_winner_among_candidates(self, store):
        decision = measure_sharding(store, k=4)
        assert decision.choice in decision.seconds
        assert decision.choice == min(decision.seconds, key=decision.seconds.get)
        assert decision.detail["nnz"] == store.nnz
        assert decision.speedup >= 1.0

    def test_degenerate_plans_are_measured_once(self, store):
        # The store is tiny: every candidate collapses to one resident
        # shard, so exactly one measurement should remain after dedup.
        decision = measure_sharding(store, k=4)
        assert set(decision.detail["shards"].values()) == {1}
        assert len(decision.seconds) == 1

    def test_validation(self, store):
        with pytest.raises(ValueError, match="k must be positive"):
            measure_sharding(store, k=0)
        with pytest.raises(ValueError, match="repeats"):
            measure_sharding(store, k=4, repeats=0)
        with pytest.raises(ValueError, match="non-empty"):
            measure_sharding(store, k=4, candidates=())
        with pytest.raises(ValueError, match="candidate budgets"):
            measure_sharding(store, k=4, candidates=(MIN_SHARD_BYTES - 1,))

    def test_candidate_grid_is_sane(self):
        assert all(b >= MIN_SHARD_BYTES for b in SHARD_CANDIDATES)
        assert list(SHARD_CANDIDATES) == sorted(SHARD_CANDIDATES)


class TestSelect:
    def test_caches_per_context(self, store):
        select_sharding(store, k=4)
        (first,) = decisions("shard")
        select_sharding(store, k=4)
        assert decisions("shard") == (first,)  # same (k, nnz-bucket): cached
        select_sharding(store, k=5)
        assert len(decisions("shard")) == 2

    def test_clear_forgets(self, store):
        select_sharding(store, k=4)
        clear_decisions()
        assert decisions() == ()
