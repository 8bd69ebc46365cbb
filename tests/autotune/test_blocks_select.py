"""Tests for the empirical iALS++ block-width selector."""

from __future__ import annotations

import math

import pytest

from repro.autotune.blocks import (
    _key,
    block_candidates,
    measure_blocks,
    select_block_size,
)
from repro.autotune.choice import Decision, clear_decisions, decisions


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_decisions()
    yield
    clear_decisions()


class TestCandidates:
    def test_always_includes_full_width(self):
        for k in (4, 8, 64, 128):
            assert block_candidates(k)[-1] == k

    def test_only_narrower_widths_otherwise(self):
        cands = block_candidates(64)
        assert all(d < 64 for d in cands[:-1])
        assert len(cands) <= 5

    def test_tiny_k_degenerates_to_full(self):
        assert block_candidates(4) == (4,)

    def test_bucket_rounds_up_to_powers_of_two(self):
        def nnz_bucket(per_row):
            return _key(8, per_row, "float64")[1]

        assert nnz_bucket(3) == 4
        assert nnz_bucket(64) == 64
        assert nnz_bucket(65) == 128
        assert nnz_bucket(10**6) == 1024  # capped


class TestMeasure:
    def test_times_every_candidate(self):
        decision = measure_blocks(
            8, 8, iterations=2, probe_rows=96, seed=1
        )
        assert isinstance(decision, Decision)
        assert decision.kind == "blocks"
        assert set(decision.seconds) == set(block_candidates(8))
        assert decision.choice in decision.seconds

    def test_winner_reached_the_shared_target(self):
        decision = measure_blocks(8, 8, iterations=2, probe_rows=96, seed=1)
        assert math.isfinite(decision.seconds[decision.choice])
        assert decision.detail["target_loss"] > 0
        assert decision.speedup >= 1.0


class TestSelect:
    def test_caches_per_shape(self):
        first = select_block_size(8, nnz_per_row=8)
        again = select_block_size(8, nnz_per_row=8)
        assert first == again
        assert len(decisions("blocks")) == 1

    def test_clear_empties_cache(self):
        select_block_size(8, nnz_per_row=8)
        clear_decisions()
        assert decisions() == ()

    def test_nearby_shapes_share_a_bucket(self):
        select_block_size(8, nnz_per_row=60)
        select_block_size(8, nnz_per_row=64)
        assert len(decisions("blocks")) == 1
