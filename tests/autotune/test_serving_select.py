"""Tests for the serving-config autotuner (measure → pick → cache)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.autotune.serving as serving_auto
from repro.autotune import (
    Decision,
    bucket,
    clear_decisions,
    decisions,
    measure_serving,
    select_serving,
)
from repro.autotune.choice import fastest


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_decisions()
    yield
    clear_decisions()


FAST_GRID = dict(tile_candidates=(1 << 18, 1 << 20), repeats=1)


class TestMeasureServing:
    def test_probes_full_grid_and_picks_winner(self):
        decision = measure_serving(300, 8, **FAST_GRID)
        assert set(decision.seconds) == {
            (tile, dtype)
            for tile in FAST_GRID["tile_candidates"]
            for dtype in ("float32", "float64")
        }
        # Every candidate scores the same probe block, so the fastest is
        # the highest-throughput one.
        assert decision.choice == min(decision.seconds, key=decision.seconds.get)
        assert decision.speedup >= 1.0
        assert decision.key == (8, 512)

    def test_valid_engine_config(self):
        """The verdict must be directly usable as engine knobs."""
        from repro.serving.engine import TopNEngine

        tile_bytes, dtype = measure_serving(150, 4, **FAST_GRID).choice
        assert dtype in ("float32", "float64")
        rng = np.random.default_rng(0)
        engine = TopNEngine(
            rng.standard_normal((10, 4)),
            rng.standard_normal((150, 4)),
            tile_bytes=tile_bytes,
            dtype=dtype,
        )
        assert engine.query(np.arange(10), n=5).items.shape == (10, 5)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            measure_serving(0, 4)
        with pytest.raises(ValueError):
            measure_serving(100, -1)
        with pytest.raises(ValueError):
            measure_serving(100, 4, repeats=0)


class TestSelectServing:
    def test_caches_per_bucket(self, monkeypatch):
        calls = []
        real = serving_auto.measure_serving

        def counting(n_items, k, **kwargs):
            calls.append((n_items, k))
            return real(n_items, k, **FAST_GRID)

        monkeypatch.setattr(serving_auto, "measure_serving", counting)
        first = select_serving(300, 8)
        again = select_serving(300, 8)
        assert again is first
        # 290 hashes to the same power-of-two bucket as 300 -> cache hit
        assert select_serving(290, 8) is first
        assert len(calls) == 1
        # different k or a different bucket re-measures
        select_serving(300, 4)
        select_serving(1100, 8)
        assert len(calls) == 3

    def test_cached_decisions_enumerable(self, monkeypatch):
        def canned(n_items, k, **kwargs):
            return fastest(
                "serve", (k, bucket(n_items)), {(1 << 20, "float32"): 1.0}
            )

        monkeypatch.setattr(serving_auto, "measure_serving", canned)
        select_serving(64, 2)
        select_serving(64, 3)
        verdicts = decisions("serve")
        assert len(verdicts) == 2
        assert all(isinstance(d, Decision) for d in verdicts)
