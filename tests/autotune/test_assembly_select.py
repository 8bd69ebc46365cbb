"""Tests for the empirical scatter-vs-binned assembly selector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autotune import assembly as asm
from repro.autotune.choice import clear_decisions
from repro.sparse import CSRMatrix


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_decisions()
    yield
    clear_decisions()


def _matrix(rng, m=40, n=25, density=0.4):
    dense = np.where(
        rng.random((m, n)) < density,
        rng.integers(1, 6, size=(m, n)).astype(np.float32),
        0.0,
    )
    return CSRMatrix.from_dense(dense.astype(np.float32))


class TestMeasure:
    def test_decision_is_well_formed(self, rng):
        R = _matrix(rng)
        d = asm.measure_assembly(R, k=4)
        assert d.kind == "assembly"
        assert d.choice in ("binned", "scatter")
        assert d.seconds["binned"] > 0 and d.seconds["scatter"] > 0
        assert d.speedup >= 1.0
        assert d.detail["sample_rows"] == R.nrows  # small matrix: no subsampling
        assert d.detail["sample_nnz"] == R.nnz

    def test_sample_is_bounded(self, rng):
        R = _matrix(rng, m=200, n=30, density=0.5)
        d = asm.measure_assembly(R, k=4, sample_nnz=100)
        assert d.detail["sample_nnz"] <= 100 + 30  # one row may overshoot the cut
        assert d.detail["sample_rows"] < R.nrows

    def test_invalid_args_rejected(self, rng):
        R = _matrix(rng)
        with pytest.raises(ValueError):
            asm.measure_assembly(R, k=0)
        with pytest.raises(ValueError):
            asm.measure_assembly(R, k=4, repeats=0)


class TestSelect:
    def test_verdict_cached_per_context(self, rng, monkeypatch):
        R = _matrix(rng)
        mode = asm.select_assembly(R, k=4)
        assert mode in ("binned", "scatter")
        calls = {"n": 0}
        real = asm.measure_assembly

        def counting(*a, **kw):
            calls["n"] += 1
            return real(*a, **kw)

        monkeypatch.setattr(asm, "measure_assembly", counting)
        assert asm.select_assembly(R, k=4) == mode  # cache hit: no re-measure
        assert calls["n"] == 0
        asm.select_assembly(R, k=5)  # different k = different context
        assert calls["n"] == 1

    def test_clear_cache_forces_remeasure(self, rng, monkeypatch):
        R = _matrix(rng)
        asm.select_assembly(R, k=4)
        clear_decisions()
        calls = {"n": 0}
        real = asm.measure_assembly

        def counting(*a, **kw):
            calls["n"] += 1
            return real(*a, **kw)

        monkeypatch.setattr(asm, "measure_assembly", counting)
        asm.select_assembly(R, k=4)
        assert calls["n"] == 1
