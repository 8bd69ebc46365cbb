"""Tests for the degree-binned, tiled normal-equations assembly."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import (
    assemble_gram,
    assemble_rhs,
    batched_normal_equations,
    binned_normal_equations,
    scatter_normal_equations,
    tile_bytes_bound,
)
from repro.knobs import configure, resolve
from repro.linalg.normal_equations import DEFAULT_TILE_NNZ
from repro.obs import metrics as obs_metrics
from repro.obs.spans import capture, disable
from repro.sparse import CSRMatrix


def assembly_defaults() -> dict:
    """The resolved assembly knobs (tests start with none configured)."""
    return {
        "mode": resolve("assembly"),
        "tile_nnz": resolve("tile_nnz"),
        "compute_dtype": resolve("assembly_dtype").name,
    }


def reset_assembly() -> None:
    configure(assembly=None, tile_nnz=None, assembly_dtype=None)


def _random_matrix(
    rng: np.random.Generator, m: int, n: int, density: float, skewed: bool = False
) -> CSRMatrix:
    mask = rng.random((m, n)) < density
    if skewed and m >= 4:
        # A few heavy rows plus empty rows — the degree profile the
        # binning exists for.
        mask[0] = True
        mask[1] = rng.random(n) < min(1.0, 4 * density)
        mask[m // 2] = False
    dense = np.where(mask, rng.integers(1, 6, size=(m, n)).astype(np.float32), 0.0)
    return CSRMatrix.from_dense(dense.astype(np.float32))


def _reference(R: CSRMatrix, Y: np.ndarray, lam: float):
    """The per-row Algorithm-2 reference every batched path must match."""
    m, k = R.nrows, Y.shape[1]
    A = np.empty((m, k, k))
    b = np.empty((m, k))
    for u in range(m):
        cols, vals = R.row_slice(u)
        A[u] = assemble_gram(Y, cols, lam)
        b[u] = assemble_rhs(Y, cols, vals)
    return A, b


class TestBinnedMatchesReference:
    @settings(max_examples=25, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=40),
        n=st.integers(min_value=1, max_value=30),
        k=st.integers(min_value=1, max_value=9),
        density=st.floats(min_value=0.0, max_value=0.7),
        skewed=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_property_binned_matches_per_row(self, m, n, k, density, skewed, seed):
        rng = np.random.default_rng(seed)
        R = _random_matrix(rng, m, n, density, skewed)
        Y = rng.standard_normal((n, k))
        A_ref, b_ref = _reference(R, Y, 0.3)
        A, b = binned_normal_equations(R, Y, 0.3)
        np.testing.assert_allclose(A, A_ref, atol=1e-10)
        np.testing.assert_allclose(b, b_ref, atol=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=30),
        n=st.integers(min_value=1, max_value=20),
        k=st.integers(min_value=1, max_value=8),
        tile_nnz=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_property_tiling_never_changes_the_result(self, m, n, k, tile_nnz, seed):
        """Tiny tile budgets force row tiling *and* width segmentation."""
        rng = np.random.default_rng(seed)
        R = _random_matrix(rng, m, n, 0.4, skewed=True)
        Y = rng.standard_normal((n, k))
        A_ref, b_ref = _reference(R, Y, 0.1)
        A, b = binned_normal_equations(R, Y, 0.1, tile_nnz=tile_nnz)
        np.testing.assert_allclose(A, A_ref, atol=1e-10)
        np.testing.assert_allclose(b, b_ref, atol=1e-10)

    @settings(max_examples=15, deadline=None)
    @given(
        m=st.integers(min_value=1, max_value=30),
        n=st.integers(min_value=1, max_value=20),
        k=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_property_float32_compute_stays_close(self, m, n, k, seed):
        rng = np.random.default_rng(seed)
        R = _random_matrix(rng, m, n, 0.4, skewed=True)
        Y = rng.standard_normal((n, k))
        A_ref, b_ref = _reference(R, Y, 0.2)
        A, b = binned_normal_equations(R, Y, 0.2, compute_dtype="float32")
        assert A.dtype == np.float64 and b.dtype == np.float64
        np.testing.assert_allclose(A, A_ref, atol=1e-4, rtol=1e-4)
        np.testing.assert_allclose(b, b_ref, atol=1e-4, rtol=1e-4)

    def test_matches_scatter_exactly_on_fixture(self, small_ratings, rng):
        Y = rng.standard_normal((small_ratings.ncols, 6))
        A_s, b_s = scatter_normal_equations(small_ratings, Y, 0.1)
        A_b, b_b = binned_normal_equations(small_ratings, Y, 0.1)
        np.testing.assert_allclose(A_b, A_s, atol=1e-12)
        np.testing.assert_allclose(b_b, b_s, atol=1e-12)

    def test_empty_rows_get_lambda_identity(self):
        dense = np.zeros((3, 4), dtype=np.float32)
        dense[0, 1] = 2.0
        R = CSRMatrix.from_dense(dense)
        A, b = binned_normal_equations(R, np.ones((4, 3)), 0.7)
        np.testing.assert_allclose(A[1], 0.7 * np.eye(3))
        np.testing.assert_allclose(b[1], np.zeros(3))

    def test_empty_matrix(self):
        R = CSRMatrix(
            (3, 4),
            np.array([], dtype=np.float32),
            np.array([], dtype=np.int64),
            np.zeros(4, dtype=np.int64),
        )
        A, b = binned_normal_equations(R, np.ones((4, 2)), 0.5)
        np.testing.assert_allclose(A, np.broadcast_to(0.5 * np.eye(2), (3, 2, 2)))
        np.testing.assert_allclose(b, np.zeros((3, 2)))

    def test_shape_mismatch_rejected(self, small_ratings, rng):
        with pytest.raises(ValueError):
            binned_normal_equations(small_ratings, rng.standard_normal((3, 5)), 0.1)


class TestTileBudget:
    def test_peak_tile_bytes_gauge_respects_budget(self, rng):
        R = _random_matrix(rng, 60, 40, 0.5, skewed=True)
        k = 7
        Y = rng.standard_normal((40, k))
        for tile_nnz in (16, 128, 4096):
            obs_metrics.reset()
            with capture():
                binned_normal_equations(R, Y, 0.1, tile_nnz=tile_nnz)
            snap = obs_metrics.snapshot()
            peak = snap["gauges"]["assembly.peak_tile_bytes"]
            assert 0 < peak <= tile_bytes_bound(tile_nnz, k)
            assert snap["gauges"]["assembly.bins"] >= 1
            assert snap["counters"]["assembly.tiles"] >= 1

    def test_smaller_budget_means_smaller_peak(self, rng):
        R = _random_matrix(rng, 80, 50, 0.5)
        Y = rng.standard_normal((50, 6))
        peaks = []
        for tile_nnz in (8, 2048):
            obs_metrics.reset()
            with capture():
                binned_normal_equations(R, Y, 0.1, tile_nnz=tile_nnz)
            peaks.append(obs_metrics.snapshot()["gauges"]["assembly.peak_tile_bytes"])
        assert peaks[0] < peaks[1]

    def test_float32_bound_uses_compute_itemsize(self):
        assert tile_bytes_bound(1024, 8, "float32") < tile_bytes_bound(1024, 8)

    def test_bad_tile_budget_rejected(self, small_ratings, rng):
        with pytest.raises(ValueError):
            binned_normal_equations(
                small_ratings, rng.standard_normal((small_ratings.ncols, 2)), 0.1,
                tile_nnz=0,
            )


class TestDispatchAndConfig:
    def test_mode_argument_selects_variant(self, small_ratings, rng):
        Y = rng.standard_normal((small_ratings.ncols, 4))
        A_b, b_b = batched_normal_equations(small_ratings, Y, 0.1, mode="binned")
        A_s, b_s = batched_normal_equations(small_ratings, Y, 0.1, mode="scatter")
        np.testing.assert_allclose(A_b, A_s, atol=1e-12)
        np.testing.assert_allclose(b_b, b_s, atol=1e-12)

    def test_auto_mode_runs_and_matches(self, small_ratings, rng):
        Y = rng.standard_normal((small_ratings.ncols, 4))
        A_a, b_a = batched_normal_equations(small_ratings, Y, 0.1, mode="auto")
        A_b, b_b = batched_normal_equations(small_ratings, Y, 0.1, mode="binned")
        np.testing.assert_allclose(A_a, A_b, atol=1e-12)
        np.testing.assert_allclose(b_a, b_b, atol=1e-12)

    def test_unknown_mode_rejected(self, small_ratings, rng):
        with pytest.raises(ValueError):
            batched_normal_equations(
                small_ratings, rng.standard_normal((small_ratings.ncols, 2)), 0.1,
                mode="magic",
            )

    def test_defaults_resolve_builtin(self):
        d = assembly_defaults()
        assert d == {
            "mode": "binned",
            "tile_nnz": DEFAULT_TILE_NNZ,
            "compute_dtype": "float64",
        }

    def test_configure_assembly_installs_and_resets(self):
        configure(assembly="scatter", tile_nnz=77, assembly_dtype="float32")
        assert assembly_defaults() == {
            "mode": "scatter",
            "tile_nnz": 77,
            "compute_dtype": "float32",
        }
        reset_assembly()
        assert assembly_defaults()["mode"] == "binned"

    def test_configure_assembly_validates(self):
        with pytest.raises(ValueError):
            configure(assembly="magic")
        with pytest.raises(ValueError):
            configure(tile_nnz=0)
        with pytest.raises(ValueError):
            configure(assembly_dtype="float16")

    def test_environment_overrides(self, monkeypatch, small_ratings, rng):
        monkeypatch.setenv("REPRO_ASSEMBLY", "scatter")
        monkeypatch.setenv("REPRO_TILE_NNZ", "123")
        monkeypatch.setenv("REPRO_ASSEMBLY_DTYPE", "float32")
        d = assembly_defaults()
        assert d == {"mode": "scatter", "tile_nnz": 123, "compute_dtype": "float32"}
        # configure wins over the environment...
        configure(assembly="binned")
        assert assembly_defaults()["mode"] == "binned"
        # ...and the explicit argument wins over both.
        Y = rng.standard_normal((small_ratings.ncols, 3))
        A, _ = batched_normal_equations(small_ratings, Y, 0.1, mode="binned")
        assert A.shape == (small_ratings.nrows, 3, 3)

    def test_bad_environment_value_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_ASSEMBLY", "nope")
        with pytest.raises(ValueError):
            assembly_defaults()

    def test_spans_disabled_still_correct(self, small_ratings, rng):
        disable()
        Y = rng.standard_normal((small_ratings.ncols, 3))
        A_ref, b_ref = _reference(small_ratings, Y, 0.1)
        A, b = binned_normal_equations(small_ratings, Y, 0.1)
        np.testing.assert_allclose(A, A_ref, atol=1e-10)
        np.testing.assert_allclose(b, b_ref, atol=1e-10)


class TestAssembleHelpers:
    def test_gram_keeps_inputs_unchanged(self, rng):
        """The cached-diagonal ridge must not alias caller data."""
        Y = rng.standard_normal((9, 4))
        Y0 = Y.copy()
        g1 = assemble_gram(Y, np.array([1, 3, 8]), 0.5)
        g2 = assemble_gram(Y, np.array([1, 3, 8]), 0.5)
        np.testing.assert_array_equal(Y, Y0)
        np.testing.assert_allclose(g1, g2)
        np.testing.assert_allclose(
            g1, Y[[1, 3, 8]].T @ Y[[1, 3, 8]] + 0.5 * np.eye(4)
        )

    def test_no_copy_for_float64_contiguous(self, rng):
        from repro.linalg.normal_equations import _as_float

        Y = np.ascontiguousarray(rng.standard_normal((5, 3)))
        assert _as_float(Y, np.dtype(np.float64)) is Y
        Y32 = Y.astype(np.float32)
        assert _as_float(Y32, np.dtype(np.float32)) is Y32
        assert _as_float(Y32, np.dtype(np.float64)) is not Y32


class TestFusedS2:
    """S2 comes from the S1 tile gather, not from a separate R @ Y pass."""

    def _oracle(self, R, Y, values=None):
        return R.matmat(Y, values=values)

    @pytest.mark.parametrize("tile_nnz", (8, 64, DEFAULT_TILE_NNZ))
    def test_rhs_matches_matmat(self, rng, tile_nnz):
        # Heavy rows wider than small tiles exercise the segmented
        # (cross-segment accumulated) path as well as padded bins.
        R = _random_matrix(rng, 50, 40, 0.3, skewed=True)
        Y = rng.standard_normal((40, 6))
        _, b = binned_normal_equations(R, Y, 0.1, tile_nnz=tile_nnz)
        np.testing.assert_allclose(b, self._oracle(R, Y), rtol=1e-12, atol=1e-12)

    def test_weighted_rhs_uses_override_values(self, rng):
        R = _random_matrix(rng, 40, 30, 0.3, skewed=True)
        Y = rng.standard_normal((30, 5))
        w = 3.0 * R.value.astype(np.float64)
        rv = 1.0 + w
        _, b = binned_normal_equations(
            R, Y, 0.1, tile_nnz=16, nnz_weight=w, rhs_nnz_value=rv
        )
        np.testing.assert_allclose(
            b, self._oracle(R, Y, values=rv), rtol=1e-12, atol=1e-12
        )

    def test_float32_rhs_accumulates_in_float64(self, rng):
        R = _random_matrix(rng, 40, 30, 0.4, skewed=True)
        Y = rng.standard_normal((30, 5))
        _, b = binned_normal_equations(R, Y, 0.1, tile_nnz=16, compute_dtype="float32")
        assert b.dtype == np.float64
        np.testing.assert_allclose(b, self._oracle(R, Y), rtol=1e-5, atol=1e-5)

    def test_no_separate_matmat_pass(self, rng, monkeypatch):
        R = _random_matrix(rng, 30, 20, 0.3)

        def forbidden(*args, **kwargs):
            raise AssertionError("binned assembly must not call matmat")

        monkeypatch.setattr(CSRMatrix, "matmat", forbidden)
        binned_normal_equations(R, rng.standard_normal((20, 4)), 0.1)

    def test_one_s2_span_per_tile(self, rng):
        R = _random_matrix(rng, 60, 40, 0.5, skewed=True)
        Y = rng.standard_normal((40, 7))
        obs_metrics.reset()
        with capture() as tracer:
            binned_normal_equations(R, Y, 0.1, tile_nnz=128)
        s2 = [r for r in tracer.records if r.attrs.get("stage") == "S2"]
        assert len(s2) == obs_metrics.snapshot()["counters"]["assembly.tiles"]
        assert all(r.name == "als.s2.rhs" and r.duration > 0 for r in s2)
        s1 = [r for r in tracer.records if r.attrs.get("stage") == "S1"]
        assert len(s1) == 1
        assert all(s1[0].start <= r.start and r.end <= s1[0].end for r in s2)
