"""Tests for the S3 solver registry and the LAPACK-class batched solve."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg import (
    CholeskyError,
    SOLVER_MODES,
    SOLVERS,
    as_float64_stack,
    batched_cholesky_solve,
    batched_gaussian_solve,
    batched_lapack_solve,
    lapack_cholesky_factor,
    resolve_solver,
    solver_fn,
)
from repro.knobs import configure
from repro.linalg.solvers import _chunk_systems
from repro.obs import metrics as obs_metrics
from repro.obs.spans import capture


def spd_stack(
    rng: np.random.Generator, batch: int, k: int, lam: float = 0.1
) -> tuple[np.ndarray, np.ndarray]:
    """An ALS-shaped stack of normal equations ``WᵀW + λI``, with RHS."""
    W = rng.standard_normal((batch, k + 3, k))
    A = W.transpose(0, 2, 1) @ W
    idx = np.arange(k)
    A[:, idx, idx] += lam
    return A, rng.standard_normal((batch, k))


class TestVariantAgreement:
    """The three variants are code variants of ONE solve: same answer."""

    @pytest.mark.parametrize("k", [1, 10, 64])
    def test_all_variants_agree(self, rng, k):
        A, b = spd_stack(rng, 17, k)
        x_ref = batched_cholesky_solve(A, b)
        np.testing.assert_allclose(
            batched_lapack_solve(A, b), x_ref, rtol=1e-10, atol=1e-10
        )
        np.testing.assert_allclose(
            batched_gaussian_solve(A, b), x_ref, rtol=1e-10, atol=1e-10
        )

    @pytest.mark.parametrize("batch", [1, 2, 7, 257])
    def test_skewed_batch_sizes(self, rng, batch):
        A, b = spd_stack(rng, batch, 11)
        np.testing.assert_allclose(
            batched_lapack_solve(A, b),
            batched_cholesky_solve(A, b),
            rtol=1e-10,
            atol=1e-10,
        )

    def test_near_singular_systems(self, rng):
        # λ barely above machine noise: conditioning is poor but all
        # variants must still agree on the (well-defined) solution.
        A, b = spd_stack(rng, 9, 8, lam=1e-8)
        x_ref = batched_cholesky_solve(A, b)
        x_lap = batched_lapack_solve(A, b)
        residual_ref = np.einsum("bij,bj->bi", A, x_ref) - b
        residual_lap = np.einsum("bij,bj->bi", A, x_lap) - b
        np.testing.assert_allclose(residual_lap, residual_ref, atol=1e-5)

    def test_solves_the_system(self, rng):
        A, b = spd_stack(rng, 13, 20)
        x = batched_lapack_solve(A, b)
        np.testing.assert_allclose(
            np.einsum("bij,bj->bi", A, x), b, rtol=1e-8, atol=1e-8
        )


class TestLapackFactor:
    def test_matches_numpy(self, rng):
        A, _ = spd_stack(rng, 6, 9)
        np.testing.assert_allclose(
            lapack_cholesky_factor(A), np.linalg.cholesky(A), rtol=1e-12
        )

    def test_indefinite_member_reported_by_index(self, rng):
        A, _ = spd_stack(rng, 4, 3)
        A[2] = -np.eye(3)
        with pytest.raises(CholeskyError, match="matrix 2"):
            lapack_cholesky_factor(A)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="batch, k, k"):
            lapack_cholesky_factor(np.ones((2, 3, 4)))


class TestFallback:
    def test_one_bad_system_does_not_abort_the_batch(self, rng):
        A, b = spd_stack(rng, 5, 4)
        A[3] = -np.eye(4)  # indefinite: the batched dpotrf rejects the stack
        x = batched_lapack_solve(A, b)
        good = [0, 1, 2, 4]
        np.testing.assert_allclose(
            x[good],
            batched_cholesky_solve(A[good], b[good]),
            rtol=1e-10,
            atol=1e-10,
        )
        # the bad system got the least-squares answer, not garbage
        np.testing.assert_allclose(
            x[3], np.linalg.lstsq(A[3], b[3], rcond=None)[0], rtol=1e-10
        )

    def test_fallback_counted_in_metrics(self, rng):
        A, b = spd_stack(rng, 4, 3)
        A[1] = -np.eye(3)
        obs_metrics.reset()
        with capture():
            batched_lapack_solve(A, b)
        counters = obs_metrics.snapshot()["counters"]
        assert counters["solver.lapack.fallback_systems"] == 1.0

    def test_fallback_disabled_raises_like_reference(self, rng):
        A, b = spd_stack(rng, 4, 3)
        A[1] = -np.eye(3)
        with pytest.raises(CholeskyError, match="matrix 1"):
            batched_lapack_solve(A, b, fallback=False)

    def test_shape_validation(self, rng):
        A, b = spd_stack(rng, 3, 4)
        with pytest.raises(ValueError, match="rhs"):
            batched_lapack_solve(A, b[:, :3])
        with pytest.raises(ValueError, match="batch, k, k"):
            batched_lapack_solve(np.ones((2, 3, 4)), np.ones((2, 3)))


def _chunk_sizes(k: int) -> list[int]:
    step = _chunk_systems(k)
    return [step - 1, step, step + 1, 2 * step + 3]


class TestChunking:
    """The stack is solved in cache-sized chunks; no result depends on it."""

    @pytest.mark.parametrize("k", [10, 64])
    def test_chunked_stacks_match_reference(self, rng, k):
        sizes = _chunk_sizes(k)
        A, b = spd_stack(rng, max(sizes), k)
        x_ref = batched_cholesky_solve(A, b)
        for batch in sizes:
            np.testing.assert_allclose(
                batched_lapack_solve(A[:batch], b[:batch]),
                x_ref[:batch],
                rtol=1e-10,
                atol=1e-10,
            )

    @pytest.mark.parametrize("k", [10, 64])
    def test_chunked_stacks_bitwise_equal_single_solves(self, rng, k):
        sizes = _chunk_sizes(k)
        A, b = spd_stack(rng, max(sizes), k)
        alone = np.stack(
            [batched_lapack_solve(A[i:i + 1], b[i:i + 1])[0] for i in range(len(A))]
        )
        for batch in sizes:
            x = batched_lapack_solve(A[:batch], b[:batch])
            assert np.array_equal(x, alone[:batch])

    def test_indefinite_in_second_chunk(self, rng):
        k = 16
        step = _chunk_systems(k)
        A, b = spd_stack(rng, step + 40, k)
        bad = step + 17
        A[bad] = -np.eye(k)
        with pytest.raises(CholeskyError, match=f"matrix {bad} not positive"):
            batched_lapack_solve(A, b, fallback=False)
        obs_metrics.reset()
        with capture():
            x = batched_lapack_solve(A, b)
        counters = obs_metrics.snapshot()["counters"]
        assert counters["solver.lapack.fallback_systems"] == 1.0
        good = np.arange(A.shape[0]) != bad
        np.testing.assert_allclose(
            x[good], batched_cholesky_solve(A[good], b[good]), rtol=1e-10, atol=1e-10
        )

    def test_scratch_bounded_by_chunk(self, rng):
        # A k=64 stack of > 100 MB: the solve's own allocations stay well
        # below the stack (a whole-stack factor would be a second copy).
        k = 64
        A1, b1 = spd_stack(rng, 1, k)
        batch = -(-100_000_000 // A1.nbytes) + 1
        A = np.repeat(A1, batch, axis=0)
        b = np.repeat(b1, batch, axis=0)
        assert A.nbytes >= 100_000_000
        tracemalloc.start()
        try:
            x = batched_lapack_solve(A, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < A.nbytes / 4
        np.testing.assert_array_equal(x, np.repeat(x[:1], batch, axis=0))


def _poison(A: np.ndarray, idx: int, where: str, value: float) -> None:
    if where == "diagonal":
        A[idx, 5, 5] = value
    else:  # symmetric off-diagonal pair
        A[idx, 7, 3] = A[idx, 3, 7] = value


class TestNonFinite:
    """A NaN or inf system raises like the reference, never a silent answer."""

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["diagonal", "off-diagonal"])
    @pytest.mark.parametrize("fallback", [True, False])
    def test_raises_naming_global_index(self, rng, value, where, fallback):
        k = 32
        A, b = spd_stack(rng, _chunk_systems(k) + 30, k)
        idx = _chunk_systems(k) + 9  # in the second chunk
        _poison(A, idx, where, value)
        with pytest.raises(CholeskyError):
            batched_cholesky_solve(A, b)
        obs_metrics.reset()
        with capture():
            with pytest.raises(CholeskyError, match=f"matrix {idx} has non-finite"):
                batched_lapack_solve(A, b, fallback=fallback)
        counters = obs_metrics.snapshot()["counters"]
        assert "solver.lapack.fallback_systems" not in counters

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_beside_indefinite_not_recovered(self, rng, value):
        A, b = spd_stack(rng, 6, 8)
        A[1] = -np.eye(8)  # the chunk's factorization is rejected
        _poison(A, 4, "diagonal", value)
        obs_metrics.reset()
        with capture():
            with pytest.raises(CholeskyError, match="matrix 4 has non-finite"):
                batched_lapack_solve(A, b)
        counters = obs_metrics.snapshot()["counters"]
        assert "solver.lapack.fallback_systems" not in counters

    def test_factor_rejects_non_finite(self, rng):
        A, _ = spd_stack(rng, 4, 6)
        A[2, 1, 1] = np.nan
        with pytest.raises(CholeskyError, match="matrix 2 has non-finite"):
            lapack_cholesky_factor(A)


class TestAsFloat64Stack:
    """Satellite of PR 3: validation must not copy already-conforming input."""

    def test_float64_contiguous_returned_unchanged(self, rng):
        a = rng.standard_normal((4, 3, 3))
        assert as_float64_stack(a, 3) is a

    def test_float32_converted(self, rng):
        a = rng.standard_normal((4, 3, 3)).astype(np.float32)
        out = as_float64_stack(a, 3)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out, a)

    def test_fortran_order_made_contiguous(self, rng):
        a = np.asfortranarray(rng.standard_normal((4, 3, 3)))
        out = as_float64_stack(a, 3)
        assert out.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(out, a)

    def test_wrong_ndim_rejected(self):
        with pytest.raises(ValueError, match="3-D"):
            as_float64_stack(np.ones((2, 2)), 3)


class TestRegistryAndResolution:
    def test_registry_covers_concrete_modes(self):
        assert set(SOLVERS) == set(SOLVER_MODES) - {"auto"}

    def test_solver_fn_unknown_name(self):
        with pytest.raises(ValueError, match="newton"):
            solver_fn("newton")

    def test_resolve_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER", "gaussian")
        configure(solver="cholesky")
        assert resolve_solver("lapack") == "lapack"

    def test_resolve_configured_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER", "gaussian")
        configure(solver="lapack")
        assert resolve_solver() == "lapack"

    def test_resolve_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SOLVER", "gaussian")
        assert resolve_solver() == "gaussian"

    def test_resolve_default_is_lapack(self, monkeypatch):
        monkeypatch.delenv("REPRO_SOLVER", raising=False)
        assert resolve_solver() == "lapack"

    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            resolve_solver("qr")
        with pytest.raises(ValueError):
            configure(solver="qr")


@settings(max_examples=25, deadline=None)
@given(
    batch=st.integers(min_value=1, max_value=12),
    k=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31),
    lam=st.floats(min_value=1e-4, max_value=10.0),
)
def test_property_lapack_matches_reference(batch, k, seed, lam):
    """For any ALS-shaped stack, lapack and the reference agree to 1e-10."""
    rng = np.random.default_rng(seed)
    A, b = spd_stack(rng, batch, k, lam)
    np.testing.assert_allclose(
        batched_lapack_solve(A, b),
        batched_cholesky_solve(A, b),
        rtol=1e-10,
        atol=1e-10,
    )
