"""S3 solver variants: one registry for the batched normal-equation solve.

The paper's S3 is the per-row ``smat x = svec`` solve; §V-C compares a
Gaussian-elimination kernel against the Cholesky method and keeps the
latter.  This module is where those code variants live on the host side:

* ``cholesky`` — the from-scratch reference (:mod:`repro.linalg.cholesky`).
  Loops over the k columns with Python-level einsum dispatches: faithful
  to the paper's hand-written kernel, but ~3·k interpreter round-trips
  per half-sweep.
* ``gaussian`` — from-scratch LU with partial pivoting, the §V-C
  comparison point (~2× the flops of Cholesky on SPD systems).
* ``lapack`` — the default.  The occupied ``(batch, k, k)`` stack is
  factored chunk by chunk (8 MB of factor, and at least 512 systems) by
  NumPy's batched ``np.linalg.cholesky`` (a gufunc over LAPACK
  ``dpotrf``) and solved with two blocked batched triangular
  substitutions whose k² work rides on O(k/16) GEMMs.  Chunking keeps the substitutions
  cache-resident and bounds the S3 scratch; no system's result depends
  on it.  When the factorization rejects a chunk, the failing systems
  are isolated per-system (the paper's SPD guarantee makes this a
  never-in-theory robustness path) and recovered with a least-squares
  solve, so one indefinite matrix no longer aborts the whole batch.
  Non-finite systems raise :class:`CholeskyError`, as in the reference.
* ``auto`` — defer to the empirical selector in
  :mod:`repro.autotune.solver`, the §III-D measure-then-pick loop
  applied to S3.

``resolve_solver`` reads the ``solver`` knob (:mod:`repro.knobs`:
argument > ``repro.configure`` > ``REPRO_SOLVER`` > ``lapack``).
``cholesky`` names only the reference.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.knobs import SOLVER_MODES, resolve
from repro.linalg.cholesky import CholeskyError, as_float64_stack
from repro.linalg.gaussian import batched_gaussian_solve
from repro.obs import metrics as obs_metrics
from repro.obs.spans import is_enabled

__all__ = [
    "SOLVER_MODES",
    "SOLVERS",
    "batched_lapack_solve",
    "lapack_cholesky_factor",
    "resolve_solver",
    "solver_fn",
]


def resolve_solver(solver: str | None = None) -> str:
    """The effective S3 solver name (the ``solver`` knob)."""
    return resolve("solver", solver)


def lapack_cholesky_factor(a: np.ndarray) -> np.ndarray:
    """Batched lower-Cholesky via LAPACK, with the reference error type.

    Same contract as :func:`repro.linalg.cholesky.batched_cholesky_factor`
    (raises :class:`CholeskyError` naming the first offending system) but
    one ``dpotrf`` gufunc call for the whole stack.
    """
    a = as_float64_stack(a, 3)
    if a.shape[1] != a.shape[2]:
        raise ValueError("input must have shape (batch, k, k)")
    L = _factor(a)
    if L is None:
        _raise_first(_indefinite_mask(a), 0, "not positive definite")
    return L


def _indefinite_mask(a: np.ndarray) -> np.ndarray:
    """Boolean mask of systems whose individual factorization fails."""
    bad = np.zeros(a.shape[0], dtype=bool)
    for i in range(a.shape[0]):
        try:
            np.linalg.cholesky(a[i])
        except np.linalg.LinAlgError:
            bad[i] = True
    if not bad.any():
        # The batched gufunc rejected the stack but every system factors
        # alone — should not happen; flag everything rather than loop.
        bad[:] = True
    return bad


#: Panel width of the blocked substitution: within a panel the rows are
#: eliminated one vectorized step at a time, and the trailing update is
#: a single batched GEMM — O(k/block) matmuls carry the k² work instead
#: of k dot products, and (unlike ``np.linalg.solve`` on the factor) no
#: LU of an already-triangular matrix is paid.
_TRSM_BLOCK = 16


def _triangular_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x`` with ``L Lᵀ x = b`` via two blocked batched substitutions."""
    k = b.shape[1]
    block = _TRSM_BLOCK
    # Forward: L z = b, by lower panels.
    z = b.copy()
    for s in range(0, k, block):
        e = min(s + block, k)
        for i in range(s, e):
            if i > s:
                z[:, i] -= np.einsum("bj,bj->b", L[:, i, s:i], z[:, s:i])
            z[:, i] /= L[:, i, i]
        if e < k:
            z[:, e:] -= np.matmul(L[:, e:, s:e], z[:, s:e, None])[:, :, 0]
    # Backward: Lᵀ x = z, by upper panels (indexing L column-wise keeps
    # the factor in place — no (batch, k, k) transposed copy).
    x = z
    for e in range(k, 0, -block):
        s = max(e - block, 0)
        for i in range(e - 1, s - 1, -1):
            if i < e - 1:
                x[:, i] -= np.einsum("bj,bj->b", L[:, i + 1:e, i], x[:, i + 1:e])
            x[:, i] /= L[:, i, i]
        if s > 0:
            x[:, :s] -= np.matmul(
                L[:, s:e, :s].transpose(0, 2, 1), x[:, s:e, None]
            )[:, :, 0]
    return x


#: Factor bytes per chunk of :func:`batched_lapack_solve` (1024 systems at
#: k=32): small enough that a chunk's factor stays in cache between the
#: factorization and the two substitutions, and that S3 scratch stays
#: bounded whatever the batch.
_CHUNK_BYTES = 8 << 20

#: Fewest systems per chunk.  NumPy's (g)ufunc loops release the GIL only
#: above 500 iterations: a smaller chunk would hold it through the whole
#: ``dpotrf`` loop and serialize the solves of concurrent sweep workers.
#: Above k=45 this floor, not ``_CHUNK_BYTES``, sets the chunk (16 MB of
#: factor at k=64).
_MIN_CHUNK_SYSTEMS = 512


def _chunk_systems(k: int) -> int:
    """Systems per chunk of :func:`batched_lapack_solve` at width ``k``."""
    return max(_MIN_CHUNK_SYSTEMS, _CHUNK_BYTES // max(1, 8 * k * k))


def batched_lapack_solve(
    a: np.ndarray, b: np.ndarray, fallback: bool = True
) -> np.ndarray:
    """Solve a stack of SPD systems with LAPACK-class batched kernels.

    The stack is solved in chunks of :func:`_chunk_systems` systems; each
    system's result is bitwise the same as solving it alone.
    ``fallback=True`` (the sweep default) degrades gracefully when the
    factorization rejects a chunk: PD systems are still solved through
    their Cholesky factors, and the indefinite ones fall back to a
    per-system least-squares solve (counted in the
    ``solver.lapack.fallback_systems`` metric).  ``fallback=False``
    raises :class:`CholeskyError` like the reference implementation.
    A system with a non-finite entry raises :class:`CholeskyError` in
    both modes.  Errors name the system's index in the whole stack.
    """
    a = as_float64_stack(a, 3)
    b = as_float64_stack(b, 2, "rhs")
    if a.shape[1] != a.shape[2]:
        raise ValueError("input must have shape (batch, k, k)")
    if b.shape[0] != a.shape[0] or b.shape[1] != a.shape[1]:
        raise ValueError("rhs must have shape (batch, k)")
    x = np.empty_like(b)
    step = _chunk_systems(a.shape[1])
    for s in range(0, a.shape[0], step):
        x[s:s + step] = _solve_chunk(a[s:s + step], b[s:s + step], s, fallback)
    return x


def _solve_chunk(
    a: np.ndarray, b: np.ndarray, offset: int, fallback: bool
) -> np.ndarray:
    L = _factor(a, offset)
    if L is not None:
        return _triangular_solve(L, b)
    bad = _indefinite_mask(a)
    if not fallback:
        _raise_first(bad, offset, "not positive definite")
    return _solve_with_fallback(a, b, bad)


def _factor(a: np.ndarray, offset: int = 0) -> np.ndarray | None:
    """LAPACK factor of the stack ``a``, or ``None`` if ``dpotrf`` rejects it.

    Raises :class:`CholeskyError` for a system with a non-finite entry,
    which ``dpotrf`` may factor without complaint.  On success that
    shows as a non-finite diagonal in its factor (a NaN or inf in the
    lower triangle reaches every later pivot), an O(batch·k) check; on
    rejection ``a`` itself is checked before any recovery.
    """
    try:
        L = np.linalg.cholesky(a)
        finite = np.isfinite(np.diagonal(L, axis1=1, axis2=2)).all(axis=1)
    except np.linalg.LinAlgError:
        L = None
        finite = np.isfinite(a).all(axis=(1, 2))
    _raise_first(~finite, offset, "has non-finite entries")
    return L


def _raise_first(mask: np.ndarray, offset: int, what: str) -> None:
    if mask.any():
        idx = offset + int(np.nonzero(mask)[0][0])
        raise CholeskyError(f"matrix {idx} {what}")


def _solve_with_fallback(a: np.ndarray, b: np.ndarray, bad: np.ndarray) -> np.ndarray:
    good = ~bad
    x = np.empty_like(b)
    if good.any():
        x[good] = _triangular_solve(np.linalg.cholesky(a[good]), b[good])
    for i in np.nonzero(bad)[0]:
        x[i] = np.linalg.lstsq(a[i], b[i], rcond=None)[0]
    if is_enabled():
        obs_metrics.inc("solver.lapack.fallback_systems", int(bad.sum()))
    return x


def _reference_cholesky(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Imported lazily at registry-build time below to avoid a cycle with
    # repro.linalg.cholesky's own import of this module (there is none
    # today; the indirection just keeps the table flat).
    from repro.linalg.cholesky import batched_cholesky_solve

    return batched_cholesky_solve(a, b)


#: name -> batched solve ``(A, b) -> x`` over ``(batch, k, k)`` stacks.
SOLVERS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "cholesky": _reference_cholesky,
    "gaussian": batched_gaussian_solve,
    "lapack": batched_lapack_solve,
}


def solver_fn(name: str) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """The batched solve for a concrete (non-``auto``) solver name."""
    try:
        return SOLVERS[name]
    except KeyError:
        raise ValueError(
            f"solver must be one of {tuple(SOLVERS)}, got {name!r}"
        ) from None
