"""Training side of a ledger run: timed fits, output checks, traced rebuild.

The end-to-end number is the wall time of a whole ``Recommender.fit``.
The traced run rebuilds that fit from the public layer calls the trainer
makes (views, CSC transpose, factor init, one half-sweep per side per
iteration, loss) and times each call; the rebuilt factors must equal the
``Recommender.fit`` factors bit for bit, so the layer times describe the
code that actually trains.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from common import Absent, Spans, bind_or_absent, median, resolve

#: Top-level layers of one fit; together they cover its wall time.
FIT_LAYERS = (
    "sparse.views_s",
    "sparse.transpose_s",
    "core.init_s",
    "parallel.half_sweep_s.rows",
    "parallel.half_sweep_s.cols",
    "core.loss_s",
)
#: Layers inside one half-sweep, measured on the last iteration's inputs.
SWEEP_LAYERS = ("linalg.assemble_s", "sparse.matmat_s", "linalg.solve_s")

LOSS_RTOL = 1e-6  # final loss vs the independent reference fit


def fit(ratings, k: int, iterations: int, algorithm: str):
    """One ``Recommender.fit`` with library defaults; ``(rec, seconds)``."""
    from repro.api import Recommender

    rec = Recommender(k=k, iterations=iterations, algorithm=algorithm)
    t0 = perf_counter()
    rec.fit(ratings)
    return rec, perf_counter() - t0


def losses(rec) -> list[float]:
    """Per-iteration training loss of a fitted recommender."""
    return [float(getattr(h, "loss", h)) for h in rec.model.history]


def bitwise_equal(a, b) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# independent reference: exact-degree batches, LAPACK gesv, own loss
# ----------------------------------------------------------------------
def _reference_sweep(R, F, F_prev, lam, alpha):
    """Solve every occupied row of CSR ``R`` against the fixed factors ``F``.

    Rows are grouped by their exact degree and solved with
    ``np.linalg.solve`` — a different grouping and solver from the
    library's binned assembly and Cholesky, so agreement is a real check.
    """
    lengths = np.diff(R.row_ptr)
    k = F.shape[1]
    out = np.zeros((R.nrows, k)) if F_prev is None else np.array(F_prev, dtype=np.float64)
    eye = lam * np.eye(k)
    gram = F.T @ F if alpha is not None else None
    for deg in np.unique(lengths[lengths > 0]):
        rows = np.nonzero(lengths == deg)[0]
        idx = R.row_ptr[rows][:, None] + np.arange(deg)[None, :]
        G = F[R.col_idx[idx]]  # (rows, deg, k)
        r = R.value[idx].astype(np.float64)
        Gt = G.transpose(0, 2, 1)
        if alpha is None:
            A = Gt @ G + eye
            b = (Gt @ r[:, :, None])[:, :, 0]
        else:
            A = (Gt * (alpha * r)[:, None, :]) @ G + gram + eye
            b = (Gt @ (1.0 + alpha * r)[:, :, None])[:, :, 0]
        out[rows] = np.linalg.solve(A, b[:, :, None])[:, :, 0]
    return out


def reference_loss(coo, X, Y, lam, alpha) -> float:
    """Explicit Eq. 2, or the confidence-weighted observed-entry loss."""
    pred = np.einsum("ij,ij->i", X[coo.row], Y[coo.col])
    r = coo.value.astype(np.float64)
    if alpha is None:
        fit_term = float(((r - pred) ** 2).sum())
    else:
        fit_term = float(((1.0 + alpha * r) * (1.0 - pred) ** 2).sum())
    return fit_term + lam * (float((X * X).sum()) + float((Y * Y).sum()))


def reference_fit(csr, rec, iterations: int) -> tuple[float, float]:
    """``(loss at the initial factors, final loss)`` of a plain reference fit.

    Starts from the library's initial factors (``init_factors`` with the
    fitted config's seed and scale), so the two fits follow the same path.
    """
    from repro.core.init import init_factors

    cfg = rec.config
    alpha = float(cfg.alpha) if rec.algorithm == "implicit" else None
    m, n = csr.shape
    X, Y = init_factors(m, n, cfg.k, seed=cfg.seed, scale=cfg.init_scale)
    coo = csr.to_coo()
    csc_rows = _transpose(csr)
    start = reference_loss(coo, X, Y, cfg.lam, alpha)
    for _ in range(iterations):
        X = _reference_sweep(csr, Y, X if alpha is None else None, cfg.lam, alpha)
        Y = _reference_sweep(csc_rows, X, Y if alpha is None else None, cfg.lam, alpha)
    return start, reference_loss(coo, X, Y, cfg.lam, alpha)


def _transpose(csr):
    from repro.sparse.coo import COOMatrix
    from repro.sparse.csr import CSRMatrix

    coo = csr.to_coo()
    return CSRMatrix.from_coo(
        COOMatrix((csr.shape[1], csr.shape[0]), coo.col, coo.row, coo.value)
    )


def check_fit(rec, csr, iterations: int) -> list[str]:
    """Output checks of one fit; an empty list means it passed."""
    problems = []
    X, Y = np.asarray(rec.model.X), np.asarray(rec.model.Y)
    if not (np.isfinite(X).all() and np.isfinite(Y).all()):
        problems.append("factors are not finite")
    start, ref = reference_fit(csr, rec, iterations)
    trail = [start] + losses(rec)
    for before, after in zip(trail, trail[1:]):
        if after > before * (1 + 1e-12):
            problems.append(f"loss increased: {before!r} -> {after!r}")
    final = trail[-1]
    if not abs(final - ref) <= LOSS_RTOL * abs(ref):
        problems.append(
            f"final loss {final!r} differs from the reference {ref!r} "
            f"by more than {LOSS_RTOL:g} relative"
        )
    return problems


# ----------------------------------------------------------------------
# traced rebuild of Recommender.fit
# ----------------------------------------------------------------------
def traced_fit(ratings, rec, iterations: int, spans: Spans):
    """Rebuild ``rec``'s fit from public layer calls, timing each one.

    Returns ``(X, Y, wall_seconds, last_inputs)``; ``last_inputs`` holds
    the last iteration's half-sweep inputs for :func:`decompose`.  Raises
    :class:`Absent` when a layer function is gone or changed signature.
    """
    cfg = rec.config
    implicit = rec.algorithm == "implicit"
    ratings_views = resolve("repro.core.als:ratings_views")
    from_csr = resolve("repro.sparse.csc:CSCMatrix.from_csr")
    init_factors = resolve("repro.core.init:init_factors")
    SweepExecutor = resolve("repro.parallel:SweepExecutor")
    if implicit:
        sweep = resolve("repro.core.implicit:implicit_half_sweep")
        weighted_loss = resolve("repro.core.implicit:_weighted_loss")
    else:
        regularized_loss = resolve("repro.core.loss:regularized_loss")
        rmse = resolve("repro.core.loss:rmse")

    t_start = perf_counter()
    # Recommender.fit converts once; the trainer takes its views of that CSR.
    _, csr = spans.call("sparse.views_s", ratings_views, ratings)
    loss_view, R_rows = spans.call("sparse.views_s", ratings_views, csr)
    bind_or_absent(from_csr, R_rows)
    t0 = perf_counter()
    R_cols = from_csr(R_rows).transpose_as_csr()
    spans.record("sparse.transpose_s", perf_counter() - t0)
    m, n = R_rows.shape
    X, Y = spans.call(
        "core.init_s", init_factors, m, n, cfg.k, seed=cfg.seed, scale=cfg.init_scale
    )
    with SweepExecutor() as ex:
        for _ in range(iterations):
            Y_in = Y
            if implicit:
                X = spans.call("parallel.half_sweep_s.rows", sweep, R_rows, Y,
                               cfg.lam, cfg.alpha, executor=ex)
                Y = spans.call("parallel.half_sweep_s.cols", sweep, R_cols, X,
                               cfg.lam, cfg.alpha, executor=ex)
                spans.call("core.loss_s", weighted_loss, loss_view, X, Y,
                           cfg.lam, cfg.alpha)
            else:
                X = spans.call("parallel.half_sweep_s.rows", ex.half_sweep,
                               R_rows, Y, cfg.lam, X_prev=X)
                Y = spans.call("parallel.half_sweep_s.cols", ex.half_sweep,
                               R_cols, X, cfg.lam, X_prev=Y)
                t0 = perf_counter()
                bind_or_absent(regularized_loss, loss_view, X, Y, cfg.lam)
                regularized_loss(loss_view, X, Y, cfg.lam)
                rmse(loss_view, X, Y)
                spans.record("core.loss_s", perf_counter() - t0)
    wall = perf_counter() - t_start
    return X, Y, wall, (R_rows, R_cols, Y_in, X, Y)


def decompose(rec, last_inputs, spans: Spans) -> dict:
    """Time assembly (S1+S2), S2 alone and the solve (S3) of both sides.

    Runs the library's own kernels on the last iteration's inputs, checks
    the solved rows against the trained factors, and returns the computed
    work counts of that one iteration.
    """
    cfg = rec.config
    implicit = rec.algorithm == "implicit"
    binned = resolve("repro.linalg.normal_equations:binned_normal_equations")
    resolve_solver = resolve("repro.linalg.solvers:resolve_solver")
    solver_fn = resolve("repro.linalg.solvers:solver_fn")
    R_rows, R_cols, Y_in, X_out, Y_out = last_inputs
    counts = {"assemble_gflop": 0.0, "solve_gflop": 0.0, "matmat_gbytes": 0.0,
              "matches": True}
    for R, F, solved in ((R_rows, Y_in, X_out), (R_cols, X_out, Y_out)):
        rows, sub = R.occupied_submatrix()
        k = F.shape[1]
        kw = {}
        if implicit:
            F = np.ascontiguousarray(F, dtype=np.float64)
            w = cfg.alpha * sub.value.astype(np.float64)
            kw = {"nnz_weight": w, "rhs_nnz_value": w + 1.0}
        bind_or_absent(binned, sub, F, cfg.lam, **kw)
        t0 = perf_counter()
        A, b = binned(sub, F, cfg.lam, **kw)
        if implicit:
            A += F.T @ F
        spans.record("linalg.assemble_s", perf_counter() - t0)
        spans.call("sparse.matmat_s", sub.matmat, F, values=kw.get("rhs_nnz_value"))
        solve = solver_fn(resolve_solver())
        x = spans.call("linalg.solve_s", solve, A, b)
        counts["matches"] &= bitwise_equal(x, np.asarray(solved)[rows])
        nnz, batch = sub.nnz, rows.size
        extra = (nnz * k + 2 * F.shape[0] * k * k) if implicit else 0
        counts["assemble_gflop"] += (2.0 * nnz * k * (k + 1) + extra) / 1e9
        counts["solve_gflop"] += batch * (k ** 3 / 3.0 + 2.0 * k * k) / 1e9
        # values + column index + expanded row index, gathered rows of F,
        # and the written output: bytes the S2 pass moves at minimum.
        counts["matmat_gbytes"] += (
            nnz * (sub.value.itemsize + 8 + 8) + nnz * k * 8 + batch * k * 8
        ) / 1e9
    return counts


def scaling_w2(rec, last_inputs) -> float:
    """Row half-sweep wall time at workers=1 over workers=2."""
    cfg = rec.config
    SweepExecutor = resolve("repro.parallel:SweepExecutor")
    R_rows, _, Y_in, X_out, _ = last_inputs
    times = {}
    for workers in (1, 2):
        with SweepExecutor(workers) as ex:
            t0 = perf_counter()
            if rec.algorithm == "implicit":
                sweep = resolve("repro.core.implicit:implicit_half_sweep")
                bind_or_absent(sweep, R_rows, Y_in, cfg.lam, cfg.alpha, executor=ex)
                sweep(R_rows, Y_in, cfg.lam, cfg.alpha, executor=ex)
            else:
                bind_or_absent(ex.half_sweep, R_rows, Y_in, cfg.lam, X_prev=X_out)
                ex.half_sweep(R_rows, Y_in, cfg.lam, X_prev=X_out)
            times[workers] = perf_counter() - t0
    return times[1] / times[2]


def traced_training(ratings, fits, iterations: int, budget_s: float):
    """Pairs of (``Recommender.fit``, traced rebuild) until ``budget_s``.

    ``fits`` is a callable returning ``(rec, seconds)``.  Returns the
    per-layer metric values, check failures, the absent layers with their
    reasons, and the last fitted recommender.
    """
    spans = Spans()
    problems: list[str] = []
    walls, fit_walls = [], []
    last = rec = None
    t_end = perf_counter() + budget_s
    try:
        while True:
            rec, fit_s = fits()
            X, Y, wall, last = traced_fit(ratings, rec, iterations, spans)
            fit_walls.append(fit_s)
            walls.append(wall)
            if not (bitwise_equal(X, rec.model.X) and bitwise_equal(Y, rec.model.Y)):
                problems.append("traced rebuild differs from Recommender.fit")
            if perf_counter() >= t_end:
                break
    except Absent as exc:
        spans.mark_absent(FIT_LAYERS + SWEEP_LAYERS, str(exc))
    out: dict = {}
    reps = max(1, len(walls))
    for layer in FIT_LAYERS:
        if layer in spans.seconds:
            out[layer] = spans.total(layer) / reps  # seconds per fit
    if walls:
        covered = sum(out.get(layer, 0.0) for layer in FIT_LAYERS)
        wall = float(np.mean(walls))
        out["trace.unexplained_share"] = (wall - covered) / wall
        out["trace.overhead_share"] = median(walls) / median(fit_walls) - 1.0
        try:
            counts = decompose(rec, last, spans)
            for layer in SWEEP_LAYERS:
                out[layer] = spans.total(layer)
            out["linalg.assemble_gflop"] = counts["assemble_gflop"]
            out["linalg.solve_gflop"] = counts["solve_gflop"]
            out["sparse.matmat_gbytes"] = counts["matmat_gbytes"]
            if not counts["matches"]:
                print("  note: the S1/S2/S3 decomposition no longer reproduces "
                      "the half-sweep bit for bit", flush=True)
        except Absent as exc:
            spans.mark_absent(SWEEP_LAYERS, str(exc))
        try:
            out["parallel.scaling_w2"] = scaling_w2(rec, last)
        except Absent as exc:
            spans.absent["parallel.scaling_w2"] = str(exc)
    return out, problems, spans.absent, rec
