"""Grid workload: S1+S2 normal-equations assembly, binned vs scatter.

The benchmark body behind ``benchmarks/bench_assembly.py`` (which is
now a thin single-cell wrapper).  ``BENCH_2.json`` records the
committed full-scale numbers; the gate metric is ``speedup``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.bench import grid
from repro.datasets.catalog import MOVIELENS1M
from repro.datasets.synthetic import generate_ratings
from repro.linalg.normal_equations import (
    DEFAULT_TILE_NNZ,
    binned_normal_equations,
    scatter_normal_equations,
)
from repro.obs import metrics as obs_metrics
from repro.obs.hotspot import stage_breakdown
from repro.obs.spans import capture
from repro.sparse.csr import CSRMatrix

__all__ = ["resolve", "run_benchmark", "run_cell", "check_record"]


def _time_variant(fn, R, Y, lam, repeats):
    """Min-of-N wall time plus the run's S1/S2 span split and gauges."""
    best = float("inf")
    split = {}
    for _ in range(repeats):
        obs_metrics.reset()
        with capture() as tracer:
            t0 = perf_counter()
            fn(R, Y, lam)
            elapsed = perf_counter() - t0
        if elapsed < best:
            best = elapsed
            stages = stage_breakdown(tracer.records)
            split = {
                "total_seconds": elapsed,
                "s1_seconds": stages["S1"].seconds,
                "s2_seconds": stages["S2"].seconds,
                "gauges": obs_metrics.snapshot()["gauges"],
            }
    return split


def run_benchmark(
    scale: float, k: int, repeats: int, tile_nnz: int, seed: int
) -> dict:
    spec = MOVIELENS1M.scaled(scale)
    coo = generate_ratings(spec, seed=seed)
    R = CSRMatrix.from_coo(coo)
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((R.ncols, k))
    # Warm the derived-structure caches: a training run reuses one matrix
    # across every sweep, so steady-state cost is the honest comparison.
    R.expanded_rows()
    R.degree_bins()

    print(
        f"assembly benchmark: {spec.abbr} scale={scale:g} "
        f"(m={R.nrows}, n={R.ncols}, nnz={R.nnz}), k={k}, "
        f"tile_nnz={tile_nnz}, repeats={repeats}",
        flush=True,
    )
    binned = _time_variant(
        lambda R_, Y_, lam: binned_normal_equations(R_, Y_, lam, tile_nnz=tile_nnz),
        R, Y, 0.1, repeats,
    )
    print(f"  binned  : {binned['total_seconds']:8.3f} s "
          f"(S1 {binned['s1_seconds']:.3f}, S2 {binned['s2_seconds']:.3f})",
          flush=True)
    scatter = _time_variant(scatter_normal_equations, R, Y, 0.1, repeats)
    print(f"  scatter : {scatter['total_seconds']:8.3f} s "
          f"(S1 {scatter['s1_seconds']:.3f}, S2 {scatter['s2_seconds']:.3f})",
          flush=True)
    speedup = scatter["total_seconds"] / binned["total_seconds"]
    print(f"  speedup : {speedup:8.2f}x", flush=True)
    return {
        "benchmark": "s1s2_assembly",
        "dataset": spec.abbr,
        "scale": scale,
        "m": R.nrows,
        "n": R.ncols,
        "nnz": R.nnz,
        "k": k,
        "tile_nnz": tile_nnz,
        "repeats": repeats,
        "seed": seed,
        "scatter": scatter,
        "binned": binned,
        "speedup": speedup,
    }


def resolve(
    quick: bool = True,
    scale: float | None = None,
    k: int | None = None,
    repeats: int | None = None,
    tile_nnz: int | None = None,
    seed: int = 7,
) -> dict:
    """Concrete benchmark params from quick/full defaults + overrides."""
    return {
        "scale": scale if scale is not None else (1 / 16 if quick else 1.0),
        "k": k if k is not None else (32 if quick else 64),
        "repeats": repeats if repeats is not None else (1 if quick else 2),
        "tile_nnz": tile_nnz if tile_nnz is not None else DEFAULT_TILE_NNZ,
        "seed": seed,
    }


def run_cell(quick: bool = True, check: bool = True, **overrides) -> dict:
    return run_benchmark(**resolve(quick, **overrides))


def check_record(record: dict, params: dict) -> list[str]:
    """The ``--check`` bar: binned must beat scatter (3x at full scale)."""
    required = 1.0 if params.get("quick", True) else 3.0
    if record["speedup"] < required:
        return [
            f"binned speedup {record['speedup']:.2f}x is below the "
            f"required {required:.1f}x"
        ]
    return []


grid.register("assembly", run_cell, check=check_record)
