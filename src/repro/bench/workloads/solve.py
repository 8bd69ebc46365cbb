"""Grid workload: S3 batched solvers and the parallel half-sweep.

The benchmark body behind ``benchmarks/bench_solve.py``.
``BENCH_3.json`` records the committed numbers; the gate metric is
``lapack_speedup``.  The record also carries the ``lapack`` solve's
tracemalloc peak, which ``check_record`` bounds against the stack's
bytes (the chunked solve's scratch must not grow with the batch).
"""

from __future__ import annotations

import tracemalloc
from time import perf_counter

import numpy as np

from repro.bench import grid
from repro.datasets.catalog import MOVIELENS1M
from repro.datasets.synthetic import generate_ratings
from repro.kernels.fastpath import fast_half_sweep
from repro.knobs import usable_cores
from repro.linalg.normal_equations import batched_normal_equations
from repro.linalg.solvers import SOLVERS
from repro.parallel import SweepExecutor
from repro.sparse.csr import CSRMatrix

__all__ = ["resolve", "run_benchmark", "run_cell", "check_record"]


#: Timed repeats per side of the serial-vs-parallel sweep comparison,
#: whatever ``repeats`` says: one cold repeat of either side misreads the
#: speedup by more than the margin the bar checks.
MIN_SWEEP_REPEATS = 3


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def _median_of(fn, repeats: int) -> float:
    seconds = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        seconds.append(perf_counter() - t0)
    return float(np.median(seconds))


def _traced_peak_bytes(fn) -> int:
    """Peak bytes of traced (Python and NumPy) allocations during ``fn()``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_benchmark(
    scale: float, k: int, repeats: int, seed: int, skip: tuple[str, ...] = ()
) -> dict:
    spec = MOVIELENS1M.scaled(scale)
    coo = generate_ratings(spec, seed=seed)
    R = CSRMatrix.from_coo(coo)
    rng = np.random.default_rng(seed)
    Y = rng.standard_normal((R.ncols, k))
    # Warm the derived-structure caches (a training run reuses one matrix
    # across every sweep) and assemble the S3 input once: the solve
    # comparison isolates S3, the sweep comparison covers S1+S2+S3.
    rows, sub = R.occupied_submatrix()
    A, b = batched_normal_equations(sub, Y, 0.1)
    batch = A.shape[0]

    print(
        f"solve benchmark: {spec.abbr} scale={scale:g} "
        f"(m={R.nrows}, n={R.ncols}, nnz={R.nnz}), k={k}, "
        f"batch={batch}, repeats={repeats}, cores={usable_cores()}",
        flush=True,
    )

    solve_seconds: dict[str, float] = {}
    for name, fn in SOLVERS.items():
        if name in skip:
            continue
        solve_seconds[name] = _best_of(lambda: fn(A, b), repeats)
        print(f"  s3 {name:9s}: {solve_seconds[name]:8.3f} s", flush=True)
    lapack_speedup = solve_seconds["cholesky"] / solve_seconds["lapack"]
    print(f"  lapack speedup over reference: {lapack_speedup:8.2f}x", flush=True)
    lapack_peak = _traced_peak_bytes(lambda: SOLVERS["lapack"](A, b))
    print(f"  lapack scratch peak: {lapack_peak / 1e6:.1f} MB "
          f"(stack {A.nbytes / 1e6:.1f} MB)", flush=True)

    # Each side runs once untimed (the parallel one also starts the
    # executor's pool), then the medians of the timed repeats compare.
    sweep_repeats = max(MIN_SWEEP_REPEATS, repeats)
    X_serial = fast_half_sweep(R, Y, 0.1, solver="lapack")
    serial_seconds = _median_of(
        lambda: fast_half_sweep(R, Y, 0.1, solver="lapack"), sweep_repeats
    )
    with SweepExecutor("auto") as executor:
        workers = executor.workers
        X_parallel = executor.half_sweep(R, Y, 0.1, solver="lapack")
        parallel_seconds = _median_of(
            lambda: executor.half_sweep(R, Y, 0.1, solver="lapack"), sweep_repeats
        )
    bitwise = bool(np.array_equal(X_serial, X_parallel))
    sweep_speedup = serial_seconds / parallel_seconds
    print(f"  sweep workers=1   : {serial_seconds:8.3f} s", flush=True)
    print(f"  sweep workers={workers:<4d}: {parallel_seconds:8.3f} s "
          f"({sweep_speedup:.2f}x, bitwise identical: {bitwise})", flush=True)

    return {
        "benchmark": "s3_solve_and_parallel_sweep",
        "dataset": spec.abbr,
        "scale": scale,
        "m": R.nrows,
        "n": R.ncols,
        "nnz": R.nnz,
        "k": k,
        "batch": batch,
        "repeats": repeats,
        "seed": seed,
        "cores": usable_cores(),
        "s3_seconds": solve_seconds,
        "lapack_speedup": lapack_speedup,
        "stack_bytes": A.nbytes,
        "lapack_peak_bytes": lapack_peak,
        "sweep": {
            "solver": "lapack",
            "repeats": sweep_repeats,
            "serial_seconds": serial_seconds,
            "parallel_seconds": parallel_seconds,
            "workers": workers,
            "speedup": sweep_speedup,
            "bitwise_identical": bitwise,
        },
    }


def resolve(
    quick: bool = True,
    scale: float | None = None,
    k: int | None = None,
    repeats: int | None = None,
    seed: int = 7,
) -> dict:
    """Quick keeps the full solve shape (the 3x bar is only honest on
    the real ml-1m batch) but times each solve once and skips gaussian;
    the sweep comparison takes its medians over
    :data:`MIN_SWEEP_REPEATS` repeats either way."""
    return {
        "scale": scale if scale is not None else 1.0,
        "k": k if k is not None else 64,
        "repeats": repeats if repeats is not None else (1 if quick else 2),
        "seed": seed,
        "skip": ("gaussian",) if quick else (),
    }


def run_cell(quick: bool = True, check: bool = True, **overrides) -> dict:
    return run_benchmark(**resolve(quick, **overrides))


def check_record(record: dict, params: dict) -> list[str]:
    """The ``--check`` bars: lapack >= 3x at k >= 32, lapack scratch below
    a quarter of the stack, bitwise parallel sweep, and (multi-core only)
    parallel faster than serial."""
    failures = []
    if record["k"] >= 32 and record["lapack_speedup"] < 3.0:
        failures.append(
            f"lapack speedup {record['lapack_speedup']:.2f}x is below the "
            f"required 3.0x at k={record['k']}"
        )
    if record["lapack_peak_bytes"] >= record["stack_bytes"] / 4:
        failures.append(
            f"lapack solve peaked at {record['lapack_peak_bytes'] / 1e6:.1f} MB "
            f"of scratch, not below a quarter of the "
            f"{record['stack_bytes'] / 1e6:.1f} MB stack"
        )
    if not record["sweep"]["bitwise_identical"]:
        failures.append("parallel sweep result differs from serial")
    cores = usable_cores()
    if cores > 1 and record["sweep"]["speedup"] <= 1.0:
        failures.append(
            f"parallel sweep ({record['sweep']['workers']} workers on "
            f"{cores} cores) not faster than serial "
            f"({record['sweep']['speedup']:.2f}x)"
        )
    return failures


grid.register("solve", run_cell, check=check_record)
