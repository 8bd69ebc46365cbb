"""One ledger workload in one process: set up, measure, check, report.

Run through ``ledger/run.py``, which starts this file in a fresh process
with a pinned environment.  Every workload goes through the same life:
generate ratings from the seed, train with ``Recommender.fit``, serve the
trained model through ``RecommendService`` under an open-loop read stream
while a writer applies rating updates, then check every output.  The
workloads differ in data, algorithm and where the window's time goes.
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import serve
import train
from common import cpu_times, emit, environment, median, peak_rss_mb, say

SETUPS = 3  # set-ups per run; setup_s is their median


@dataclass(frozen=True)
class Workload:
    dataset: str
    scale: float
    algorithm: str
    k: int
    iterations: int
    fit_share: float  # share of the window spent in repeated fits
    rate: float  # offered reads per second
    zipf_s: float  # user-popularity exponent of reads and writes
    write_every: float  # seconds between update_ratings batches
    write_nnz: int  # ratings per batch


# Each workload has one layer group that does most of its work (the "why"
# of each is in BENCHMARK.json).  ml1m-als-k32 spends its fits on the nnz*k
# layers (loss, S2, S1) about as much as on the solve; ymr4-ials-k64 is
# solve-bound, so an S2 or loss change should not move it; the serve
# workload trains in set-up and serves for the whole window.  A write every
# 0.5 s gives write_p50_ms enough samples per run; with 150 reads between
# two writes (each clears the result cache), a Zipf exponent of 1.0 makes
# the cache answer about a third of them.  YMR4 fits take about 7 s per
# iteration with the default solver, hence one iteration.
WORKLOADS = {
    "ml1m-als-k32": Workload("ML1M", 0.5, "als", 32, 3, 0.5, 300.0, 1.0, 0.5, 64),
    "ymr4-ials-k64": Workload("YMR4", 1.0, "implicit", 64, 1, 0.5, 300.0, 1.0, 0.5, 64),
    "ml1m-serve-update": Workload("ML1M", 0.25, "als", 32, 2, 0.0, 300.0, 1.0, 0.5, 64),
}

#: Shrinks for the smoke test: same code paths, seconds instead of minutes.
TINY_SCALE = {"ML1M": 0.01, "YMR4": 0.02}

E2E = ("setup_s", "fit_entries_per_s", "final_loss", "peak_rss_mb",
       "read_p50_ms", "cpu_us_per_read", "write_p50_ms")
UNITS = {
    "setup_s": "s", "fit_entries_per_s": "1/s", "final_loss": "loss",
    "peak_rss_mb": "MB", "read_p50_ms": "ms",
    "cpu_us_per_read": "us", "write_p50_ms": "ms",
    "datasets.generate_s": "s", "sparse.views_s": "s", "sparse.transpose_s": "s",
    "core.init_s": "s", "parallel.half_sweep_s.rows": "s",
    "parallel.half_sweep_s.cols": "s", "core.loss_s": "s",
    "sparse.matmat_s": "s", "linalg.assemble_s": "s", "linalg.solve_s": "s",
    "linalg.assemble_gflop": "GFLOP", "linalg.solve_gflop": "GFLOP",
    "sparse.matmat_gbytes": "GB", "parallel.scaling_w2": "ratio",
    "engine.build_s": "s", "engine.query_us_per_user": "us",
    "service.mean_batch_size": "count", "service.cache_hit_ratio": "ratio",
    "sparse.merge_ms": "ms", "foldin.solve_ms": "ms", "serve.read_p99_ms": "ms",
    "gen.lag_p99_ms": "ms",
    "trace.unexplained_share": "ratio", "trace.overhead_share": "ratio",
}
PER_LAYER = tuple(name for name in UNITS if name not in E2E)


def generate(wl: Workload, seed: int, tiny: bool):
    from repro.datasets.catalog import dataset_by_name
    from repro.datasets.synthetic import generate_ratings

    spec = dataset_by_name(wl.dataset)
    scale = TINY_SCALE[wl.dataset] if tiny else wl.scale
    if scale < 1.0:
        spec = spec.scaled(scale)
    return generate_ratings(spec, seed=seed)


def views(ratings):
    from repro.core.als import ratings_views

    return ratings_views(ratings)[1]


def warm_up_training(wl: Workload) -> None:
    """First calls of every training path, on a tiny matrix, before timing."""
    from repro.datasets.catalog import dataset_by_name
    from repro.datasets.synthetic import generate_ratings

    small = generate_ratings(dataset_by_name(wl.dataset).scaled(0.005), seed=0)
    train.fit(small, wl.k, 1, wl.algorithm)


def start_serving(wl: Workload, rec, csr, rng, seconds: float):
    """A warmed-up service (library defaults) over ``rec``, its log and schedule."""
    from repro.serving.service import RecommendService

    log = serve.RatingLog(csr)
    sched = serve.Schedule(rng, *csr.shape, seconds, wl.rate, wl.zipf_s,
                           wl.write_every, wl.write_nnz)
    svc = RecommendService(rec).start()
    serve.warm_up(svc, log, rng, sched)
    return svc, log, sched


def run(name: str, seed: int, seconds: float, traced: bool, tiny: bool) -> int:
    wl = WORKLOADS[name]
    say(f"# workload {name} seed={seed} seconds={seconds:g} trace={int(traced)}")
    say(f"# environment {environment()}")
    host0 = cpu_times()
    rng = np.random.default_rng([seed, 1])
    serves_all_window = wl.fit_share == 0.0
    serve_s = seconds if serves_all_window else (1.0 - wl.fit_share) * seconds
    warm_up_training(wl)

    # -- set-up, several times; the last one's objects are kept ----------
    setup_s, gen_s, fit_s = [], [], []
    svc = None
    for _ in range(SETUPS):
        if svc is not None:
            svc.stop()
        gc.collect()  # free the previous set-up before timing the next
        t0 = perf_counter()
        ratings = generate(wl, seed, tiny)
        gen_s.append(perf_counter() - t0)
        csr = views(ratings)
        if serves_all_window:
            rec, seconds_fit = train.fit(ratings, wl.k, wl.iterations, wl.algorithm)
            fit_s.append(seconds_fit)
            svc, log, sched = start_serving(wl, rec, csr, rng, serve_s)
        setup_s.append(perf_counter() - t0)
    say(f"  set-up: {SETUPS} runs, {csr.nnz} ratings, {csr.shape[0]} users x "
        f"{csr.shape[1]} items")

    # -- training ---------------------------------------------------------
    layers: dict = {}
    absent: dict = {}
    fit_problems: list[str] = []
    fits = lambda: train.fit(ratings, wl.k, wl.iterations, wl.algorithm)  # noqa: E731
    if traced:
        budget = 0.0 if serves_all_window else wl.fit_share * seconds
        values, fit_problems, absent, traced_rec = train.traced_training(
            ratings, fits, wl.iterations, budget)
        layers.update(values)
        if not serves_all_window:
            rec = traced_rec
    elif not serves_all_window:
        t_end = perf_counter() + wl.fit_share * seconds
        while not fit_s or perf_counter() < t_end:
            rec, s = fits()
            fit_s.append(s)
    fit_problems += train.check_fit(rec, csr, wl.iterations)

    # -- serving ----------------------------------------------------------
    if not serves_all_window:
        svc, log, sched = start_serving(wl, rec, csr, rng, serve_s)
    try:
        window = serve.run_window(svc, log, sched)
    finally:
        svc.stop()
    rss = peak_rss_mb()
    failed_reads, problems = serve.check_reads(window, log, sched, warm_writes=1)
    figures = serve.summarize(window)
    say(f"  reads: {window['reads']} offered at {wl.rate:g}/s over {serve_s:g} s, "
        f"{figures['reads_completed']} completed, each timed from when it was due; "
        f"p50 {figures['read_p50_ms']:.3f} ms and p99 "
        f"{figures['serve.read_p99_ms']:.3f} ms over all {figures['reads_completed']}")
    say(f"  writes: {figures['writes_completed']} of {window['n_writes']}; "
        "cpu_us_per_read includes the writer's and the dispatcher's CPU")

    probe_problems: list[str] = []
    if traced:
        probed, probe_absent, probe_problems = serve.probe_layers(
            rec, svc, log, sched, rng)
        layers.update(probed)
        absent.update(probe_absent)
        layers["datasets.generate_s"] = median(gen_s)
        for key in ("serve.read_p99_ms", "gen.lag_p99_ms",
                    "service.mean_batch_size", "service.cache_hit_ratio"):
            layers[key] = figures[key]

    # Operations: the fits, every read, every write, and the traced write.
    attempted = max(1, len(fit_s)) + window["reads"] + window["n_writes"] + traced
    failed = (bool(fit_problems) + failed_reads + len(probe_problems)
              + window["n_writes"] - len(window["writes"]))
    problems = fit_problems + problems + probe_problems
    for p in problems:
        say(f"  CHECK FAILED: {p}")
    say(f"  error_ratio: {failed}/{attempted} = {failed / attempted:.6g}")
    host1 = cpu_times()
    if host0 and host1:
        busy = [b - a for a, b in zip(host0, host1)]
        say(f"  host: {100 * busy[7] / max(1, sum(busy)):.1f}% of CPU time stolen "
            "by other tenants during the run")

    if traced:
        metrics = {}
        for key in PER_LAYER:
            if key in layers:
                metrics[key] = {"value": float(layers[key]), "unit": UNITS[key]}
            else:
                metrics[key] = {"value": None, "unit": UNITS[key],
                                "absent": absent.get(key, "not measured")}
    else:
        values = {
            "setup_s": median(setup_s),
            "fit_entries_per_s": csr.nnz * wl.iterations / median(fit_s),
            "final_loss": train.losses(rec)[-1],
            "peak_rss_mb": rss,
            "read_p50_ms": figures["read_p50_ms"],
            "cpu_us_per_read": figures["cpu_us_per_read"],
            "write_p50_ms": figures["write_p50_ms"],
        }
        metrics = {k: {"value": float(v), "unit": UNITS[k]} for k, v in values.items()}
    emit(not problems, attempted, failed, metrics)
    return 0 if not problems else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)


if __name__ == "__main__":
    sys.exit(main())
