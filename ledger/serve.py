"""Serving side of a ledger run: an open-loop read stream with writes.

A dispatcher thread submits reads to a ``RecommendService`` at seeded
Poisson arrival times, with Zipf user popularity so the result cache
hits part of the time.  A writer thread applies ``update_ratings`` batches
at fixed times.  Each read is timed from when it was *due*, so a stalled
dispatcher shows up as latency, and the dispatcher's lateness is kept as
its own figure.  Every answer is checked after the window.
"""

from __future__ import annotations

import gc
import threading
import time
from time import perf_counter, process_time

import numpy as np

from common import Absent, Spans, bind_or_absent, median, nearest_rank, resolve

N_ITEMS = 10  # items per read
GRACE_S = 10.0  # how long after the window a read may still complete
QUERY_USERS = 32  # users per engine probe query


class Schedule:
    """Seeded reads and writes of one loaded window (times in seconds)."""

    def __init__(self, rng, m, n, seconds, rate, zipf_s, write_every, write_nnz):
        self.shape = (m, n)
        self.write_nnz = write_nnz
        gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
        due = np.cumsum(gaps)
        self.read_due = due[due < seconds]
        popularity = np.arange(1, m + 1, dtype=np.float64) ** -zipf_s
        self._users = rng.permutation(m)
        self._p = popularity / popularity.sum()
        self.read_users = self.pick_users(rng, self.read_due.size)
        self.write_due = np.arange(write_every / 2, seconds, write_every)
        self.writes = [self.batch(rng) for _ in self.write_due]

    def pick_users(self, rng, size):
        return self._users[rng.choice(self._users.size, size=size, p=self._p)]

    def batch(self, rng):
        """One ``update_ratings`` payload: popular users rate random items."""
        from repro.sparse.coo import COOMatrix

        rows = self.pick_users(rng, self.write_nnz)
        cols = rng.integers(0, self.shape[1], size=self.write_nnz)
        vals = rng.integers(2, 11, size=self.write_nnz) / 2.0
        return COOMatrix(self.shape, rows, cols, vals.astype(np.float32))


class RatingLog:
    """The ratings each served generation has seen, as the benchmark knows them.

    Generation ``g`` has seen the base ratings plus the first ``g`` writes
    (the service starts at generation 0 and each write advances it by one).
    """

    def __init__(self, csr):
        self.base = csr
        self.writes: list = []
        self._added: dict[int, list[tuple[int, int]]] = {}

    def applied(self, coo) -> None:
        gen = len(self.writes) + 1
        self.writes.append(coo)
        for u, i in zip(coo.row.tolist(), coo.col.tolist()):
            self._added.setdefault(u, []).append((gen, i))

    def excluded(self, user: int, gen: int) -> set[int]:
        lo, hi = self.base.row_ptr[user], self.base.row_ptr[user + 1]
        seen = set(self.base.col_idx[lo:hi].tolist())
        seen.update(i for g, i in self._added.get(user, ()) if g <= gen)
        return seen

    def merged_coo(self, extra):
        """Base ratings, every write and then ``extra``, in write order."""
        from repro.sparse.coo import COOMatrix

        parts = [self.base.to_coo(), *self.writes, extra]
        return COOMatrix(
            self.base.shape,
            np.concatenate([p.row for p in parts]),
            np.concatenate([p.col for p in parts]),
            np.concatenate([p.value for p in parts]),
        )


def warm_up(svc, log, rng, sched) -> None:
    """Touch every path the window uses: misses, hits and one write."""
    users = sched.pick_users(rng, 64)
    for u in users:
        svc.recommend(int(u), N_ITEMS)
    for u in users[:16]:
        svc.recommend(int(u), N_ITEMS)
    batch = sched.batch(rng)
    svc.update_ratings(batch)
    log.applied(batch)
    for u in users[:16]:
        svc.recommend(int(u), N_ITEMS)


def run_window(svc, log, sched) -> dict:
    """Drive one loaded window; returns raw per-operation samples.

    Each answer is copied into preallocated arrays by the future's done
    callback and the future is dropped, so the benchmark's own bookkeeping
    adds no garbage-collector work to the latency it measures.
    """
    nr = sched.read_due.size
    submit_t = np.full(nr, np.nan)
    done_t = np.full(nr, np.nan)
    users = np.full(nr, -1, dtype=np.int64)
    gens = np.full(nr, -1, dtype=np.int64)
    lengths = np.full(nr, -1, dtype=np.int64)
    items = np.full((nr, N_ITEMS), -1, dtype=np.int64)
    scores = np.full((nr, N_ITEMS), np.nan)
    errors: list[str] = []
    writes: list[tuple[float, float]] = []
    lock = threading.Lock()
    all_done = threading.Event()
    count = {"submitted": 0, "finished": 0, "dispatching": True}

    def mark_done(i, fut):
        done_t[i] = perf_counter()
        exc = fut.exception()
        if exc is not None:
            errors.append(f"read {i} raised {exc!r}")
        else:
            res = fut.result()
            users[i], gens[i] = res.user, res.generation
            lengths[i] = len(res.recommendations)
            if res.recommendations:
                pairs = np.array(res.recommendations)
                items[i, :len(pairs)] = pairs[:, 0]
                scores[i, :len(pairs)] = pairs[:, 1]
        with lock:
            count["finished"] += 1
            if not count["dispatching"] and count["finished"] == count["submitted"]:
                all_done.set()

    def dispatch():
        for i in range(nr):
            delay = due[i] - perf_counter()
            if delay > 0:
                time.sleep(delay)
            submit_t[i] = perf_counter()
            try:
                fut = svc.submit(int(sched.read_users[i]), N_ITEMS)
            except Exception as exc:  # counted as a failed read
                errors.append(f"read {i}: {exc!r}")
                submit_t[i] = np.nan
                continue
            with lock:
                count["submitted"] += 1
            fut.add_done_callback(lambda f, i=i: mark_done(i, f))
        with lock:
            count["dispatching"] = False
            if count["finished"] == count["submitted"]:
                all_done.set()

    def write():
        for when, batch in zip(sched.write_due, sched.writes):
            delay = t0 + when - perf_counter()
            if delay > 0:
                time.sleep(delay)
            w0 = perf_counter()
            try:
                svc.update_ratings(batch)
            except Exception as exc:
                errors.append(f"write at {when:.2f}s: {exc!r}")
                continue
            writes.append((w0, perf_counter()))
            log.applied(batch)

    gc.collect()  # every run starts its window from the same heap state
    stats0 = svc.stats.snapshot()
    t0 = perf_counter() + 0.05
    due = t0 + sched.read_due
    cpu0 = process_time()
    threads = [threading.Thread(target=dispatch, name="ledger-dispatch"),
               threading.Thread(target=write, name="ledger-writer")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    all_done.wait(GRACE_S)
    cpu = process_time() - cpu0
    stats1 = svc.stats.snapshot()
    return {
        "due": due, "submit": submit_t, "done": done_t, "users": users,
        "gens": gens, "lengths": lengths, "items": items, "scores": scores,
        "errors": errors, "writes": writes, "cpu_s": cpu, "reads": nr,
        "stats": {k: stats1[k] - stats0[k] for k in ("requests", "cache_hits",
                                                       "batches", "batched_users")},
        "n_writes": len(sched.writes),
    }


def check_reads(window, log, sched, warm_writes: int) -> tuple[int, list[str]]:
    """Check every answer; returns ``(failed reads, problems)``."""
    problems = list(window["errors"])
    failed = 0
    ends = sorted(end for _, end in window["writes"])
    n_items = log.base.shape[1]
    for i in range(window["reads"]):
        if np.isnan(window["submit"][i]) or window["lengths"][i] < 0:
            failed += 1  # not submitted, raised (in errors) or timed out
            if np.isnan(window["done"][i]) and not np.isnan(window["submit"][i]):
                problems.append(f"read {i} timed out")
            continue
        user = int(sched.read_users[i])
        gen = int(window["gens"][i])
        length = int(window["lengths"][i])
        items = window["items"][i, :length].tolist()
        scores = window["scores"][i, :length]
        seen = log.excluded(user, gen)
        # A user who rated nearly every item gets a shorter (even empty) list.
        expected = min(N_ITEMS, n_items - len(seen))
        # Writes that returned before this read was submitted must show.
        fresh = warm_writes + int(np.searchsorted(ends, window["submit"][i]))
        bad = None
        if window["users"][i] != user or length != expected:
            bad = f"user {window['users'][i]} got {length} items, expected {expected}"
        elif len(set(items)) != length:
            bad = "duplicate items"
        elif np.any(np.diff(scores) > 0):
            bad = "scores increase"
        elif gen < fresh:
            bad = f"stale generation {gen} < {fresh}"
        elif set(items) & seen:
            bad = "recommended an item the user already rated"
        if bad:
            failed += 1
            problems.append(f"read {i} (user {user}): {bad}")
    return failed, problems


def summarize(window) -> dict:
    """End-to-end serving figures from the raw samples."""
    done = ~np.isnan(window["done"])
    lat_ms = (window["done"][done] - window["due"][done]) * 1e3
    lag_ms = (window["submit"] - window["due"])[~np.isnan(window["submit"])] * 1e3
    write_ms = [(b - a) * 1e3 for a, b in window["writes"]]
    st = window["stats"]
    return {
        "read_p50_ms": nearest_rank(lat_ms, 0.50),
        "serve.read_p99_ms": nearest_rank(lat_ms, 0.99),
        "reads_completed": int(done.sum()),
        "cpu_us_per_read": window["cpu_s"] / max(1, int(done.sum())) * 1e6,
        "write_p50_ms": median(write_ms) if write_ms else float("nan"),
        "writes_completed": len(write_ms),
        "gen.lag_p99_ms": nearest_rank(lag_ms, 0.99),
        "service.mean_batch_size": st["batched_users"] / max(1, st["batches"]),
        "service.cache_hit_ratio": st["cache_hits"] / max(1, st["requests"]),
    }


def probe_layers(rec, svc, log, sched, rng, reps: int = 3):
    """Time the engine and the write path's layers outside the window.

    The write is rebuilt from its public calls (merge, fold-in, engine
    build) and the fold-in rows are checked bit for bit against what
    ``update_ratings`` then installs.  Returns ``(values, absent, problems)``.
    """
    spans = Spans()
    absent: dict[str, str] = {}
    problems: list[str] = []
    out: dict = {}
    batch = sched.batch(rng)
    try:
        from_coo = resolve("repro.sparse.csr:CSRMatrix.from_coo")
        fold_in = resolve("repro.serving.foldin:fold_in_factors")
        from_model = resolve("repro.serving.engine:TopNEngine.from_model")
        attach = resolve("repro.serving.engine:TopNEngine.attach_exclusion")
        cfg, model = rec.config, rec.model
        alpha = getattr(cfg, "alpha", None) if rec.algorithm == "implicit" else None
        for _ in range(reps):
            merged = spans.call("sparse.merge_s", from_coo, log.merged_coo(batch))
            affected = np.unique(batch.row)
            sub = merged.take_rows(affected)
            x_new = spans.call("foldin.solve_s", fold_in, sub, model.Y, cfg.lam,
                               rec.algorithm, alpha)
            t0 = perf_counter()
            engine = from_model(model)
            attach(engine, merged)
            spans.record("engine.build_s", perf_counter() - t0)
        users = sched.pick_users(rng, QUERY_USERS)
        bind_or_absent(engine.query, users, n=N_ITEMS, exclude=merged)
        for _ in range(10 * reps):
            spans.call("engine.query_s", engine.query, users, n=N_ITEMS, exclude=merged)
        out["sparse.merge_ms"] = median(spans.seconds["sparse.merge_s"]) * 1e3
        out["foldin.solve_ms"] = median(spans.seconds["foldin.solve_s"]) * 1e3
        out["engine.build_s"] = median(spans.seconds["engine.build_s"])
        out["engine.query_us_per_user"] = (
            median(spans.seconds["engine.query_s"]) / QUERY_USERS * 1e6
        )
        svc.update_ratings(batch)
        log.applied(batch)
        if np.asarray(rec.model.X)[affected].tobytes() != x_new.tobytes():
            problems.append("rebuilt write differs from update_ratings")
    except Absent as exc:
        for name in ("sparse.merge_ms", "foldin.solve_ms", "engine.build_s",
                     "engine.query_us_per_user"):
            if name not in out:
                absent[name] = str(exc)
    return out, absent, problems
