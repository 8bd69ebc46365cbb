"""The one measure-then-pick loop: cache, lock, counters, listing."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.autotune.choice import (
    Decision,
    clear_decisions,
    decisions,
    fastest,
    label,
    measured_choice,
)
from repro.obs import metrics as obs_metrics
from repro.obs.spans import capture


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_decisions()
    yield
    clear_decisions()


def test_speedup_is_slowest_over_fastest():
    decision = fastest("solver", (4, 32), {"a": 2.0, "b": 1.0, "c": 5.0})
    assert decision.choice == "b"
    assert decision.speedup == 5.0


def test_ties_go_to_the_first_measured():
    assert fastest("blocks", (8, 8, "float64"), {4: 1.0, 8: 1.0}).choice == 4


def test_nothing_measured_is_an_error():
    with pytest.raises(ValueError):
        fastest("shard", (1, 1), {})


def test_concurrent_askers_share_one_probe():
    calls = []
    threads_n = 8  # more threads than cores
    start = threading.Barrier(threads_n)

    def probe():
        calls.append(threading.get_ident())
        time.sleep(0.05)  # the other threads are inside measured_choice by now
        return fastest("solver", (8, 64), {"lapack": 1.0, "gaussian": 2.0})

    results = []

    def ask():
        start.wait(timeout=10)
        results.append(measured_choice("solver", (8, 64), probe))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 1
    assert len(results) == threads_n
    assert all(r is results[0] for r in results)


def test_contexts_probe_independently_and_nest():
    def outer():
        inner = measured_choice(
            "solver", (4, 4), lambda: fastest("solver", (4, 4), {"lapack": 1.0})
        )
        return fastest("blocks", (4, 4, "float64"), {inner.choice: 1.0})

    assert measured_choice("blocks", (4, 4, "float64"), outer).choice == "lapack"
    assert [d.kind for d in decisions()] == ["blocks", "solver"]
    assert [d.kind for d in decisions("solver")] == ["solver"]


def test_counters_count_measurements_not_hits():
    obs_metrics.reset()
    def probe():
        return fastest("serve", (8, 512), {(1 << 20, "float32"): 1.0})

    with capture():
        measured_choice("serve", (8, 512), probe)
        measured_choice("serve", (8, 512), probe)
    counters = obs_metrics.snapshot()["counters"]
    assert counters["serve.auto.measurements"] == 1.0
    assert counters["serve.auto.chose_1_MB_float32"] == 1.0


def test_clear_forgets_every_kind():
    measured_choice("shard", (4, 8), lambda: fastest("shard", (4, 8), {1 << 24: 1.0}))
    assert isinstance(decisions()[0], Decision)
    clear_decisions()
    assert decisions() == ()


def test_labels():
    assert label("lapack") == "lapack"
    assert label(16 << 20) == "16 MB"
    assert label(8) == "8"
    assert label((1 << 20, "float64")) == "1 MB float64"
