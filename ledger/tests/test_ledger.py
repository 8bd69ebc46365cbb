"""Tests of the ledger benchmark itself (tiny sizes; seconds, not minutes).

Run from the root of a checkout::

    python3 -m pytest ledger/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

LEDGER = Path(__file__).resolve().parents[1]
ROOT = LEDGER.parent
sys.path[:0] = [str(ROOT / "src"), str(LEDGER)]

import common  # noqa: E402
import run  # noqa: E402
import serve  # noqa: E402
import train  # noqa: E402
import workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(name: str, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "3", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported_with_its_unit(name, trace):
    code, out = _run(name, trace)
    assert code == 0, out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and np.isfinite(got["value"])
        assert f"  {m['name']}" in out  # printed by name for a reader too


def test_workload_table_matches_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workload.WORKLOADS)
    assert run.WORKLOADS == tuple(workload.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(workload.E2E)
    assert [m["name"] for m in SPEC["per_layer"]] == list(workload.PER_LAYER)


def _tiny(name: str):
    wl = workload.WORKLOADS[name]
    ratings = workload.generate(wl, seed=5, tiny=True)
    return wl, ratings


@pytest.mark.parametrize("name", ["ml1m-als-k32", "ymr4-ials-k64"])
def test_traced_rebuild_is_bitwise_recommender_fit(name):
    wl, ratings = _tiny(name)
    iterations = 2
    rec, _ = train.fit(ratings, wl.k, iterations, wl.algorithm)
    spans = common.Spans()
    X, Y, wall, last = train.traced_fit(ratings, rec, iterations, spans)
    assert train.bitwise_equal(X, rec.model.X)
    assert train.bitwise_equal(Y, rec.model.Y)
    assert set(spans.seconds) == set(train.FIT_LAYERS)
    assert sum(spans.total(layer) for layer in train.FIT_LAYERS) <= wall
    counts = train.decompose(rec, last, spans)
    assert counts["matches"]


def test_fit_checks_pass_and_catch_a_wrong_loss():
    wl, ratings = _tiny("ml1m-als-k32")
    csr = workload.views(ratings)
    rec, _ = train.fit(ratings, wl.k, 2, wl.algorithm)
    assert train.check_fit(rec, csr, 2) == []
    rec.model.history[-1] = type(rec.model.history[-1])(
        iteration=2, loss=rec.model.history[-1].loss * 1.001, train_rmse=None)
    assert any("reference" in p for p in train.check_fit(rec, csr, 2))


def test_read_checks_catch_a_seen_item_and_a_stale_generation():
    wl, ratings = _tiny("ml1m-serve-update")
    csr = workload.views(ratings)
    rec, _ = train.fit(ratings, wl.k, 1, wl.algorithm)
    rng = np.random.default_rng(0)
    svc, log, sched = workload.start_serving(wl, rec, csr, rng, 1.0)
    try:
        window = serve.run_window(svc, log, sched)
    finally:
        svc.stop()
    assert serve.check_reads(window, log, sched, warm_writes=1) == (0, [])
    last = window["reads"] - 1
    user = int(sched.read_users[last])
    window["items"][last, 0] = csr.col_idx[csr.row_ptr[user]]  # a rated item
    window["gens"][0] = 0  # older than the warm-up write
    failed, problems = serve.check_reads(window, log, sched, warm_writes=1)
    assert failed == 2
    assert any("stale generation" in p for p in problems)
    assert any("already rated" in p for p in problems)


def test_a_missing_layer_is_reported_absent(monkeypatch):
    wl, ratings = _tiny("ml1m-als-k32")
    real = train.resolve

    def resolve(path):
        if path.endswith(":binned_normal_equations"):
            raise common.Absent(f"{path}: gone")
        return real(path)

    monkeypatch.setattr(train, "resolve", resolve)
    fits = lambda: train.fit(ratings, wl.k, 1, wl.algorithm)  # noqa: E731
    values, problems, absent, _ = train.traced_training(ratings, fits, 1, 0.0)
    assert problems == []
    assert set(train.SWEEP_LAYERS) <= set(absent)
    assert set(train.FIT_LAYERS) <= set(values)
    assert "parallel.scaling_w2" in values


def test_changed_signature_is_absent_not_an_error():
    spans = common.Spans()
    with pytest.raises(common.Absent):
        spans.call("layer_s", lambda a: a, 1, 2)
    assert "layer_s" not in spans.seconds


def test_exact_percentiles_use_raw_samples():
    samples = list(range(1, 101))
    assert common.nearest_rank(samples, 0.5) == 50.0
    assert common.nearest_rank(samples, 0.99) == 99.0
    assert common.nearest_rank([7.0], 0.99) == 7.0
