"""The ``solve`` workload's check bars, on hand-made records."""

from __future__ import annotations

from repro.bench.workloads.solve import check_record


def _record(**overrides) -> dict:
    record = {
        "k": 64,
        "lapack_speedup": 5.0,
        "stack_bytes": 200_000_000,
        "lapack_peak_bytes": 20_000_000,
        "sweep": {"workers": 2, "speedup": 1.8, "bitwise_identical": True},
    }
    record.update(overrides)
    return record


def test_bounded_scratch_passes():
    assert check_record(_record(), {}) == []


def test_scratch_of_a_quarter_stack_fails():
    failures = check_record(_record(lapack_peak_bytes=50_000_000), {})
    assert len(failures) == 1
    assert "not below a quarter" in failures[0]
