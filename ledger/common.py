"""Shared helpers of the ledger benchmark: timing, layer spans, output.

Everything here is benchmark-side. The library is only ever called, never
patched: a layer's time is the wall time of one public call, measured
around that call from this file.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import resource
import sys
from time import perf_counter

import numpy as np

class Absent(Exception):
    """A layer function is gone or no longer accepts the benchmark's call."""


def resolve(path: str):
    """``"pkg.module:attr.attr"`` -> the object, or raise :class:`Absent`."""
    module_name, _, attrs = path.partition(":")
    try:
        obj = importlib.import_module(module_name)
        for name in attrs.split("."):
            obj = getattr(obj, name)
    except (ImportError, AttributeError) as exc:
        raise Absent(f"{path}: {exc}") from None
    return obj


def bind_or_absent(fn, *args, **kwargs) -> None:
    """Raise :class:`Absent` when ``fn`` no longer takes these arguments."""
    try:
        inspect.signature(fn).bind(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise Absent(f"{getattr(fn, '__qualname__', fn)}: {exc}") from None


class Spans:
    """Named wall-time spans recorded around library calls.

    ``call(layer, fn, ...)`` checks the call against ``fn``'s signature
    first, so a refactor that renames or re-shapes a layer function marks
    the layer absent instead of failing the run.
    """

    def __init__(self) -> None:
        self.seconds: dict[str, list[float]] = {}
        self.absent: dict[str, str] = {}

    def record(self, layer: str, seconds: float) -> None:
        self.seconds.setdefault(layer, []).append(seconds)

    def call(self, layer: str, fn, *args, **kwargs):
        bind_or_absent(fn, *args, **kwargs)
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        self.record(layer, perf_counter() - t0)
        return out

    def mark_absent(self, layers, reason: str) -> None:
        for layer in layers:
            if layer not in self.seconds:
                self.absent.setdefault(layer, reason)

    def total(self, layer: str) -> float:
        return float(sum(self.seconds.get(layer, ())))


def nearest_rank(samples, q: float) -> float:
    """Exact ``q``-quantile of raw samples by the nearest-rank rule."""
    ordered = np.sort(np.asarray(samples, dtype=np.float64))
    if ordered.size == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * ordered.size))
    return float(ordered[rank - 1])


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    """The effective settings that can change the measured numbers."""
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
        "repro_env": sorted(k for k in os.environ if k.startswith("REPRO_")),
    }


def cpu_times() -> list[int] | None:
    """System-wide CPU tick counters (``/proc/stat``), or ``None``.

    The eighth counter is steal: time the hypervisor gave to other guests,
    the main source of run-to-run noise on a shared host.
    """
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None


def say(line: str) -> None:
    print(line, flush=True)


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print every metric by name and unit, then the one-line JSON result."""
    for name, m in metrics.items():
        if m["value"] is None:
            say(f"  {name:32s} absent ({m.get('absent', '')})")
        else:
            say(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    say(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    }))
