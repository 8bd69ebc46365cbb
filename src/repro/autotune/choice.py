"""Empirical code-variant selection, implemented once (the paper's §III-D).

The paper picks code variants by *measuring* them on the target
execution context rather than predicting from first principles.  The
host library applies that loop to five choices — the S3 solver, the
S1/S2 assembly, the serving tile and precision, the out-of-core shard
budget and the iALS++ block width — and this module is the loop: a
tuner supplies a *probe* that times its candidates on data shaped like
the context, and :func:`measured_choice` runs it at most once per
``(kind, key)`` context, caches the :class:`Decision` and counts it in
the ``{kind}.auto.measurements`` / ``{kind}.auto.chose_*`` metrics.

Context keys bucket sizes to powers of two (:func:`bucket`): the
crossover between variants moves coarsely with a batch, catalog or
store size, so neighbouring sizes share one verdict.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Callable, Hashable

from repro.obs import metrics as obs_metrics
from repro.obs.spans import is_enabled

__all__ = [
    "Decision",
    "bucket",
    "clear_decisions",
    "decisions",
    "fastest",
    "label",
    "measured_choice",
]


@dataclass(frozen=True)
class Decision:
    """One measured verdict: the fastest candidate for a context."""

    kind: str  # which choice: "solver", "assembly", "serve", "shard", "blocks"
    key: tuple  # the context the verdict is cached for
    choice: Hashable  # the winning candidate
    seconds: dict  # candidate -> measured seconds (lower is better)
    detail: dict = field(default_factory=dict)  # what the probe measured on

    @property
    def speedup(self) -> float:
        """The slowest candidate's time over the winner's (>= 1)."""
        best = self.seconds[self.choice]
        slowest = max(self.seconds.values())
        return slowest / best if best > 0 else float("inf")


def fastest(kind: str, key: tuple, seconds: dict, **detail: object) -> Decision:
    """The decision for measured ``seconds``; on a tie the candidate
    measured first wins."""
    if not seconds:
        raise ValueError("no candidate was measured")
    choice = min(seconds, key=seconds.get)
    return Decision(kind, key, choice, dict(seconds), detail)


def bucket(size: int) -> int:
    """``size`` rounded up to a power of two (1 for sizes up to 1)."""
    return 1 << max(0, int(size) - 1).bit_length()


def label(choice: Hashable) -> str:
    """A candidate as text: byte budgets in MB, tuples space-joined."""
    if isinstance(choice, tuple):
        return " ".join(label(part) for part in choice)
    if isinstance(choice, int) and choice >= 1 << 20 and choice % (1 << 20) == 0:
        return f"{choice >> 20} MB"
    return str(choice)


_CACHE: dict[tuple[str, tuple], Decision] = {}
_LOCKS: dict[tuple[str, tuple], threading.Lock] = {}
_LOCKS_GUARD = threading.Lock()


def measured_choice(
    kind: str, key: tuple, probe: Callable[[], Decision]
) -> Decision:
    """The cached verdict for ``(kind, key)``, running ``probe`` once.

    Threads asking for the same context wait for the one probe in
    flight instead of timing the candidates concurrently (which would
    also skew the timings).  Different contexts probe independently, so
    a probe may itself consult another context.
    """
    slot = (kind, key)
    decision = _CACHE.get(slot)
    if decision is not None:
        return decision
    with _LOCKS_GUARD:
        lock = _LOCKS.setdefault(slot, threading.Lock())
    with lock:
        decision = _CACHE.get(slot)
        if decision is None:
            decision = probe()
            _CACHE[slot] = decision
            if is_enabled():
                obs_metrics.inc(f"{kind}.auto.measurements")
                chosen = label(decision.choice).replace(" ", "_")
                obs_metrics.inc(f"{kind}.auto.chose_{chosen}")
    return decision


def decisions(kind: str | None = None) -> tuple[Decision, ...]:
    """Every cached verdict (of one ``kind``), ordered by kind and key."""
    return tuple(
        _CACHE[slot] for slot in sorted(_CACHE) if kind is None or slot[0] == kind
    )


def clear_decisions() -> None:
    """Forget every cached verdict (tests and re-tuning)."""
    _CACHE.clear()
    with _LOCKS_GUARD:
        _LOCKS.clear()
