"""Hotspot aggregation: measured S1/S2/S3 breakdown and top spans.

The measured counterpart of :mod:`repro.kernels.steps` (which derives
the Fig. 8 decomposition from the *cost model*): instrumented runs tag
their stage spans with ``stage="S1" | "S2" | "S3"``, and this module
folds the collected records into the same three-way table, plus a
generic top-N span ranking for everything that is not an ALS stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.obs.spans import SpanRecord, StageFold

__all__ = [
    "STAGES",
    "SWEEP_SPAN",
    "StageStat",
    "SpanStat",
    "stage_breakdown",
    "sweep_seconds",
    "top_spans",
    "render_hotspot_table",
    "render_top_spans",
]

#: The paper's step decomposition (§III-B): Gram assembly, RHS, solve.
STAGES: tuple[str, ...] = ("S1", "S2", "S3")

#: Span name of the parent half-sweep in the instrumented ALS driver.
SWEEP_SPAN = "als.half_sweep"

#: Root span of one training run, and the spans of its loss tracking.
FIT_SPAN = "als.train"
LOSS_SPANS = ("als.loss", "als.loss.setup")


@dataclass(frozen=True)
class StageStat:
    """Aggregate of one ALS stage over a run."""

    stage: str
    calls: int
    seconds: float


@dataclass(frozen=True)
class SpanStat:
    """Aggregate of one span name over a run."""

    name: str
    calls: int
    seconds: float
    self_seconds: float

    @property
    def mean_seconds(self) -> float:
        return self.seconds / self.calls if self.calls else 0.0


def stage_breakdown(records: Sequence[SpanRecord]) -> dict[str, StageStat]:
    """Measured wall-clock per stage, keyed S1/S2/S3.

    Stage time is self time (:class:`~repro.obs.spans.StageFold`): the
    binned assembly runs each tile's S2 matvec in a child span of S1, and
    that time counts as S2 only, so the stages never add up to more than
    the sweep they cover.  ``calls`` counts stage spans — one S2 span per
    assembly tile on the binned path.  Stages always appear in the result
    (zero-filled when absent) so the table shape is stable even for runs
    that skipped a stage.
    """
    calls = {s: 0 for s in STAGES}
    seconds = {s: 0.0 for s in STAGES}
    fold = StageFold()
    # Children end before their parents; ties (coarse clocks) go to the
    # deeper span first.
    for r in sorted(records, key=lambda r: (r.end, -r.depth)):
        folded = fold.add(r)
        if folded is not None and folded[0] in calls:
            calls[folded[0]] += 1
            seconds[folded[0]] += folded[1]
    return {s: StageStat(s, calls[s], seconds[s]) for s in STAGES}


def sweep_seconds(records: Sequence[SpanRecord]) -> float:
    """Total wall-clock spent inside half-sweep spans (the parent scope)."""
    return sum(r.duration for r in records if r.name == SWEEP_SPAN)


def _seconds(records: Sequence[SpanRecord], names: tuple[str, ...]) -> float:
    return sum(r.duration for r in records if r.name in names)


def top_spans(records: Sequence[SpanRecord], n: int = 10) -> list[SpanStat]:
    """The n span names with the largest total wall-clock."""
    agg: dict[str, list[float]] = {}
    for r in records:
        entry = agg.setdefault(r.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += r.duration
        entry[2] += r.self_duration
    stats = [SpanStat(name, int(c), s, ss) for name, (c, s, ss) in agg.items()]
    stats.sort(key=lambda s: s.seconds, reverse=True)
    return stats[:n]


def render_hotspot_table(records: Sequence[SpanRecord]) -> str:
    """The measured Fig. 8-style table: per-stage seconds and shares.

    Shares are of the whole fit (the ``als.train`` span; the half-sweep
    or the stage total when a run has none).  The sweep residual is sweep
    bookkeeping outside S1/S2/S3 (masking, factor copies), so the stages
    plus it sum to the half-sweep total; the loss row is the training
    loss tracking, and the fit residual (views, initialisation, the
    executor pool) closes the sum to the fit total.
    """
    # Imported here: pulling bench in at module scope would cycle back
    # through solvers → core → obs while repro.obs is still initializing.
    from repro.bench.report import format_table

    stages = stage_breakdown(records)
    sweep = sweep_seconds(records)
    fit = _seconds(records, (FIT_SPAN,))
    loss = _seconds(records, LOSS_SPANS)
    stage_total = sum(s.seconds for s in stages.values())
    denominator = fit if fit > 0 else sweep if sweep > 0 else stage_total
    rows: list[tuple[object, ...]] = []
    for stat in stages.values():
        share = stat.seconds / denominator if denominator > 0 else 0.0
        rows.append((stat.stage, stat.calls, stat.seconds, f"{share:.1%}"))
    rows.append(("S1+S2+S3", "", stage_total, _share(stage_total, denominator)))
    if sweep > 0:
        residual = sweep - stage_total
        rows.append(("sweep residual", "", residual, _share(residual, denominator)))
        rows.append(("half-sweep total", "", sweep, _share(sweep, denominator)))
    if fit > 0:
        rows.append(("loss", "", loss, _share(loss, fit)))
        residual = fit - (sweep if sweep > 0 else stage_total) - loss
        rows.append(("fit residual", "", residual, _share(residual, fit)))
        rows.append(("fit total", "", fit, "100.0%"))
    return format_table(
        ["stage", "calls", "seconds", "share"],
        rows,
        title="Measured hotspot breakdown (wall-clock, all iterations, "
        "shares of the fit)",
        float_fmt="{:.4f}",
    )


def render_top_spans(records: Sequence[SpanRecord], n: int = 10) -> str:
    """A table of the n hottest span names (total / self / mean)."""
    from repro.bench.report import format_table

    rows = [
        (s.name, s.calls, s.seconds, s.self_seconds, s.mean_seconds)
        for s in top_spans(records, n)
    ]
    return format_table(
        ["span", "calls", "total [s]", "self [s]", "mean [s]"],
        rows,
        title=f"Top {min(n, len(rows))} spans by total wall-clock",
        float_fmt="{:.4f}",
    )


def _share(value: float, total: float) -> str:
    return f"{value / total:.1%}" if total > 0 else "n/a"
