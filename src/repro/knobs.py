"""The process-wide knob table: one precedence chain for every tunable.

Eight knobs select code variants and resource budgets across training,
serving and the out-of-core path.  Each is one :class:`Knob` row —
name, ``REPRO_*`` environment variable, parser and default — and every
subsystem reads its knobs through :func:`resolve`, which applies the
same precedence everywhere::

    explicit argument > configure(...) > REPRO_* environment > default

:func:`configure` installs process-wide values (the CLI flags land
there); ``None`` resets a knob to "fall back to the environment, then
the default".  An environment value that does not parse raises an error
naming its variable.

The knob ``"auto"`` values (``solver``, ``assembly``,
``serve_tile_bytes``, ``serve_dtype``) are not resolved here: they are
handed to the empirical selectors in :mod:`repro.autotune`, which
measure the candidates on the target context (the paper's §III-D).

This module imports nothing from the rest of the package, so every
layer can read it without an import cycle; the constants the parsers
need live here and the subsystems re-export them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ASSEMBLY_MODES",
    "DEFAULT_SHARD_BYTES",
    "DEFAULT_TILE_BYTES",
    "DEFAULT_TILE_NNZ",
    "KNOBS",
    "Knob",
    "MIN_SHARD_BYTES",
    "SOLVER_MODES",
    "configure",
    "resolve",
    "usable_cores",
]

#: Names accepted by ``TrainConfig.solver`` / ``--solver`` / ``REPRO_SOLVER``.
SOLVER_MODES = ("cholesky", "gaussian", "lapack", "auto")

#: Names accepted by ``TrainConfig.assembly`` / ``--assembly`` / ``REPRO_ASSEMBLY``.
ASSEMBLY_MODES = ("binned", "scatter", "auto")

#: Default cap on non-zeros gathered per assembly tile (~256 MB of
#: float64 scratch at k = 64; proportionally less for smaller k or
#: float32 compute).
DEFAULT_TILE_NNZ = 1 << 19

#: Default serving score-buffer budget per user block (bytes).  8 MB
#: holds a 1024-user x 1024-item float64 tile — L2/L3-resident on
#: current CPUs, versus the ~180 MB dense matrix a full ML-1M batch used
#: to build.
DEFAULT_TILE_BYTES = 8 << 20

#: Default resident-shard byte budget (CSR bytes + per-row solver
#: scratch).  256 MB keeps one shard plus its double-buffered prefetch
#: comfortably inside laptop-class memory while leaving shards large
#: enough that per-shard overheads (binning, solve batching) amortize.
DEFAULT_SHARD_BYTES = 256 << 20

#: Smallest shard budget worth honoring: below ~1 MB the per-shard
#: Python overhead dwarfs the IO it schedules.  Spans may still exceed
#: the budget when a single row does (a shard always holds >= 1 row).
MIN_SHARD_BYTES = 1 << 20

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the OS
    reports one, else the machine's core count."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return max(1, len(affinity(0)))
    return max(1, os.cpu_count() or 1)


def _one_of(choices: tuple[str, ...]) -> Callable[[str, object], str]:
    def parse(name: str, value: object) -> str:
        if value not in choices:
            raise ValueError(f"{name} must be one of {choices}, got {value!r}")
        return value  # type: ignore[return-value]

    return parse


def _at_least(minimum: int) -> Callable[[str, object], int]:
    def parse(name: str, value: object) -> int:
        try:
            number = int(value)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if number < minimum:
            raise ValueError(f"{name} must be >= {minimum}, got {number}")
        return number

    return parse


def _or_auto(
    parse_value: Callable[[str, object], object],
    auto: Callable[[], object] | None = None,
) -> Callable[[str, object], object]:
    """``parse_value`` that also accepts ``"auto"`` — kept as the string
    for a measured selector, or replaced by ``auto()`` when given."""

    def parse(name: str, value: object) -> object:
        if isinstance(value, str) and value.strip().lower() == "auto":
            return "auto" if auto is None else auto()
        return parse_value(name, value)

    return parse


def _float_dtype(name: str, value: object) -> np.dtype:
    """float32 or float64, by name or as any NumPy dtype-like."""
    if not isinstance(value, str) or value in ("float32", "float64"):
        try:
            dtype = np.dtype(value)  # type: ignore[arg-type]
        except TypeError:
            pass
        else:
            if dtype in _FLOAT_DTYPES:
                return dtype
    raise ValueError(f"{name} must be float32 or float64, got {value!r}")


@dataclass(frozen=True)
class Knob:
    """One process-wide tunable: where it is read from and how it parses."""

    name: str
    env: str  # the REPRO_* variable consulted when nothing is configured
    parse: Callable[[str, object], object]  # (name, raw) -> value, or ValueError
    default: object

    def check(self, value: object) -> object:
        """``value`` parsed and validated for this knob."""
        return self.parse(self.name, value)


#: name -> knob.  The defaults are the out-of-the-box behaviour.
KNOBS: dict[str, Knob] = {
    knob.name: knob
    for knob in (
        Knob("solver", "REPRO_SOLVER", _one_of(SOLVER_MODES), "lapack"),
        Knob("workers", "REPRO_WORKERS", _or_auto(_at_least(1), usable_cores), 1),
        Knob("assembly", "REPRO_ASSEMBLY", _one_of(ASSEMBLY_MODES), "binned"),
        Knob("tile_nnz", "REPRO_TILE_NNZ", _at_least(1), DEFAULT_TILE_NNZ),
        Knob("assembly_dtype", "REPRO_ASSEMBLY_DTYPE", _float_dtype,
             np.dtype(np.float64)),
        Knob("serve_tile_bytes", "REPRO_SERVE_TILE_BYTES", _or_auto(_at_least(1)),
             DEFAULT_TILE_BYTES),
        Knob("serve_dtype", "REPRO_SERVE_DTYPE", _or_auto(_float_dtype),
             np.dtype(np.float64)),
        Knob("shard_bytes", "REPRO_SHARD_BYTES", _at_least(MIN_SHARD_BYTES),
             DEFAULT_SHARD_BYTES),
    )
}

# Values installed by configure(); a missing name falls through to the
# environment, then the default.
_CONFIGURED: dict[str, object] = {}


def _knob(name: str) -> Knob:
    try:
        return KNOBS[name]
    except KeyError:
        raise ValueError(f"unknown knob {name!r}; knobs are {tuple(KNOBS)}") from None


def configure(**values: object) -> None:
    """Install process-wide values for the named knobs only.

    ``None`` resets a knob to its environment/default fallback.  Every
    value is validated before any is installed, so a bad call changes
    nothing.
    """
    parsed = {}
    for name, value in values.items():
        knob = _knob(name)
        parsed[name] = None if value is None else knob.check(value)
    for name, value in parsed.items():
        if value is None:
            _CONFIGURED.pop(name, None)
        else:
            _CONFIGURED[name] = value


def resolve(name: str, value: object = None) -> object:
    """The effective value of knob ``name``.

    Precedence: explicit ``value`` > :func:`configure` > the knob's
    ``REPRO_*`` environment variable > its default.
    """
    knob = _knob(name)
    if value is not None:
        return knob.check(value)
    if name in _CONFIGURED:
        return _CONFIGURED[name]
    raw = os.environ.get(knob.env)
    if raw:
        try:
            return knob.check(raw)
        except ValueError as exc:
            raise ValueError(f"{knob.env}={raw!r}: {exc}") from None
    return knob.default
