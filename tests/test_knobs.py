"""The process-wide knob table: one precedence chain for every knob."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.knobs import KNOBS, configure, resolve, usable_cores

# name -> (an explicit value, a configured value, an environment value,
# what that environment value parses to, a value the knob rejects).
CASES = {
    "solver": ("cholesky", "gaussian", "lapack", "lapack", "qr"),
    "workers": (5, 2, "3", 3, "lots"),
    "assembly": ("scatter", "auto", "scatter", "scatter", "nope"),
    "tile_nnz": (64, 77, "123", 123, "abc"),
    "assembly_dtype": (
        "float32", "float32", "float32", np.dtype(np.float32), "float16"
    ),
    "serve_tile_bytes": (1 << 20, 1 << 21, str(1 << 22), 1 << 22, "abc"),
    "serve_dtype": ("auto", "float32", "float32", np.dtype(np.float32), "int8"),
    "shard_bytes": (2 << 20, 8 << 20, str(4 << 20), 4 << 20, "12"),
}


def test_every_knob_has_a_case():
    assert set(CASES) == set(KNOBS)
    assert len({knob.env for knob in KNOBS.values()}) == len(KNOBS) == 8


@pytest.mark.parametrize("name", sorted(CASES))
def test_precedence_and_bad_environment(name, monkeypatch):
    explicit, configured, env, env_parsed, bad = CASES[name]
    knob = KNOBS[name]
    monkeypatch.delenv(knob.env, raising=False)
    assert resolve(name) == knob.default
    monkeypatch.setenv(knob.env, env)
    assert resolve(name) == env_parsed  # environment beats the default
    configure(**{name: configured})
    assert resolve(name) == knob.check(configured)  # configure beats env
    assert resolve(name, explicit) == knob.check(explicit)  # explicit wins
    configure(**{name: None})
    assert resolve(name) == env_parsed  # None resets to the fallback
    monkeypatch.setenv(knob.env, bad)
    with pytest.raises(ValueError, match=f"{knob.env}=.*{name}"):
        resolve(name)
    with pytest.raises(ValueError, match=name):
        resolve(name, bad)
    with pytest.raises(ValueError, match=name):
        configure(**{name: bad})


def test_configure_sets_only_the_named_knobs():
    configure(solver="gaussian", tile_nnz=99)
    configure(tile_nnz=None)
    assert resolve("solver") == "gaussian"
    assert resolve("tile_nnz") == KNOBS["tile_nnz"].default


def test_bad_configure_installs_nothing():
    with pytest.raises(ValueError):
        configure(solver="gaussian", tile_nnz=0)
    assert resolve("solver") == "lapack"


def test_unknown_knob_rejected():
    with pytest.raises(ValueError, match="unknown knob"):
        configure(user_block=4)
    with pytest.raises(ValueError, match="unknown knob"):
        configure(user_block=None)
    with pytest.raises(ValueError, match="unknown knob"):
        resolve("user_block")


def test_defaults_are_the_out_of_the_box_behaviour(monkeypatch):
    for knob in KNOBS.values():
        monkeypatch.delenv(knob.env, raising=False)
    assert {name: resolve(name) for name in KNOBS} == {
        "solver": "lapack",
        "workers": 1,
        "assembly": "binned",
        "tile_nnz": 1 << 19,
        "assembly_dtype": np.dtype(np.float64),
        "serve_tile_bytes": 8 << 20,
        "serve_dtype": np.dtype(np.float64),
        "shard_bytes": 256 << 20,
    }


class TestUsableCores:
    def test_counts_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert usable_cores() == 3
        assert resolve("workers", "auto") == 3

    def test_falls_back_to_the_core_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert usable_cores() == 6
        assert resolve("workers", "auto") == 6
