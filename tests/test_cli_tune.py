"""Smoke tests: every ``tune-*`` subcommand measures and reports a verdict."""

from __future__ import annotations

import pytest

from repro.autotune.choice import clear_decisions
from repro.cli import main


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_decisions()
    yield
    clear_decisions()


@pytest.mark.parametrize(
    "argv",
    [
        ["tune-assembly", "ML1M", "--k", "4", "--scale", "0.005"],
        ["tune-solver", "--k", "4", "--batch", "64"],
        ["tune-blocks", "--k", "8"],
        ["tune-serving", "--k", "4"],
        ["tune-sharding", "ML1M", "--k", "4", "--scale", "0.005"],
    ],
    ids=lambda argv: argv[0],
)
def test_tune_subcommand_reports_best(argv, tmp_path, capsys):
    if argv[0] == "tune-sharding":
        argv = argv + ["--store", str(tmp_path / "store")]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    (best,) = [line for line in lines if line.startswith("best: ")]
    assert "x over the slowest" in best


def test_bad_knob_flag_exits_2(capsys):
    assert main(["tune-solver", "--k", "4", "--batch", "8", "--workers", "lots"]) == 2
    assert "workers" in capsys.readouterr().err
