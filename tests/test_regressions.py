"""Replay every archived fuzz regression under the full 24-cell matrix.

Each ``tests/regressions/*.scm`` file carries its own oracle metadata
(mode, entry, kinds, must-verify/must-discharge, fuel) in its leading
comments, so a repro archived by one campaign keeps asserting the
corrected expectations forever — the files double as documentation of
what the fuzzer found and how the oracle was recalibrated."""

import glob
import os

import pytest

from repro.fuzz import run_matrix
from repro.fuzz.shrink import load_regression

HERE = os.path.dirname(__file__)
REGRESSIONS = sorted(glob.glob(os.path.join(HERE, "regressions", "*.scm")))


def test_archive_is_not_empty():
    assert REGRESSIONS, "tests/regressions/ must hold at least one repro"


@pytest.mark.parametrize(
    "path", REGRESSIONS,
    ids=[os.path.splitext(os.path.basename(p))[0] for p in REGRESSIONS])
def test_replay_passes_oracle(path):
    program = load_regression(path)
    result = run_matrix(program)
    assert result.divergences == [], [
        f"{d.klass}: {d.detail}" for d in result.divergences]


@pytest.mark.parametrize(
    "path", REGRESSIONS,
    ids=[os.path.splitext(os.path.basename(p))[0] for p in REGRESSIONS])
def test_metadata_complete(path):
    program = load_regression(path)
    assert program.entry
    assert program.entry_kinds
    assert program.mode in ("terminating", "diverging")
    assert program.fuel > 0
    assert program.source.strip()
