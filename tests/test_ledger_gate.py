"""The benchmark ledger gate (``benchmarks/check_perf_regression.py``).

One rule: ``modeled`` and ``count`` rows equal the committed ledger
exactly, ``wall`` rows are never compared, a differing shape or a file
or row on one side only fails, and a run that compared nothing fails.
"""

from __future__ import annotations

import copy
import importlib.util
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"
GATE = BENCHMARKS / "check_perf_regression.py"
_spec = importlib.util.spec_from_file_location("check_perf_regression", GATE)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


def _ledger() -> dict:
    return {
        "bench": "bench_tiny",
        "shape": {"loops": 4, "python": "3.11", "numpy": "2.4.6"},
        "metrics": {
            "triad_gbps": {"value": 74.61818181818181, "unit": "GB/s",
                           "better": "higher", "kind": "modeled", "paper": 75.06},
            "leaves": {"value": 88, "unit": "count", "better": "lower",
                       "kind": "count"},
            "rate": {"value": 1.0e6, "unit": "1/s", "better": "higher",
                     "kind": "wall"},
        },
    }


def _compare(fresh: dict, committed: dict | None = None):
    name = "bench_tiny.json"
    return gate.compare({name: fresh}, {name: committed or _ledger()})


def test_identical_ledgers_pass_and_count_rows():
    failures, compared, recorded = _compare(_ledger())
    assert failures == []
    assert (compared, recorded) == (2, 1)


def test_changed_modeled_row_fails_naming_row_and_both_values():
    fresh = _ledger()
    fresh["metrics"]["triad_gbps"]["value"] = 74.61818181818182
    failures, _, _ = _compare(fresh)
    assert len(failures) == 1
    assert "bench_tiny.json:triad_gbps" in failures[0]
    assert "74.61818181818181" in failures[0] and "74.61818181818182" in failures[0]


def test_changed_count_row_fails():
    fresh = _ledger()
    fresh["metrics"]["leaves"]["value"] = 89
    failures, _, _ = _compare(fresh)
    assert failures == ["bench_tiny.json:leaves: committed 88, fresh 89"]


def test_changed_annotation_of_exact_row_fails():
    fresh = _ledger()
    fresh["metrics"]["triad_gbps"]["paper"] = 75.24
    failures, _, _ = _compare(fresh)
    assert len(failures) == 1 and "triad_gbps" in failures[0]


def test_changed_wall_row_passes():
    fresh = _ledger()
    fresh["metrics"]["rate"]["value"] = 0.4e6
    fresh["metrics"]["rate"]["samples"] = 11
    failures, compared, recorded = _compare(fresh)
    assert failures == []
    assert (compared, recorded) == (2, 1)


def test_row_turning_wall_is_compared():
    fresh = _ledger()
    fresh["metrics"]["leaves"]["kind"] = "wall"
    failures, _, _ = _compare(fresh)
    assert len(failures) == 1 and "leaves" in failures[0]


def test_shape_difference_fails():
    fresh = _ledger()
    fresh["shape"]["numpy"] = "2.5.0"
    failures, _, _ = _compare(fresh)
    assert any("shape differs" in line and "2.5.0" in line for line in failures)


@pytest.mark.parametrize("side", ["fresh", "committed"])
def test_row_on_one_side_fails(side):
    fresh, committed = _ledger(), _ledger()
    del (committed if side == "fresh" else fresh)["metrics"]["leaves"]
    failures, _, _ = _compare(fresh, committed)
    assert failures == [f"bench_tiny.json:leaves: row only on the {side} side"]


@pytest.mark.parametrize("side", ["fresh", "committed"])
def test_file_on_one_side_fails(side):
    both = {"bench_tiny.json": _ledger()}
    extra = dict(both, **{"bench_new.json": copy.deepcopy(_ledger())})
    fresh, committed = (extra, both) if side == "fresh" else (both, extra)
    failures, _, _ = gate.compare(fresh, committed)
    assert failures == [f"bench_new.json: ledger file only on the {side} side"]


def test_zero_compared_rows_fails():
    wall_only = _ledger()
    for name in ("triad_gbps", "leaves"):
        del wall_only["metrics"][name]
    failures, compared, recorded = _compare(wall_only, copy.deepcopy(wall_only))
    assert (compared, recorded) == (0, 1)
    assert failures == ["no modeled or count row was compared"]
    assert gate.compare({}, {})[0] == ["no modeled or count row was compared"]


def _git(cwd, *args):
    subprocess.run(
        ["git", "-c", "user.name=gate", "-c", "user.email=gate@example.invalid",
         "-c", "commit.gpgsign=false", *args],
        cwd=cwd, check=True, capture_output=True,
    )


def _tree(root) -> pathlib.Path:
    """A tree holding the gate and one ledger; returns the ledger's path."""
    results = root / "benchmarks" / "results"
    results.mkdir(parents=True)
    shutil.copy(GATE, root / "benchmarks")
    ledger_file = results / "bench_tiny.json"
    ledger_file.write_text(json.dumps(_ledger()))
    return ledger_file


def _run_gate(root):
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / GATE.name), "--ref", "HEAD"],
        cwd=root, capture_output=True, text=True,
    )


def test_gate_reads_the_ledgers_committed_in_git(tmp_path):
    ledger_file = _tree(tmp_path)
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-qm", "ledgers")

    passed = _run_gate(tmp_path)
    assert passed.returncode == 0, passed.stdout + passed.stderr
    assert "compared 2 modeled/count rows" in passed.stdout

    drifted = _ledger()
    drifted["metrics"]["leaves"]["value"] = 90
    ledger_file.write_text(json.dumps(drifted))
    failed = _run_gate(tmp_path)
    assert failed.returncode == 1
    assert "bench_tiny.json:leaves: committed 88, fresh 90" in failed.stdout


def test_gate_fails_without_git_history(tmp_path):
    """An export (``git archive``) carries the ledgers but no ref to compare with."""
    _tree(tmp_path)
    exported = _run_gate(tmp_path)
    assert exported.returncode != 0
