"""Shared benchmark fixtures.

Each ``bench_*`` module regenerates one of the paper's tables or figures,
or times one hot path, and archives what it measured under
``benchmarks/results/``: text artifacts through ``record``, in the
paper's layout so EXPERIMENTS.md can reference the exact output, and
numbers through ``ledger``, one ``<bench module>.json`` per module.
Every bench runs at one shape, with one command; the gate then compares
the rewritten ledgers with the committed ones::

    PYTHONPATH=src python -m pytest benchmarks --ignore=benchmarks/e2e
    python benchmarks/check_perf_regression.py --ref HEAD
"""

from __future__ import annotations

import json
import pathlib
import sys

import numpy
import pytest

import repro

HERE = pathlib.Path(__file__).parent
RESULTS_DIR = HERE / "results"

# The repo benchmark's ledger row, shared so both write one schema.
sys.path.insert(0, str(HERE / "e2e"))
from measure import metric  # noqa: E402

#: ``modeled`` and ``count`` rows are gated exactly; ``wall`` rows are
#: host-dependent timings, recorded and never compared.
KINDS = ("modeled", "count", "wall")


class Ledger:
    """The rows one bench module measured, keyed by name."""

    def __init__(self) -> None:
        self.metrics: dict[str, dict] = {}

    def row(self, name: str, value, unit: str, better: str, kind: str, **extra) -> None:
        """Record one metric; extra keyword arguments are annotations."""
        if kind not in KINDS:
            raise ValueError(f"ledger row {name!r}: kind {kind!r} not in {KINDS}")
        if name in self.metrics:
            raise ValueError(f"ledger row {name!r} recorded twice")
        self.metrics[name] = metric(value, unit, better, kind, **extra)


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def record(results_dir):
    """record(name, text): archive one regenerated artifact."""

    def _record(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n=== {name} (archived to {path}) ===")
        print(text)

    return _record


@pytest.fixture(scope="module")
def ledger(request, results_dir):
    """The module's :class:`Ledger`, written when the module finishes.

    The file is ``results/<bench module>.json`` in the repo benchmark's
    schema, ``{bench, shape, metrics: {name: {value, unit, better,
    kind}}}``.  ``shape`` is the module's ``SHAPE`` dict (its loop and
    seed constants) plus the Python minor and numpy versions, since
    either may change a modeled float.  Run whole modules: a module run
    with some tests deselected writes a ledger missing their rows, which
    the gate fails.
    """
    bench = pathlib.Path(request.module.__file__).stem
    shape = {
        **getattr(request.module, "SHAPE", {}),
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        "numpy": numpy.__version__,
    }
    book = Ledger()
    yield book
    # One row per line, so a regenerated ledger diffs row by row.
    rows = ",\n".join(
        f"  {json.dumps(name)}: {json.dumps(row, sort_keys=True)}"
        for name, row in sorted(book.metrics.items())
    )
    (results_dir / f"{bench}.json").write_text(
        f'{{"bench": {json.dumps(bench)},\n'
        f' "shape": {json.dumps(shape, sort_keys=True)},\n'
        f' "metrics": {{\n{rows}\n }}}}\n'
    )


@pytest.fixture(scope="session")
def xeon_setup():
    """§VI Xeon server stack (HMAT-discovered attributes)."""
    return repro.quick_setup("xeon-cascadelake-1lm")


@pytest.fixture(scope="session")
def knl_setup():
    """§VI KNL server stack (benchmark-fed attributes)."""
    return repro.quick_setup("knl-snc4-flat")


XEON_PUS = tuple(range(40))
KNL_PUS = tuple(range(64))


@pytest.fixture(scope="session")
def xeon_pus():
    return XEON_PUS


@pytest.fixture(scope="session")
def knl_pus():
    return KNL_PUS
