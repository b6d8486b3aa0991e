"""Exact gate over the benchmark ledgers.

``PYTHONPATH=src python -m pytest benchmarks --ignore=benchmarks/e2e``
rewrites one ledger per bench module, ``benchmarks/results/<module>.json``,
in the repo benchmark's schema ``{bench, shape, metrics: {name: {value,
unit, better, kind}}}``.  This script compares those files with the ones
committed at ``--ref`` under one rule:

* a ``modeled`` or ``count`` row must equal the committed row exactly;
* ``wall`` rows are host-dependent timings: recorded (the archived run a
  speed claim cites), never compared.  The repo benchmark
  (``benchmarks/e2e``) gates wall clock, parent against change on one host;
* a differing ``shape``, or a ledger file or row present on one side
  only, fails;
* a run that compared no row fails.

Usage::

    python benchmarks/check_perf_regression.py [--ref HEAD]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
RESULTS = "benchmarks/results"


def committed_ledgers(ref: str) -> dict[str, dict]:
    """The ledger files committed at ``ref``, by file name."""
    listing = subprocess.run(
        ["git", "ls-tree", "--name-only", ref, f"{RESULTS}/"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    if listing.returncode != 0:
        raise SystemExit(
            f"ledger gate FAILED: cannot list {RESULTS} at {ref}: "
            f"{listing.stderr.strip()}"
        )
    ledgers = {}
    for path in listing.stdout.split():
        if path.endswith(".json"):
            shown = subprocess.run(
                ["git", "show", f"{ref}:{path}"],
                cwd=REPO,
                capture_output=True,
                text=True,
                check=True,
            )
            ledgers[pathlib.PurePosixPath(path).name] = json.loads(shown.stdout)
    return ledgers


def fresh_ledgers() -> dict[str, dict]:
    """The ledger files in the working tree, by file name."""
    return {
        path.name: json.loads(path.read_text())
        for path in (REPO / RESULTS).glob("*.json")
    }


def compare(
    fresh: dict[str, dict], committed: dict[str, dict]
) -> tuple[list[str], int, int]:
    """Apply the gate rule to two ``{file name: ledger}`` maps.

    Returns ``(failures, compared, recorded)``: one line per failure, the
    number of rows compared exactly, and the number of wall rows recorded.
    """
    failures: list[str] = []
    compared = recorded = 0
    for name in sorted(fresh.keys() | committed.keys()):
        if name not in committed or name not in fresh:
            side = "fresh" if name in fresh else "committed"
            failures.append(f"{name}: ledger file only on the {side} side")
            continue
        new, old = fresh[name], committed[name]
        if new["shape"] != old["shape"]:
            failures.append(
                f"{name}: shape differs: committed {old['shape']}, fresh {new['shape']}"
            )
            continue
        for row in sorted(new["metrics"].keys() | old["metrics"].keys()):
            was, now = old["metrics"].get(row), new["metrics"].get(row)
            label = f"{name}:{row}"
            if was is None or now is None:
                side = "fresh" if was is None else "committed"
                failures.append(f"{label}: row only on the {side} side")
            elif was["kind"] == now["kind"] == "wall":
                recorded += 1
            else:
                compared += 1
                if was != now:
                    # Name both values; when only annotations moved, both rows.
                    if was["value"] != now["value"]:
                        was, now = was["value"], now["value"]
                    failures.append(f"{label}: committed {was!r}, fresh {now!r}")
    if not compared:
        failures.append("no modeled or count row was compared")
    return failures, compared, recorded


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--ref", default="HEAD", help="git ref of the committed ledgers"
    )
    args = parser.parse_args(argv)

    failures, compared, recorded = compare(fresh_ledgers(), committed_ledgers(args.ref))
    print(
        f"compared {compared} modeled/count rows exactly against {args.ref}; "
        f"recorded {recorded} wall rows"
    )
    if failures:
        print("ledger gate FAILED:")
        for line in failures:
            print(f"  - {line}")
        return 1
    print("ledger gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
