"""What each entry point loads, checked in a fresh interpreter per test.

``import repro`` is cheap: subpackages and the names re-exported from
``repro``, ``repro.serve`` and ``repro.resilience`` load on first
access.  The serve daemon's stack therefore leaves numpy and the
analysis, workload and harness layers unloaded, while every old
spelling still resolves.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

#: Layers the daemon never calls (a package's modules load only with it).
NOT_ON_THE_DAEMON_PATH = (
    "numpy",
    "repro.apps",
    "repro.sensitivity",
    "repro.profiler",
    "repro.omp",
    "repro.baselines",
    "repro.analysis",
    "repro.experiments",
    "repro.serve.replay",
    "repro.resilience.chaos",
    "repro.resilience.faults",
)


def loaded_after(code: str) -> list[str]:
    """Run ``code`` in a fresh interpreter; the modules it left loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    script = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_bare_import_loads_only_the_package():
    loaded = loaded_after("import repro")
    assert [m for m in loaded if m.startswith("repro.")] == []
    assert "repro" in loaded


@pytest.mark.parametrize("platform", ["xeon-cascadelake-1lm", "knl-snc4-flat"])
def test_daemon_stack_leaves_unused_layers_unloaded(platform):
    loaded = loaded_after(
        "import repro.serve.cli\n"
        "from repro.serve.protocol import Request\n"
        "from repro.serve.server import ReproServeServer\n"
        f"server = ReproServeServer(platform={platform!r})\n"
        "reply = server.core.apply(Request(verb='stats', tenant='t', id=0))\n"
        "assert reply.ok, reply\n"
    )
    assert "repro.serve.server" in loaded
    assert [m for m in NOT_ON_THE_DAEMON_PATH if m in loaded] == []


def test_old_spellings_still_resolve():
    loaded = loaded_after(
        "import repro\n"
        "assert repro.sim.SimEngine is repro.SimEngine\n"
        "from repro import MemAttrs, quick_setup\n"
        "assert MemAttrs is repro.core.MemAttrs\n"
        "assert repro.errors.ReproError and repro.units.GiB\n"
        "from repro.resilience import run_chaos\n"
        "from repro.serve import selftest\n"
        "assert run_chaos is repro.resilience.chaos.run_chaos\n"
        "assert selftest is repro.serve.replay.selftest\n"
        "for module in (repro, repro.serve, repro.resilience):\n"
        "    for name in module.__all__:\n"
        "        getattr(module, name)\n"
    )
    assert "repro.serve.replay" in loaded
    assert "repro.resilience.chaos" in loaded
