"""The benchmark's hooks into the package stay intact.

``perfbench/unit.py`` wraps functions of the package by name (the
diagnostics rows, the Stepper's methods, ``la.lu_solve``, ...); a rename
makes every traced unit fail.  One traced run of each of the two smallest
workloads, a single run and a two-level study, catches that here.  A hooked
function that stays defined but is no longer called reads zero in its
per-layer metric, so the single run also checks that every per-layer
metric of ``BENCHMARK.json`` is reported and nonzero.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_smoke(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "1",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return result["metrics"]


def test_traced_smoke_run_passes():
    metrics = traced_smoke("smoke-run")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for m in spec["per_layer"]:
        assert m["name"] in metrics, m["name"]
        assert metrics[m["name"]]["value"] != 0, m["name"]


def test_traced_smoke_ladder_passes():
    # the study hooks: convergence_study, inter_level_error and prolong
    traced_smoke("smoke-ladder")
