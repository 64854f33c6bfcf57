"""Smoke test of the benchmark at the smallest allowed mesh (base 4, two
steps per level).

    python3 perfbench/smoke.py

For a single run and for a two-level study it checks that every metric
named in BENCHMARK.json is emitted with its unit, traced and untraced, and
that a tampered reference value is reported as a failure with a nonzero
exit code, not as a pass.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(*args: str) -> tuple[int, dict]:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, check=False,
                          timeout=180)
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in ("smoke-run", "smoke-ladder"):
        common = ["--workload", workload, "--seed", "0", "--seconds", "1"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = bench(*common, "--trace", str(trace))
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace {trace}: failed run {result}")
            for metric in spec[key]:
                got = result["metrics"].get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(f"{workload} trace {trace}: metric "
                                    f"{metric['name']} [{metric['unit']}] "
                                    f"reported as {got}")

        reference = json.loads((HERE / "reference.json").read_text())
        reference[workload]["final_row"]["entropy"] *= 1 + 1e-6
        tampered = ROOT / ".bench_out" / f"tampered-{workload}.json"
        tampered.parent.mkdir(exist_ok=True)
        tampered.write_text(json.dumps(reference))
        code, result = bench(*common, "--trace", "0",
                             "--reference", str(tampered))
        tampered.unlink()
        if code == 0 or result["correct"] or result["failed"] != result["attempted"]:
            problems.append(f"{workload}: tampered reference passed: {result}")

    for p in problems:
        print("FAIL", p)
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
