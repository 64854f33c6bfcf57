"""The chnsfem benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the solver is imported from its
``src`` directory.  The load is a closed loop: one unit at a time, each in a
fresh child process (``unit.py``), until the next unit would overrun the
measuring time (at least one unit runs).  Children that only set up
(``SETUP_PROBES``) come first.  With ``--trace 0`` the units are untraced
and the end-to-end metrics are reported.  With ``--trace 1`` untraced and
traced units alternate, each pair in the reverse order of the one before,
and the per-layer metrics of the traced units are reported, with the
tracing overhead, which is printed only, measured against the untraced
ones.

Every unit's outputs are checked; on seed 0 they are also compared with the
values in ``reference.json``, recorded from the seed commit.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` (both counted in planned time steps) and
``metrics``; the lines before it give every metric with its unit, workload
and sample count, the seed and the environment.  The exit code is 0 when
every output check passed, 1 when one failed and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from unit import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"
OUT_DIR = ROOT / ".bench_out"

#: set-up-only children before the measured units: they warm the file
#: cache, so that no measured unit starts cold, and in an untraced run their
#: set-up times are samples of ``setup_s`` on top of one per unit
SETUP_PROBES = {0: 5, 1: 1}
#: every child is killed when the whole run reaches this many seconds
RUN_DEADLINE_S = 170.0


def metric_unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_calls") or name in ("la.halvings", "la.fill_nnz"):
        return "count"
    if name == "cli.bytes_written":
        return "bytes"
    return "ratio"


def shift_for_seed(seed: int) -> tuple[float, float]:
    """Torus translation of the initial data; seed 0 is the paper's data."""
    if seed == 0:
        return 0.0, 0.0
    rng = random.Random(seed)
    return rng.random(), rng.random()


def blas_threads() -> int:
    return len(os.sched_getaffinity(0))


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "chnsfem").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": digest.hexdigest()[:16],
            "cpu": cpu, "nproc": os.cpu_count(),
            "blas_threads": blas_threads()}


class Runner:
    """Starts the units of one run, one child process at a time."""

    def __init__(self, workload: str, shift, reference: Path | None,
                 tag: str):
        self.workload = workload
        self.shift = shift
        self.reference = reference
        self.dir = OUT_DIR / tag
        self.start = time.perf_counter()
        self.count = 0
        threads = str(blas_threads())
        self.env = dict(os.environ, OMP_NUM_THREADS=threads,
                        OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def unit(self, mode: str) -> dict:
        """One child; a crash or timeout comes back as a failure."""
        self.count += 1
        out = self.dir / f"unit{self.count}.json"
        workdir = self.dir / f"unit{self.count}"
        cmd = [sys.executable, str(HERE / "unit.py"),
               "--workload", self.workload, "--mode", mode,
               "--shift", repr(self.shift[0]), repr(self.shift[1]),
               "--out", str(out), "--workdir", str(workdir)]
        if self.reference is not None:
            cmd += ["--reference", str(self.reference)]
        timeout = max(1.0, RUN_DEADLINE_S - self.elapsed())
        try:
            done = subprocess.run(cmd, cwd=ROOT, env=self.env, timeout=timeout,
                                  capture_output=True, text=True, check=False)
            problem = None if done.returncode == 0 else (
                f"exit code {done.returncode}: {done.stderr.strip()[-2000:]}")
        except subprocess.TimeoutExpired:
            problem = f"killed after {timeout:.0f} s"
        shutil.rmtree(workdir, ignore_errors=True)
        if problem is None and out.is_file():
            result = json.loads(out.read_text())
            out.unlink()
            return result
        return {"mode": mode, "failures": [problem or "no result written"],
                "completed_steps": 0,
                "planned_steps": WORKLOADS[self.workload].planned_steps}


def measure(runner: Runner, modes: list[str], seconds: float) -> list[dict]:
    """Closed loop: units in turn while the next one is expected to end
    within ``seconds``.  The modes cycle, each round in the reverse order
    of the one before (A B B A A B ...), so no mode always runs first."""
    units = []
    begin = runner.elapsed()
    while True:
        rnd, pos = divmod(len(units), len(modes))
        units.append(runner.unit(modes[-1 - pos if rnd % 2 else pos]))
        spent = runner.elapsed() - begin
        per_unit = spent / len(units)
        if units[-1]["failures"] or runner.elapsed() + per_unit > RUN_DEADLINE_S - 10:
            return units
        if len(units) >= len(modes) and spent + per_unit > seconds:
            return units


def end_to_end(wl, units: list[dict], setups: list[float]) -> dict:
    """Metric name -> (value, sample count)."""
    runs = [u for u in units if not u["failures"]]
    steps = [t for u in runs for t in u["step_times"][wl.levels - 1]]
    out = {}
    if runs:
        out["wall_s"] = (statistics.median(u["wall_s"] for u in runs), len(runs))
        out["peak_rss_mb"] = (max(u["peak_rss_mb"] for u in runs), len(runs))
        out["step_p50_s"] = (statistics.median(steps), len(steps))
        if len(steps) >= 100:  # ten samples above the 90th percentile
            out["step_p90_s"] = (statistics.quantiles(steps, n=10)[-1],
                                 len(steps))
    setups = setups + [u["setup_s"] for u in runs]
    if setups:
        out["setup_s"] = (statistics.median(setups), len(setups))
    return out


def per_layer(units: list[dict]) -> dict:
    traced = [u for u in units if u["mode"] == "trace" and not u["failures"]]
    plain = [u for u in units if u["mode"] == "run" and not u["failures"]]
    out = {}
    if traced:
        for name in traced[0]["layers"]:
            out[name] = (statistics.median(u["layers"][name] for u in traced),
                         len(traced))
    if traced and plain:
        ratio = (statistics.median(u["wall_s"] for u in traced)
                 / statistics.median(u["wall_s"] for u in plain))
        out["trace.overhead_frac"] = (ratio - 1.0, len(traced) + len(plain))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="chnsfem benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=REFERENCE,
                        help="recorded seed-0 values (default: %(default)s)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chnsfem" / "__init__.py").is_file():
        print(f"error: no chnsfem sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    shift = shift_for_seed(args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    runner = Runner(args.workload, shift,
                    args.reference if args.seed == 0 else None, tag)
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  shift "
          f"({shift[0]:.6f}, {shift[1]:.6f})  trace {args.trace}  "
          f"measuring {args.seconds:g} s")

    probes = [runner.unit("setup") for _ in range(SETUP_PROBES[args.trace])]
    if args.trace:
        units = measure(runner, ["run", "trace"], args.seconds)
        metrics = per_layer(units)
    else:
        units = measure(runner, ["run"], args.seconds)
        metrics = end_to_end(wl, units, [p["setup_s"] for p in probes
                                         if "setup_s" in p])
    for u in units:
        if "versions" in u:
            env.update(u["versions"])
            break
    print("environment " + json.dumps(env, sort_keys=True))

    attempted = sum(u["planned_steps"] for u in units)
    failed = sum(u["planned_steps"] if u["failures"]
                 else u["planned_steps"] - u["completed_steps"] for u in units)
    for i, u in enumerate(probes + units, 1):
        for failure in u.get("failures", ()):
            print(f"FAILED unit {i} ({u['mode']}): {failure}", file=sys.stderr)
    for name, (value, n) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {metric_unit(name):6s} workload "
              f"{args.workload}  n={n}")
    print(f"  {'failed_frac':28s} {failed / attempted:14.6g} {'ratio':6s} "
          f"workload {args.workload}  {failed} of {attempted} planned steps")

    correct = failed == 0 and all("setup_s" in p for p in probes)
    runner.dir.mkdir(parents=True, exist_ok=True)
    (runner.dir / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "shift": shift,
        "trace": args.trace, "seconds": args.seconds, "environment": env,
        "metrics": {k: {"value": v, "samples": n} for k, (v, n) in metrics.items()},
        "attempted": attempted, "failed": failed, "probes": probes,
        "units": units}))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = {m["name"]: {"value": metrics[m["name"]][0],
                          "unit": metric_unit(m["name"])}
              for m in spec["per_layer" if args.trace else "end_to_end"]
              if m["name"] in metrics}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": report}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
