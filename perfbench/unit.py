"""One benchmark unit, run in a process of its own so that its peak memory
is its own.  ``run.py`` starts these; each writes one JSON result file.

    python3 perfbench/unit.py --workload NAME --shift A B \
        --mode {setup,run,trace} --out RESULT.json --workdir DIR \
        [--reference REFERENCE.json]

Modes:

* ``setup`` runs the workload's code path up to the first time step and
  reports the set-up time (import, mesh, spaces, ``Stepper``,
  ``initial_state`` and the initial diagnostics row);
* ``run`` runs the whole workload with tracing off and reports its wall
  time, per-step times and peak memory;
* ``trace`` does the same with spans recorded around the public calls of
  every layer, and reports per-layer self times and counts.

The solver receives only the initial-data closures, which are the
benchmark's initial data translated on the torus by the shift (A, B).
Every run, traced or not, is then checked (see ``check``).
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Tolerances of acceptance criterion 1.
MASS_DRIFT_MAX = 1e-10
ENERGY_DRIFT_MAX = 1e-9
D_NUM_MIN = -1e-10
ENTROPY_INCREMENT_MIN = -1e-10

# Comparison with the values recorded from the seed commit (seed 0 only):
# |value - ref| <= RTOL * |ref| + ATOL.  A chord iteration to the same 1e-12
# Newton tolerance (one factor per step, refactored when the residual
# contracts less than 5x) moved them by at most 2.4e-13, well inside this.
FINAL_ROW_RTOL, FINAL_ROW_ATOL = 1e-8, 1e-11
ERROR_ROW_RTOL, ERROR_ROW_ATOL = 1e-6, 1e-14

FINAL_ROW_FIELDS = ("time", "mass", "kinetic", "internal", "entropy",
                    "tau_dissipation", "d_num", "min_theta")
ERROR_ROW_FIELDS = ("linf_h1_phi", "linf_l2_theta", "linf_l2_u", "l2_h1_mu",
                    "l2_h1_theta", "l2_h1_u")


@dataclass(frozen=True)
class Workload:
    """``steps`` steps of size ``tau`` at level 0 (a convergence study with
    ``levels`` levels halves both per level).  A single run writes
    ``diagnostics.csv`` and, every ``snapshot_stride`` steps, a VTK and a raw
    snapshot, as ``chnsfem run`` does; a study writes the EOC tables, as
    ``chnsfem converge`` does."""

    base: int
    tau: float
    steps: int
    levels: int = 1
    snapshot_stride: int = 0

    @property
    def planned_steps(self) -> int:
        return sum(self.steps * 2**k for k in range(self.levels))


WORKLOADS = {
    # 100 steps at tau = c_tau*h on n=8: small systems, many steps.
    "long-n8": Workload(base=8, tau=1.25e-4, steps=100, snapshot_stride=10),
    # levels 0-1 of the convergence study, truncated to T = 5e-4.
    "ladder-l1": Workload(base=8, tau=1.25e-4, steps=4, levels=2),
    # n=16 with an explicit tau = 1e-2: 3 Newton iterations per step.
    "bigstep-n16": Workload(base=16, tau=1e-2, steps=5),
    # smallest allowed mesh, for perfbench/smoke.py only
    "smoke-run": Workload(base=4, tau=2.5e-4, steps=2, snapshot_stride=1),
    "smoke-ladder": Workload(base=4, tau=2.5e-4, steps=2, levels=2),
}


# -- tracing -----------------------------------------------------------------


class Tracer:
    """Spans (name, start, end, parent) kept in memory, plus counts taken
    at the same boundaries."""

    def __init__(self, t0: float):
        self.t0 = t0
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter[str] = Counter()
        self.fill_nnz = 0

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter() - self.t0, None, parent])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = time.perf_counter() - self.t0
            self._stack.pop()

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the part its children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def top_level_time(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans
                   if parent is None)


class _TracedFactor:
    """A SuperLU factor whose triangular solves are traced."""

    def __init__(self, factor, tracer: Tracer):
        self._factor = factor
        self.solve = tracer.wrap("la.trisolve", factor.solve)

    def __getattr__(self, name):
        return getattr(self._factor, name)


def _rebind(modules, original, replacement):
    """Point every module-level name bound to ``original`` at ``replacement``,
    so calls from any module of the package go through it."""
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def install_tracer(tracer: Tracer):
    """Wrap the public calls of every layer in spans, from the outside."""
    from chnsfem import cli, diagnostics, fespace, harness, la, mesh, scheme

    modules = [m for name, m in sys.modules.items()
               if name == "chnsfem" or name.startswith("chnsfem.")]
    functions = [
        ("mesh.build", mesh.build_uniform),
        ("fespace.build", scheme.build_spaces),
        ("scheme.initial_state", scheme.initial_state),
        ("fespace.tabulate", fespace.tabulate),
        ("fespace.prolong", fespace.prolong),
        ("la.check", la.lu_solve),
        ("diagnostics.record", diagnostics.record),
        ("diagnostics.record", diagnostics.initial_record),
        ("harness.run_self", harness.run),
        ("harness.run_self", harness.convergence_study),
        ("harness.error", harness.inter_level_error),
        ("cli.write", cli.write_diagnostics_csv),
        ("cli.write", cli.write_vtk_snapshot),
        ("cli.write", cli.write_raw_snapshot),
        ("cli.write", cli.write_eoc_tables),
    ]
    for name, fn in functions:
        _rebind(modules, fn, tracer.wrap(name, fn))

    Stepper = scheme.Stepper
    Stepper.__init__ = tracer.wrap("scheme.stepper_init", Stepper.__init__)
    Stepper.step = tracer.wrap("scheme.step_self", Stepper.step)
    Stepper.jacobian_matrix = tracer.wrap("scheme.jacobian",
                                          Stepper.jacobian_matrix)
    residual = tracer.wrap("scheme.residual", Stepper.residual_vector)

    def counted_residual(*args, **kwargs):
        if tracer.inside("la.newton_self"):
            tracer.counts["newton.residual_calls"] += 1
        return residual(*args, **kwargs)
    Stepper.residual_vector = counted_residual

    newton = tracer.wrap("la.newton_self", la.newton)

    def counted_newton(*args, **kwargs):
        result = newton(*args, **kwargs)
        tracer.counts["newton.calls"] += 1
        tracer.counts["newton.iterations"] += result.iterations
        return result
    _rebind(modules, la.newton, counted_newton)

    splu = tracer.wrap("la.factor", la.splu)

    def traced_splu(*args, **kwargs):
        factor = splu(*args, **kwargs)
        if tracer.inside("la.newton_self"):
            tracer.counts["newton.factorizations"] += 1
        tracer.fill_nnz = max(tracer.fill_nnz, int(factor.nnz))
        return _TracedFactor(factor, tracer)
    la.splu = traced_splu


#: span names; each gives the self-time metric "<span>_s"
SPANS = ("setup.import", "mesh.build", "fespace.build", "scheme.stepper_init",
         "scheme.initial_state", "fespace.tabulate", "fespace.prolong",
         "scheme.jacobian", "scheme.residual", "scheme.step_self",
         "la.newton_self", "la.factor", "la.trisolve", "la.check",
         "diagnostics.record", "harness.run_self", "harness.error",
         "cli.write")
#: spans that also give the call-count metric "<span>_calls"
COUNTED_SPANS = ("fespace.tabulate", "scheme.jacobian", "scheme.residual",
                 "la.factor", "la.trisolve", "diagnostics.record")


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    self_times = tracer.self_times()
    out = {f"{span}_s": self_times.get(span, 0.0) for span in SPANS}
    for span in COUNTED_SPANS:
        out[f"{span}_calls"] = sum(1 for s in tracer.spans if s[0] == span)
    c = tracer.counts
    iters = c["newton.iterations"]
    out["la.fill_nnz"] = tracer.fill_nnz
    out["la.newton_iters_per_step"] = iters / max(1, c["newton.calls"])
    # every residual call in Newton past the first of a solve and the one
    # accepted trial per iteration is a rejected line-search trial
    out["la.halvings"] = (c["newton.residual_calls"] - c["newton.calls"]
                          - iters)
    out["la.factor_per_iter"] = c["newton.factorizations"] / max(1, iters)
    # the harness layer as a whole, with the prolongation inside the error
    # norms: nonzero on every workload, unlike its ladder-only parts
    out["harness.self_s"] = (out["harness.run_self_s"] + out["harness.error_s"]
                             + out["fespace.prolong_s"])
    out["trace.coverage"] = tracer.top_level_time() / wall
    return out


# -- the workload --------------------------------------------------------------


class _SetupDone(Exception):
    """Raised at the first time step of a set-up probe."""


class StepClock:
    """End times of the diagnostics rows, which close each time step.

    Wraps the diagnostics calls as ``harness.run`` sees them; step k of a
    run lasts from the end of row k-1 to the end of row k, that is, the
    Newton solve plus its diagnostics row.
    """

    def __init__(self, harness):
        self.runs: list[list[float]] = []
        initial_record, record = harness.initial_record, harness.record

        def clocked_initial_record(*args, **kwargs):
            row = initial_record(*args, **kwargs)
            self.runs.append([time.perf_counter()])
            return row

        def clocked_record(*args, **kwargs):
            row = record(*args, **kwargs)
            self.runs[-1].append(time.perf_counter())
            return row

        harness.initial_record = clocked_initial_record
        harness.record = clocked_record

    def step_times(self) -> list[list[float]]:
        return [[b - a for a, b in zip(ends, ends[1:])] for ends in self.runs]

    def completed_steps(self) -> int:
        return sum(len(ends) - 1 for ends in self.runs)


def initial_data(harness, shift):
    """The benchmark's initial data translated by ``shift`` on the torus;
    the unshifted closures themselves for (0, 0)."""
    closures = harness.benchmark_initial_data()
    a, b = shift
    if a == 0.0 and b == 0.0:
        return closures
    return tuple((lambda x, y, f=f: f(x - a, y - b)) for f in closures)


def run_workload(wl: Workload, shift, workdir: Path):
    """Run the workload as the CLI would and write its outputs."""
    from chnsfem import cli, harness

    cfg = harness.RunConfig(base=wl.base, tau0=wl.tau,
                            final_time=wl.steps * wl.tau,
                            initial_data=initial_data(harness, shift))
    workdir.mkdir(parents=True, exist_ok=True)
    if wl.levels > 1:
        table, results = harness.convergence_study(cfg, wl.levels)
        cli.write_eoc_tables(workdir, table)
        return results, table
    result = harness.run(cfg)
    cli.write_diagnostics_csv(workdir / "diagnostics.csv", result.records)
    if wl.snapshot_stride:
        for k in range(0, len(result.states), wl.snapshot_stride):
            state = result.states[k]
            cli.write_vtk_snapshot(workdir / f"snapshot_{k}.vtk", result.mesh,
                                   state, title=f"step {k}")
            cli.write_raw_snapshot(workdir / f"snapshot_{k}_coeffs.npz", state)
    return [result], None


# -- output checks -----------------------------------------------------------


def _row_values(row, fields) -> dict[str, float]:
    return {f: float(getattr(row, f)) for f in fields}


def _compare(label, values, reference, rtol, atol, failures):
    for key, ref in reference.items():
        value = values[key]
        if not abs(value - ref) <= rtol * abs(ref) + atol:
            failures.append(f"{label} {key} = {value!r} differs from the "
                            f"recorded {ref!r} (rtol {rtol:g}, atol {atol:g})")


def check(wl: Workload, results, table, workdir: Path,
          reference: dict | None) -> list[str]:
    """Failures of the outputs: the structure identities of every level at
    the tolerances of acceptance criterion 1, every step's Newton residual,
    the files written, and, when given, the recorded reference values."""
    failures = []
    for res in results:
        level = res.config.level
        recs = res.records
        tol = res.config.newton.tol
        mass0, energy0 = recs[0].mass, recs[0].total_energy
        mass_drift = max(abs(r.mass - mass0) for r in recs)
        energy_drift = max(abs(r.total_energy - energy0) for r in recs)
        d_num = min(r.d_num for r in recs[1:])
        ds = min(b.entropy - a.entropy for a, b in zip(recs, recs[1:]))
        worst = max(s.residual_norm for s in res.newton_stats)
        for ok, what in (
                (mass_drift <= MASS_DRIFT_MAX, f"mass drift {mass_drift:.3e}"),
                (energy_drift <= ENERGY_DRIFT_MAX,
                 f"energy drift {energy_drift:.3e}"),
                (d_num >= D_NUM_MIN, f"min d_num {d_num:.3e}"),
                (ds >= ENTROPY_INCREMENT_MIN, f"min entropy increment {ds:.3e}"),
                (worst <= tol, f"Newton residual {worst:.3e} above {tol:.0e}"),
                (len(recs) == wl.steps * 2**level + 1,
                 f"{len(recs) - 1} steps instead of {wl.steps * 2**level}")):
            if not ok:
                failures.append(f"level {level}: {what}")

    final = results[-1].records[-1]
    if table is None:
        failures += _check_run_files(wl, results[0], workdir)
    else:
        failures += _check_eoc_csv(table, workdir)
    if reference is not None:
        _compare("final row", _row_values(final, FINAL_ROW_FIELDS),
                 reference["final_row"], FINAL_ROW_RTOL, FINAL_ROW_ATOL,
                 failures)
        if table is not None:
            _compare("error row", _row_values(table.rows[-1], ERROR_ROW_FIELDS),
                     reference["error_row"], ERROR_ROW_RTOL, ERROR_ROW_ATOL,
                     failures)
    return failures


def _check_run_files(wl: Workload, result, workdir: Path) -> list[str]:
    """diagnostics.csv must round-trip the records exactly (17 digits), and
    every snapshot must be there."""
    failures = []
    lines = (workdir / "diagnostics.csv").read_text().splitlines()
    if len(lines) != len(result.records) + 1:
        failures.append(f"diagnostics.csv has {len(lines) - 1} rows, "
                        f"expected {len(result.records)}")
    else:
        header = lines[0].split(",")
        for line, rec in zip(lines[1:], result.records):
            row = dict(zip(header, line.split(",")))
            for key in ("time", "mass", "kinetic", "internal", "entropy",
                        "tau_dissipation", "d_num", "min_theta"):
                if float(row[key]) != getattr(rec, key):
                    failures.append(f"diagnostics.csv step {rec.step}: {key} "
                                    f"{row[key]} != {getattr(rec, key)!r}")
    if wl.snapshot_stride:
        for k in range(0, len(result.states), wl.snapshot_stride):
            for name in (f"snapshot_{k}.vtk", f"snapshot_{k}_coeffs.npz"):
                if not (workdir / name).is_file():
                    failures.append(f"missing {name}")
    return failures


def _check_eoc_csv(table, workdir: Path) -> list[str]:
    lines = (workdir / "eoc_table.csv").read_text().splitlines()
    if len(lines) != len(table.rows) + 1:
        return [f"eoc_table.csv has {len(lines) - 1} rows"]
    header = lines[0].split(",")
    failures = []
    for line, row in zip(lines[1:], table.rows):
        cells = dict(zip(header, line.split(",")))
        for key, value in (("e", row.combined), ("e_phi", row.linf_h1_phi),
                           ("e_mu", row.l2_h1_mu)):
            if float(cells[key]) != value:
                failures.append(f"eoc_table.csv {key} {cells[key]} != {value!r}")
    return failures


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--shift", nargs=2, type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workdir", required=True, type=Path)
    parser.add_argument("--reference", type=Path, default=None)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    tracer = Tracer(t0) if args.mode == "trace" else None

    sys.path.insert(0, str(ROOT / "src"))
    with tracer.span("setup.import") if tracer else nullcontext():
        import chnsfem
        from chnsfem import harness, scheme
    source = Path(chnsfem.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"chnsfem imported from {source}, not from {ROOT / 'src'}")
    if tracer:
        install_tracer(tracer)
    clock = StepClock(harness)

    out: dict = {"mode": args.mode, "planned_steps": wl.planned_steps}
    import numpy
    import scipy
    out["versions"] = {"python": sys.version.split()[0],
                       "numpy": numpy.__version__, "scipy": scipy.__version__}

    if args.mode == "setup":
        def stop(*args, **kwargs):
            raise _SetupDone
        scheme.Stepper.step = stop
        try:
            run_workload(wl, args.shift, args.workdir)
        except _SetupDone:
            out["setup_s"] = time.perf_counter() - t0
        else:
            raise SystemExit("the set-up probe never reached a time step")
        args.out.write_text(json.dumps(out))
        return 0

    try:
        results, table = run_workload(wl, args.shift, args.workdir)
        error = None
    except Exception:  # a failed solve is a measured outcome
        results, table = None, None
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(wall_s=wall, peak_rss_mb=rss_mb,
               setup_s=clock.runs[0][0] - t0 if clock.runs else None,
               step_times=clock.step_times(),
               completed_steps=clock.completed_steps())
    if tracer:
        out["layers"] = layer_metrics(tracer, wall)
        run_id = f"{args.out.parent.name}/{args.out.stem}"
        out["spans"] = [{"run": run_id, "name": n, "start": s, "end": e,
                         "parent": p} for n, s, e, p in tracer.spans]

    if error is not None:
        out["failures"] = [error]
    else:
        reference = None
        if args.reference is not None:
            reference = json.loads(args.reference.read_text())[args.workload]
        out["failures"] = check(wl, results, table, args.workdir, reference)
        if tracer:
            out["layers"]["cli.bytes_written"] = sum(
                p.stat().st_size for p in args.workdir.iterdir())
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
