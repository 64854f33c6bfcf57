"""Command-line entry point: validate, run and converge subcommands.

Configuration files are plain key=value sections, parsed straight into
the solver's RunConfig plus the CLI's own Output settings.  Parsing is
strict, a typo in a physics parameter would silently invalidate a
verification run, so unknown sections or keys are rejected.  All numeric output is written
with 17 significant digits, which round-trips 64-bit floats exactly and
makes reruns byte-identical.

Exit codes: 0 success, 1 numerical or structure failure, 2 usage or
configuration errors.
"""

from __future__ import annotations

import argparse
import configparser
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .diagnostics import DiagnosticsRecord, StructureViolationError
from .harness import (
    EXTRA_COLUMNS,
    TABLE_COLUMNS,
    ErrorTable,
    RunConfig,
    RunResult,
    convergence_study,
    format_error_table,
    run,
)
from .la import FactorizationError, NewtonSettings
from .mesh import PeriodicTriMesh
from .physics import default_model, validate_model
from .scheme import State, StepFailure

MODEL_NAME = "chnst-paper-sec3"

_FORMATS = {"csv", "vtk", "raw"}


class ConfigError(ValueError):
    """Unusable configuration file (syntax, unknown keys, bad values)."""


@dataclass(frozen=True)
class Output:
    """What the CLI writes and where; the solver reads none of it."""

    directory: Path = Path("out")
    snapshot_stride: int = 0
    formats: tuple[str, ...] = ("csv",)
    eoc_gate: float = 1.5


def _names(raw: str) -> tuple[str, ...]:
    return tuple(f.strip() for f in raw.split(",") if f.strip())


#: (section, key) -> (type, (target, name)): a RunConfig field ("run"), a
#: NewtonSettings field, a default_model keyword (bar the model's name,
#: which parse_config checks) or an Output field.  Each default lives with
#: its target, so a key left out of the file keeps it.
_KEYS = {
    ("mesh", "base"): (int, ("run", "base")),
    ("mesh", "level"): (int, ("run", "level")),
    ("time", "tau"): (float, ("run", "tau0")),
    ("time", "c_tau"): (float, ("run", "c_tau")),
    ("time", "T"): (float, ("run", "final_time")),
    ("model", "name"): (str, ("model", "name")),
    ("model", "gamma"): (float, ("model", "gamma")),
    ("model", "mobility"): (float, ("model", "mobility")),
    ("model", "eta_min"): (float, ("model", "eta_min")),
    ("model", "eta_quad"): (float, ("model", "eta_quad")),
    ("scheme", "star_rule"): (str, ("run", "star_rule")),
    ("scheme", "newton_tol"): (float, ("newton", "tol")),
    ("scheme", "newton_max_iter"): (int, ("newton", "max_iter")),
    ("scheme", "theta_floor"): (float, ("run", "theta_floor")),
    ("output", "directory"): (Path, ("output", "directory")),
    ("output", "snapshot_stride"): (int, ("output", "snapshot_stride")),
    ("output", "formats"): (_names, ("output", "formats")),
    ("output", "eoc_gate"): (float, ("output", "eoc_gate")),
}


def parse_config(path: str | Path) -> tuple[RunConfig, Output]:
    """Parse and validate a key=value configuration file."""
    parser = configparser.ConfigParser(interpolation=None,
                                       inline_comment_prefixes=(";",))
    parser.optionxform = str  # keys are case-sensitive ('T' stays 'T')
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        # configparser reports the offending line in its message
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc

    kwargs = {"run": {}, "newton": {}, "model": {}, "output": {}}
    for section in parser.sections():
        if section not in {s for s, _ in _KEYS}:
            raise ConfigError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) not in _KEYS:
                raise ConfigError(f"{path}: unknown key {key!r} in [{section}]")
            kind, (target, name) = _KEYS[section, key]
            try:
                value = kind(raw.strip())
                if kind in (int, float) and not math.isfinite(value):
                    raise ValueError(raw)
            except ValueError as exc:
                raise ConfigError(
                    f"{path}: value {raw!r} for [{section}] {key} is not a "
                    f"valid finite {kind.__name__}") from exc
            kwargs[target][name] = value

    model_name = kwargs["model"].pop("name", MODEL_NAME)
    if model_name != MODEL_NAME:
        raise ConfigError(
            f"{path}: unknown model {model_name!r}; available: {MODEL_NAME}")
    out = Output(**kwargs["output"])
    unknown = set(out.formats) - _FORMATS
    if unknown:
        raise ConfigError(f"{path}: unknown output formats {sorted(unknown)}; "
                          f"available: {sorted(_FORMATS)}")
    if out.snapshot_stride < 0:
        raise ConfigError(f"{path}: snapshot_stride must be nonnegative")
    try:  # the solver's own checks of mesh, time, model and Newton values
        cfg = RunConfig(**kwargs["run"],
                        newton=NewtonSettings(**kwargs["newton"]),
                        model=default_model(**kwargs["model"]))
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return cfg, out


def _fmt(value: float) -> str:
    return f"{value:.17g}"


DIAGNOSTICS_COLUMNS = ("step", "time", "mass", "kinetic", "internal",
                       "total_energy", "entropy", "tau_dissipation", "d_num",
                       "newton_iters", "min_theta")


def write_diagnostics_csv(path: Path, records: list[DiagnosticsRecord]):
    lines = [",".join(DIAGNOSTICS_COLUMNS)]
    for r in records:
        lines.append(",".join([
            str(r.step), _fmt(r.time), _fmt(r.mass), _fmt(r.kinetic),
            _fmt(r.internal), _fmt(r.total_energy), _fmt(r.entropy),
            _fmt(r.tau_dissipation), _fmt(r.d_num), str(r.newton_iters),
            _fmt(r.min_theta),
        ]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_vtk_snapshot(path: Path, mesh: PeriodicTriMesh, state: State,
                       title: str = "fields"):
    """Legacy-VTK ASCII unstructured grid with the five solution fields.

    Points duplicate the periodic boundary (an (n+1)^2 grid), so triangles
    render without wrapping; velocity is subsampled at the vertices.
    """
    n = mesh.n
    npts = (n + 1) ** 2

    def pid(i, j):
        return i * (n + 1) + j

    def vid(i, j):
        return (i % n) * n + (j % n)

    lines = ["# vtk DataFile Version 3.0", title, "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {npts} double"]
    h = mesh.h
    for i in range(n + 1):
        for j in range(n + 1):
            lines.append(f"{_fmt(i * h)} {_fmt(j * h)} 0")
    ncell = 2 * n * n
    lines.append(f"CELLS {ncell} {4 * ncell}")
    for i in range(n):
        for j in range(n):
            lines.append(f"3 {pid(i, j)} {pid(i + 1, j)} {pid(i + 1, j + 1)}")
            lines.append(f"3 {pid(i, j)} {pid(i + 1, j + 1)} {pid(i, j + 1)}")
    lines.append(f"CELL_TYPES {ncell}")
    lines.extend(["5"] * ncell)

    index = np.array([vid(i, j) for i in range(n + 1) for j in range(n + 1)])
    lines.append(f"POINT_DATA {npts}")
    for name, fn in (("phi", state.phi), ("mu", state.mu),
                     ("theta", state.theta), ("pressure", state.pi)):
        lines.append(f"SCALARS {name} double")
        lines.append("LOOKUP_TABLE default")
        values = fn.coefficients[index]
        lines.extend(_fmt(v) for v in values)
    # P2 coefficients at vertex DOFs are the nodal velocity values
    u1 = state.u.component(0)[index]
    u2 = state.u.component(1)[index]
    lines.append("VECTORS velocity double")
    lines.extend(f"{_fmt(a)} {_fmt(b)} 0" for a, b in zip(u1, u2))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_raw_snapshot(path: Path, state: State):
    np.savez(path, time=state.time, phi=state.phi.coefficients,
             mu=state.mu.coefficients, theta=state.theta.coefficients,
             u=state.u.coefficients, pi=state.pi.coefficients)


def _write_snapshots(out: Output, result: RunResult):
    if out.snapshot_stride <= 0:
        return
    outdir = out.directory
    for k, state in enumerate(result.states):
        if k % out.snapshot_stride != 0:
            continue
        if "vtk" in out.formats:
            write_vtk_snapshot(outdir / f"snapshot_{k}.vtk", result.mesh,
                               state, title=f"step {k}")
        if "raw" in out.formats:
            write_raw_snapshot(outdir / f"snapshot_{k}_coeffs.npz", state)


def write_eoc_tables(outdir: Path, table: ErrorTable):
    (outdir / "eoc_table.txt").write_text(format_error_table(table),
                                          encoding="utf-8")
    headers = ["level"]
    for name, _ in TABLE_COLUMNS:
        headers.extend([name, f"eoc_{name}"])
    headers.extend(name for name, _ in EXTRA_COLUMNS)
    lines = [",".join(headers)]
    orders = {attr: table.eoc_column(attr) for _, attr in TABLE_COLUMNS}
    for i, row in enumerate(table.rows):
        cells = [str(row.level)]
        for name, attr in TABLE_COLUMNS:
            value = row.combined if attr == "combined" else getattr(row, attr)
            cells.append(_fmt(value))
            cells.append("" if i == 0 else _fmt(orders[attr][i - 1]))
        for _, attr in EXTRA_COLUMNS:
            cells.append(_fmt(getattr(row, attr)))
        lines.append(",".join(cells))
    (outdir / "eoc_table.csv").write_text("\n".join(lines) + "\n",
                                          encoding="utf-8")


def cmd_validate(cfg: RunConfig, out: Output) -> int:
    report = validate_model(cfg.model)
    print(report)
    print("model validation:", "PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def cmd_run(cfg: RunConfig, out: Output) -> int:
    outdir = out.directory
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(cfg)
    except (StepFailure, StructureViolationError) as exc:
        step = getattr(exc, "step_index", None)
        print(f"error: solver failed at step {step}: {exc}", file=sys.stderr)
        return 1
    except FactorizationError as exc:
        print(f"error: linear solver failed: {exc}", file=sys.stderr)
        return 1
    write_diagnostics_csv(outdir / "diagnostics.csv", result.records)
    _write_snapshots(out, result)
    tau, n_steps = result.config.resolve_tau()
    print(f"completed {n_steps} steps (tau = {tau:g}) on a "
          f"{result.mesh.n}x{result.mesh.n} mesh; diagnostics in "
          f"{outdir / 'diagnostics.csv'}")
    return 0


def cmd_converge(cfg: RunConfig, out: Output) -> int:
    num_levels = cfg.level + 1
    if num_levels < 2:
        print("error: converge needs [mesh] level >= 1 (levels 0..level are run)",
              file=sys.stderr)
        return 2
    outdir = out.directory
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        table, _ = convergence_study(cfg, num_levels)
    except (StepFailure, StructureViolationError, FactorizationError) as exc:
        step = getattr(exc, "step_index", None)
        print(f"error: solver failed (step {step}): {exc}", file=sys.stderr)
        return 1
    write_eoc_tables(outdir, table)
    print(format_error_table(table), end="")
    final = table.final_combined_eoc()
    if final is None:
        print("no convergence order available (single error row)")
        return 0
    print(f"final combined-error order: {final:.2f} (gate {out.eoc_gate:g})")
    return 0 if final >= out.eoc_gate else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="chnsfem",
        description="Structure-preserving solver for non-isothermal "
                    "two-phase flow on the periodic unit square")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("validate", "check material-model assumptions and identities"),
            ("run", "run one simulation and write per-step diagnostics"),
            ("converge", "run a refinement ladder and tabulate error orders")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--output", default=None,
                       help="output directory (overrides [output] directory)")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        cfg, out = parse_config(args.config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output is not None:
        out = replace(out, directory=Path(args.output))

    handlers = {"validate": cmd_validate, "run": cmd_run,
                "converge": cmd_converge}
    return handlers[args.command](cfg, out)


if __name__ == "__main__":
    sys.exit(main())
