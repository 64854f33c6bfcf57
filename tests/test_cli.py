import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from chnsfem.cli import (
    ConfigError,
    main,
    parse_config,
    write_vtk_snapshot,
)
from chnsfem.la import NonconvergenceError, newton

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


BASE_CONFIG = """\
[mesh]
base = 8
level = 0

[time]
tau = 1e-4
T = 1e-3

[output]
directory = {outdir}
"""


def write_config(tmp_path, text, name="config.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_parse_defaults(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG.format(outdir=tmp_path / "out"))
    cfg, out = parse_config(path)
    assert cfg.base == 8
    assert cfg.tau0 == pytest.approx(1e-4)
    assert cfg.final_time == pytest.approx(1e-3)
    assert cfg.model.gamma == 1e-3
    assert out.directory == tmp_path / "out"
    assert out.formats == ("csv",)


def _parsed(path):
    """parse_config's result with the model replaced by its parameters
    (material models compare by identity)."""
    cfg, out = parse_config(path)
    m = cfg.model
    phi = np.linspace(-0.5, 1.5, 5)
    model = (m.gamma, m.L11.tolist(), m.L12.tolist(), m.L22.tolist(),
             m.eta(phi, 1.0).tolist())
    run = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)
           if f.name not in ("model", "initial_data")}
    return run, model, out


def test_readme_config_parses_to_defaults(tmp_path):
    # the documented file spells out every default, with inline comments
    block = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    documented = _parsed(write_config(tmp_path, block))
    assert documented == _parsed(write_config(tmp_path, "", name="empty.ini"))


def test_unknown_key_rejected(tmp_path):
    path = write_config(tmp_path, "[mesh]\nbase = 8\nbogus = 1\n")
    with pytest.raises(ConfigError):
        parse_config(path)
    assert main(["run", "--config", str(path)]) == 2


def test_unknown_section_rejected(tmp_path):
    path = write_config(tmp_path, "[turbulence]\nactive = yes\n")
    with pytest.raises(ConfigError):
        parse_config(path)


def test_malformed_line_rejected(tmp_path):
    path = write_config(tmp_path, "[mesh]\nbase 8 no equals sign\n")
    assert main(["validate", "--config", str(path)]) == 2


def test_bad_value_rejected(tmp_path):
    path = write_config(tmp_path, "[mesh]\nbase = eight\n")
    assert main(["validate", "--config", str(path)]) == 2


@pytest.mark.parametrize("section, line", [
    ("mesh", "base = 2"),
    ("scheme", "newton_tol = -1"),
    ("time", "T = 0"),
    ("time", "tau = -1"),
    ("time", "tau = 0"),
    ("time", "tau = nan"),
    ("time", "c_tau = 0"),
    ("model", "name = other"),
    ("scheme", "star_rule = mid"),
    ("output", "formats = csv, pdf"),
    ("output", "snapshot_stride = -1"),
    ("model", "mobility = -1"),
    ("model", "eta_min = -1"),
    ("model", "gamma = -1"),
    ("scheme", "theta_floor = -1"),
])
def test_invalid_value_rejected(tmp_path, capsys, section, line):
    path = write_config(tmp_path, f"[{section}]\n{line}\n")
    assert main(["run", "--config", str(path),
                 "--output", str(tmp_path / "out")]) == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_validate_default_passes(tmp_path, capsys):
    path = write_config(tmp_path, BASE_CONFIG.format(outdir=tmp_path / "out"))
    assert main(["validate", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "A1" in out and "A4" in out and "PASS" in out


def test_validate_negative_gamma_fails(tmp_path, capsys):
    text = BASE_CONFIG.format(outdir=tmp_path / "out") + "\n[model]\ngamma = -1\n"
    path = write_config(tmp_path, text)
    assert main(["validate", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    assert "A1" in out and "FAIL" in out


def test_run_writes_diagnostics(tmp_path):
    outdir = tmp_path / "out"
    path = write_config(tmp_path, BASE_CONFIG.format(outdir=outdir))
    assert main(["run", "--config", str(path)]) == 0
    csv = (outdir / "diagnostics.csv").read_text().splitlines()
    assert csv[0] == ("step,time,mass,kinetic,internal,total_energy,entropy,"
                      "tau_dissipation,d_num,newton_iters,min_theta")
    assert len(csv) == 12  # header + step 0 + 10 steps
    mass = np.array([float(line.split(",")[2]) for line in csv[1:]])
    assert np.abs(mass - mass[0]).max() <= 1e-10


def test_rerun_is_byte_identical(tmp_path):
    outdir = tmp_path / "out"
    path = write_config(tmp_path, BASE_CONFIG.format(outdir=outdir))
    assert main(["run", "--config", str(path)]) == 0
    first = (outdir / "diagnostics.csv").read_bytes()
    assert main(["run", "--config", str(path)]) == 0
    assert (outdir / "diagnostics.csv").read_bytes() == first


def test_snapshot_stride_counts(tmp_path):
    outdir = tmp_path / "out"
    text = BASE_CONFIG.format(outdir=outdir) + \
        "snapshot_stride = 5\nformats = csv, vtk\n"
    path = write_config(tmp_path, text)
    assert main(["run", "--config", str(path)]) == 0
    snapshots = sorted(outdir.glob("snapshot_*.vtk"))
    assert [p.name for p in snapshots] == [
        "snapshot_0.vtk", "snapshot_10.vtk", "snapshot_5.vtk"]


def test_vtk_structure(tmp_path):
    from chnsfem.harness import RunConfig, run

    result = run(RunConfig(base=4, level=0, final_time=1e-4, tau0=1e-4))
    path = tmp_path / "snap.vtk"
    write_vtk_snapshot(path, result.mesh, result.states[-1])
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert "ASCII" in lines[2]
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    n = result.mesh.n
    npts = (n + 1) ** 2
    assert lines[4] == f"POINTS {npts} double"
    cells_at = 5 + npts
    ncell = 2 * n * n
    assert lines[cells_at] == f"CELLS {ncell} {4 * ncell}"
    # every cell references valid point ids
    for line in lines[cells_at + 1:cells_at + 1 + ncell]:
        parts = line.split()
        assert parts[0] == "3"
        assert all(0 <= int(p) < npts for p in parts[1:])
    assert f"CELL_TYPES {ncell}" in lines
    body = "\n".join(lines)
    for name in ("phi", "mu", "theta", "pressure"):
        assert f"SCALARS {name} double" in body
    assert "VECTORS velocity double" in body
    # cell t is triangle t, its points at the triangle's unwrapped corners
    points = np.array([line.split() for line in lines[5:cells_at]], dtype=float)
    cells = np.array([line.split()[1:] for line in
                      lines[cells_at + 1:cells_at + 1 + ncell]], dtype=int)
    assert np.all(points[:, 2] == 0)
    assert np.array_equal(points[cells, :2], result.mesh.tri_coords)
    # each point carries the phi coefficient of the vertex it wraps to
    phi_at = lines.index("SCALARS phi double") + 2
    phi = np.array(lines[phi_at:phi_at + npts], dtype=float)
    offset = (points[:, None, :2] - result.mesh.vertices + 0.5) % 1.0 - 0.5
    vertex = np.argmin(np.abs(offset).sum(axis=-1), axis=1)
    assert np.abs(offset[np.arange(npts), vertex]).max() <= 1e-15
    assert np.array_equal(phi, result.states[-1].phi.coefficients[vertex])


def test_raw_snapshot_roundtrip(tmp_path):
    outdir = tmp_path / "out"
    text = BASE_CONFIG.format(outdir=outdir) + \
        "snapshot_stride = 10\nformats = csv, raw\n"
    path = write_config(tmp_path, text)
    assert main(["run", "--config", str(path)]) == 0
    data = np.load(outdir / "snapshot_10_coeffs.npz")
    assert set(data.files) == {"time", "phi", "mu", "theta", "u", "pi"}
    assert data["phi"].shape == (64,)


def test_converge_requires_two_levels(tmp_path):
    path = write_config(tmp_path, BASE_CONFIG.format(outdir=tmp_path / "out"))
    assert main(["converge", "--config", str(path)]) == 2


def test_converge_writes_tables(tmp_path):
    outdir = tmp_path / "out"
    text = """\
[mesh]
base = 4
level = 2

[time]
c_tau = 1e-3
T = 5e-4

[output]
directory = {outdir}
eoc_gate = 0.0
""".format(outdir=outdir)
    path = write_config(tmp_path, text)
    assert main(["converge", "--config", str(path)]) == 0
    table_txt = (outdir / "eoc_table.txt").read_text()
    assert "e_grad_u" in table_txt
    csv_lines = (outdir / "eoc_table.csv").read_text().splitlines()
    header = csv_lines[0].split(",")
    assert header.count("e") == 1 and "eoc_e" in header
    assert len(csv_lines) == 3  # header + rows for levels 0 and 1
    assert "linf_l2_theta" in header


def test_converge_nests_steps_of_a_non_dividing_tau(tmp_path):
    # tau does not divide T: level 0 takes 1 step, level 1 must take 2
    outdir = tmp_path / "out"
    text = """\
[mesh]
base = 4
level = 1

[time]
tau = 1e-3
T = 2.5e-4

[output]
directory = {outdir}
""".format(outdir=outdir)
    path = write_config(tmp_path, text)
    assert main(["converge", "--config", str(path)]) == 0
    assert len((outdir / "eoc_table.csv").read_text().splitlines()) == 2


def test_output_flag_overrides_directory(tmp_path):
    configured = tmp_path / "configured"
    actual = tmp_path / "actual"
    path = write_config(tmp_path, BASE_CONFIG.format(outdir=configured))
    assert main(["run", "--config", str(path), "--output", str(actual)]) == 0
    assert (actual / "diagnostics.csv").exists()
    assert not configured.exists()


@pytest.mark.parametrize("command", ["run", "converge"])
def test_run_solver_failure_exit_code(tmp_path, capsys, command):
    # an absurd positivity floor makes the very first assembly abort
    text = BASE_CONFIG.format(outdir=tmp_path / "out").replace(
        "level = 0", "level = 1") + "\n[scheme]\ntheta_floor = 2.0\n"
    path = write_config(tmp_path, text)
    assert main([command, "--config", str(path)]) == 1
    where = {"run": "step 1", "converge": "level 0, step 1"}[command]
    assert f"error: solver failed at {where}: " in capsys.readouterr().err


def test_converge_failure_names_its_level(tmp_path, capsys, monkeypatch):
    # the second solve of level 1 (n=8) fails: step 2 of level 0 (n=4)
    # would fail with the same step and reason
    level1_size = 12 * 8**2 + 1
    solves = []

    def failing_newton(residual, jacobian, x0, *args, **kwargs):
        solves.append(len(x0))
        if solves.count(level1_size) == 2:
            raise NonconvergenceError("forced")
        return newton(residual, jacobian, x0, *args, **kwargs)

    monkeypatch.setattr("chnsfem.scheme.newton", failing_newton)
    text = BASE_CONFIG.format(outdir=tmp_path / "out").replace(
        "base = 8\nlevel = 0", "base = 4\nlevel = 1").replace(
        "tau = 1e-4\nT = 1e-3", "tau = 2.5e-4\nT = 5e-4")
    path = write_config(tmp_path, text)
    assert main(["converge", "--config", str(path)]) == 1
    assert solves.count(level1_size) == 2
    assert "error: solver failed at level 1, step 2: forced\n" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command, section, expected", [
    # a step under the smallest normal float: final_time / step overflows
    ("validate", "[time]\nc_tau = 1e-320\n", "final time 0.002 "),
    ("run", "[time]\nT = 1e300\ntau = 1e-10\n",
     "final time 1e+300 over the step 1e-10 overflows"),
])
def test_step_count_overflow_exit_code(tmp_path, capsys, command, section,
                                       expected):
    path = write_config(tmp_path, section)
    assert main([command, "--config", str(path),
                 "--output", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and expected in err
    assert "overflows the step count" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_step_below_the_residual_floor_fails(tmp_path, capsys):
    # 1/tau = 1e300 is finite, so the step is accepted; its Newton solve
    # fails on the first step, as the README's short-step paragraph says
    text = BASE_CONFIG.format(outdir=tmp_path / "out").replace(
        "base = 8", "base = 4").replace(
        "tau = 1e-4\nT = 1e-3", "tau = 1e-300\nT = 1e-300")
    path = write_config(tmp_path, text)
    with np.errstate(over="ignore"):
        assert main(["run", "--config", str(path)]) == 1
    assert "error: solver failed at step 1: " in capsys.readouterr().err


@pytest.mark.parametrize("setting, value, message", [
    # a diagnostics row rejects the first step
    ("chnsfem.diagnostics.D_NUM_FLOOR", 1.0,
     "error: solver failed at step 1: numerical dissipation"),
    # the initial projection's solve fails before any step
    ("chnsfem.la.LU_RESIDUAL_BOUND", 0.0,
     "error: solver failed: solution rejected"),
])
def test_solver_failure_outside_newton_exit_code(tmp_path, capsys, monkeypatch,
                                                 setting, value, message):
    monkeypatch.setattr(setting, value)
    path = write_config(tmp_path, BASE_CONFIG.format(outdir=tmp_path / "out"))
    assert main(["run", "--config", str(path)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "converge"])
def test_out_of_memory_exit_code(tmp_path, capsys, monkeypatch, command):
    def no_memory(n):
        raise MemoryError

    monkeypatch.setattr("chnsfem.harness.build_uniform", no_memory)
    text = BASE_CONFIG.format(outdir=tmp_path / "out").replace(
        "level = 0", "level = 8")
    path = write_config(tmp_path, text)
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error: out of memory" in err and str(8 * 2**8) in err


@pytest.mark.parametrize("command", ["run", "converge"])
def test_mesh_beyond_index_range_exit_code(tmp_path, capsys, monkeypatch,
                                           command):
    # rejected with the configuration, before any mesh is built
    def no_mesh(n):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr("chnsfem.harness.build_uniform", no_mesh)
    text = BASE_CONFIG.format(outdir=tmp_path / "out").replace(
        "level = 0", "level = 40")
    path = write_config(tmp_path, text)
    assert main([command, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "8 * 2**40" in err and "2056" in err
    assert not (tmp_path / "out").exists()


def test_mesh_just_beyond_index_range_exit_code(tmp_path, capsys, monkeypatch):
    # 2057 subdivisions: within 470 n^2 C-int entries, beyond the 508 n^2
    # of a star_rule = new Jacobian
    def no_mesh(n):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr("chnsfem.harness.build_uniform", no_mesh)
    text = BASE_CONFIG.format(outdir=tmp_path / "out").replace(
        "base = 8", "base = 2057") + "\n[scheme]\nstar_rule = new\n"
    path = write_config(tmp_path, text)
    assert main(["run", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "2057" in err and "2056" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "converge"])
@pytest.mark.parametrize("target", ["file", "file/sub"])
def test_unusable_output_directory_exit_code(tmp_path, capsys, command,
                                             target):
    (tmp_path / "file").write_text("not a directory", encoding="utf-8")
    text = BASE_CONFIG.format(outdir=tmp_path / "out").replace(
        "level = 0", "level = 1")
    path = write_config(tmp_path, text)
    outdir = tmp_path / target
    assert main([command, "--config", str(path), "--output", str(outdir)]) == 2
    assert f"error: cannot create output directory {outdir}" in \
        capsys.readouterr().err


def test_converge_gate_failure_exit_code(tmp_path):
    text = """\
[mesh]
base = 4
level = 2

[time]
c_tau = 1e-3
T = 5e-4

[output]
directory = {outdir}
eoc_gate = 50.0
""".format(outdir=tmp_path / "out")
    path = write_config(tmp_path, text)
    assert main(["converge", "--config", str(path)]) == 1


def test_converge_at_level_one_does_not_apply_the_gate(tmp_path, capsys):
    # two levels give one error row and no order: an unreachable gate
    # passes, and the output says that it was not applied
    text = BASE_CONFIG.format(outdir=tmp_path / "out").replace(
        "level = 0", "level = 1").replace("base = 8", "base = 4") + "eoc_gate = 99\n"
    path = write_config(tmp_path, text)
    assert main(["converge", "--config", str(path)]) == 0
    assert "eoc_gate 99 not applied" in capsys.readouterr().out


def test_seventeen_digits_round_trip():
    from chnsfem.cli import _fmt

    rng = np.random.default_rng(9)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
        assert float(_fmt(x)) == x


def test_usage_error_exit_code():
    assert main(["frobnicate"]) == 2


def test_run_leaves_scipy_special_unloaded(tmp_path):
    # the shipped quadrature rule is tabulated, so neither the package
    # nor a run imports scipy.special
    path = write_config(tmp_path, BASE_CONFIG.format(outdir=tmp_path / "out")
                        .replace("base = 8", "base = 4"))
    code = ("import sys, chnsfem; from chnsfem.cli import main; "
            f"assert main(['run', '--config', {str(path)!r}]) == 0; "
            "assert 'scipy.special' not in sys.modules")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
