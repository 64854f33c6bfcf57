import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from chnsfem.cli import (
    ConfigError,
    main,
    parse_config,
    write_vtk_snapshot,
)

README = Path(__file__).resolve().parent.parent / "README.md"


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


def test_run_solver_failure_exit_code(tmp_path, capsys):
    # an absurd positivity floor makes the very first assembly abort
    text = BASE_CONFIG.format(outdir=tmp_path / "out") + \
        "\n[scheme]\ntheta_floor = 2.0\n"
    path = write_config(tmp_path, text)
    assert main(["run", "--config", str(path)]) == 1
    assert "step" in capsys.readouterr().err


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


def test_seventeen_digits_round_trip():
    from chnsfem.cli import _fmt

    rng = np.random.default_rng(9)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-12, 12, 200):
        assert float(_fmt(x)) == x


def test_usage_error_exit_code():
    assert main(["frobnicate"]) == 2
