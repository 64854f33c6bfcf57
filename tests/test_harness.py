import dataclasses
import math
import sys

import numpy as np
import pytest

from chnsfem import fespace, scheme
from chnsfem.cli import format_error_table
from chnsfem.fespace import prolong
from chnsfem.harness import (
    ErrorRow,
    ErrorTable,
    RunConfig,
    RunResult,
    convergence_study,
    eoc,
    inter_level_error,
    run,
)
from chnsfem.scheme import State, Stepper


@pytest.fixture(scope="module")
def short_run():
    cfg = RunConfig(base=8, level=0, final_time=1e-3, tau0=1e-4)
    return cfg, run(cfg)


def test_run_produces_all_levels(short_run):
    cfg, result = short_run
    assert len(result.states) == 11
    assert len(result.records) == 11
    assert result.records[0].step == 0
    assert result.states[-1].time == pytest.approx(1e-3)
    mass = np.array([r.mass for r in result.records])
    assert np.abs(mass - mass[0]).max() <= 1e-10
    assert all(r.d_num >= -1e-10 for r in result.records[1:])


def test_uniform_data_gives_constant_trajectory():
    def const_phi(x, y):
        return np.full_like(x, 0.3)

    def const_theta(x, y):
        return np.full_like(x, 1.1)

    def no_flow(x, y):
        return (np.zeros_like(x), np.zeros_like(x))

    cfg = RunConfig(base=4, level=0, final_time=5e-4, tau0=1e-4,
                    initial_data=(const_phi, const_theta, no_flow))
    result = run(cfg)
    first, last = result.states[0], result.states[-1]
    for name in ("phi", "mu", "theta", "u", "pi"):
        drift = np.abs(getattr(last, name).coefficients
                       - getattr(first, name).coefficients).max()
        assert drift <= 1e-12


def test_runs_are_deterministic(short_run):
    cfg, result = short_run
    again = run(cfg)
    for a, b in zip(result.states, again.states):
        assert np.array_equal(a.phi.coefficients, b.phi.coefficients)
        assert np.array_equal(a.u.coefficients, b.u.coefficients)
    assert result.records == again.records


def test_tau_adjusts_down_to_divide_final_time():
    cfg = RunConfig(base=8, level=0, final_time=1e-3, tau0=3e-4)
    tau, n_steps = cfg.resolve_tau()
    assert n_steps == 4
    assert tau * n_steps == pytest.approx(1e-3)
    assert tau <= 3e-4 + 1e-15
    # each level doubles the level-0 count, so the levels nest in time
    for level in (1, 2):
        fine = dataclasses.replace(cfg, level=level)
        assert fine.resolve_tau() == (1e-3 / (4 * 2**level), 4 * 2**level)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(base=2)
    with pytest.raises(ValueError):
        RunConfig(level=-1)
    with pytest.raises(ValueError):
        RunConfig(final_time=0.0)
    with pytest.raises(ValueError):
        RunConfig(star_rule="mid")


def test_config_rejects_a_mesh_beyond_the_index_range():
    # the Jacobian stores up to 508 n^2 entries (star_rule "new"), and
    # SuperLU indexes them with C ints (test_scheme pins the counts)
    assert scheme.MAX_SUBDIVISIONS == 2056
    assert 508 * 2056**2 <= np.iinfo(np.intc).max < 508 * 2057**2
    for kwargs in ({"level": 40}, {"base": 2057}, {"base": 1029, "level": 1}):
        with pytest.raises(ValueError, match="2056"):
            RunConfig(**kwargs)
    assert RunConfig(base=2056).mesh_subdivisions == 2056
    assert RunConfig(base=514, level=2).mesh_subdivisions == 2056


def _fake_refined(result: RunResult) -> RunResult:
    """Fine-level stand-in whose states are prolongations of the coarse run."""
    fine_cfg = dataclasses.replace(result.config, level=result.config.level + 1)
    from chnsfem.mesh import build_uniform
    from chnsfem.scheme import build_spaces

    mesh = build_uniform(fine_cfg.mesh_subdivisions)
    spaces = build_spaces(mesh)

    def lift(state: State) -> State:
        return State(time=state.time,
                     phi=prolong(state.phi, spaces.scalar),
                     mu=prolong(state.mu, spaces.scalar),
                     theta=prolong(state.theta, spaces.scalar),
                     u=prolong(state.u, spaces.velocity),
                     pi=prolong(state.pi, spaces.scalar))

    states = []
    for n, cs in enumerate(result.states):
        states.append(lift(cs))
        if n + 1 < len(result.states):
            mid = lift(result.states[n + 1])
            mid = dataclasses.replace(mid, time=cs.time + 0.5 * result.tau)
            states.append(mid)
    # halve the recorded times of interior nodes: only values at coarse
    # times and interval values enter the comparison
    return RunResult(config=fine_cfg, mesh=mesh, states=states, records=[],
                     newton_stats=[])


def test_identical_trajectories_have_zero_error(short_run):
    _, result = short_run
    fake = _fake_refined(result)
    row = inter_level_error(result, fake)
    assert row.combined <= 1e-26
    for name in ("linf_h1_phi", "linf_l2_theta", "linf_l2_u",
                 "l2_h1_mu", "l2_h1_theta", "l2_h1_u"):
        assert getattr(row, name) <= 1e-26


def test_inter_level_error_validates_shapes(short_run):
    _, result = short_run
    with pytest.raises(ValueError):
        inter_level_error(result, result)


def test_eoc_values():
    assert eoc([0.4, 0.1]) == [pytest.approx(2.0)]
    assert eoc([8.0, 8.0]) == [pytest.approx(0.0)]
    val = eoc([1.42, 0.577])[0]
    assert round(val, 2) == 1.30
    assert math.isnan(eoc([1.0, 0.0])[0])
    with pytest.raises(ValueError):
        eoc([1.0])


def test_error_table_columns():
    rows = [ErrorRow(level=0, linf_h1_phi=0.4, linf_l2_theta=0.02,
                     linf_l2_u=0.01, l2_h1_mu=0.1, l2_h1_theta=0.05,
                     l2_h1_u=0.02),
            ErrorRow(level=1, linf_h1_phi=0.1, linf_l2_theta=0.005,
                     linf_l2_u=0.0025, l2_h1_mu=0.025, l2_h1_theta=0.0125,
                     l2_h1_u=0.005)]
    table = ErrorTable(rows=rows)
    assert table.column("combined")[0] == pytest.approx(0.6)
    assert table.eoc_column("combined")[-1] == pytest.approx(2.0)
    text = format_error_table(table)
    assert "e_grad_theta" in text
    assert len(text.splitlines()) == 3


def test_small_convergence_study_api():
    cfg = RunConfig(base=4, level=0, final_time=2e-4, tau0=1e-4)
    table, results = convergence_study(cfg, num_levels=2)
    assert len(results) == 2
    assert len(table.rows) == 1
    assert results[0].mesh.n == 4
    assert results[1].mesh.n == 8
    assert table.rows[0].combined > 0
    with pytest.raises(ValueError):
        convergence_study(cfg, num_levels=1)
    # the structure laws hold at every level of the study simultaneously
    for result in results:
        mass = np.array([r.mass for r in result.records])
        total = np.array([r.total_energy for r in result.records])
        assert np.abs(mass - mass[0]).max() <= 1e-10
        assert np.abs(total - total[0]).max() <= 1e-9
        assert all(r.d_num >= -1e-10 for r in result.records[1:])


def _count_tabulations(monkeypatch) -> list:
    """Record the space of every tabulate call, from any module."""
    spaces = []
    tabulate = fespace.tabulate

    def counting(space, rule):
        spaces.append(space)
        return tabulate(space, rule)

    for name, module in list(sys.modules.items()):
        if name.startswith("chnsfem") and getattr(module, "tabulate", None) is tabulate:
            monkeypatch.setattr(module, "tabulate", counting)
    return spaces


def test_run_tabulates_each_space_at_most_once(monkeypatch):
    # assembly, diagnostics and initial data share one evaluator per space
    tabulated = _count_tabulations(monkeypatch)
    result = run(RunConfig(base=4, final_time=1e-3, tau0=2.5e-4))
    assert len(result.records) == 5
    assert len(tabulated) == len(set(map(id, tabulated))) <= 3


def test_run_evaluates_each_level_once(monkeypatch):
    # one product with the scalar and one with the velocity evaluator per
    # Newton residual, plus the initial projection's one: the first
    # residual is at the initial level's own vector, and the Jacobian and
    # each new level reuse the fields of the residual at their vector
    counts = {"fields": 0, "residual_vector": 0, "jacobian_matrix": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(fespace.Evaluator, "fields",
                        counting("fields", fespace.Evaluator.fields))
    for name in ("residual_vector", "jacobian_matrix"):
        monkeypatch.setattr(Stepper, name, counting(name, getattr(Stepper, name)))
    result = run(RunConfig(base=4, final_time=5e-4, tau0=2.5e-4))
    assert len(result.states) == 3
    assert counts["jacobian_matrix"] >= 1
    assert counts["fields"] == 1 + 2 * counts["residual_vector"]


def test_run_builds_one_jacobian_and_one_factor(monkeypatch):
    # Newton chords on the factor it builds in step 1 for the rest of the
    # run, also at a long step that takes several iterations
    built = []
    jacobian = Stepper.jacobian_matrix

    def counted(self, *args, **kwargs):
        built.append(args)
        return jacobian(self, *args, **kwargs)

    monkeypatch.setattr(Stepper, "jacobian_matrix", counted)
    result = run(RunConfig(base=8, final_time=3e-2, tau0=1e-2))
    assert len(result.newton_stats) == 3
    assert len(built) == 1
    assert sum(s.factorizations for s in result.newton_stats) == 1


def test_error_norms_reuse_the_fine_runs_evaluators(monkeypatch):
    tabulated = _count_tabulations(monkeypatch)
    convergence_study(RunConfig(base=4, final_time=5e-4, tau0=2.5e-4), 2)
    assert len(tabulated) == len(set(map(id, tabulated))) <= 6
