import dataclasses
import warnings

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from chnsfem._jets import Jet
from chnsfem.fespace import mean_value
from chnsfem.la import LU_RESIDUAL_BOUND, Factor, NewtonSettings
from chnsfem.mesh import build_uniform
from chnsfem.physics import SplitValidityWarning, default_model
from chnsfem.scheme import (
    PositivityError,
    StepFailure,
    Stepper,
    StepperConfig,
    build_spaces,
    initial_state,
)


def phi0(x, y):
    return 0.4 + 0.2 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)


def theta0(x, y):
    return 1.0 + 0.2 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)


def u0(x, y):
    return (-1e-2 * np.sin(np.pi * x) ** 2 * np.sin(2 * np.pi * y),
            1e-2 * np.sin(2 * np.pi * x) * np.sin(np.pi * y) ** 2)


def zero_velocity(x, y):
    return (np.zeros_like(x), np.zeros_like(x))


@pytest.fixture(scope="module")
def model():
    return default_model()


@pytest.fixture(scope="module")
def setup4(model):
    mesh = build_uniform(4)
    spaces = build_spaces(mesh)
    state = initial_state(mesh, spaces, model, phi0, theta0, u0)
    return mesh, spaces, state


@pytest.fixture(scope="module")
def setup8(model):
    mesh = build_uniform(8)
    spaces = build_spaces(mesh)
    state = initial_state(mesh, spaces, model, phi0, theta0, u0)
    return mesh, spaces, state


# -- jets ---------------------------------------------------------------


def test_jet_arithmetic_against_hand_derivatives():
    rng = np.random.default_rng(0)
    v = rng.uniform(0.5, 2.0, (3, 4))
    x = Jet.seeded(v, 0, 2)
    y = 2.0 * x + x * x - 1.0 / x
    expect = 2.0 + 2.0 * v + 1.0 / v**2
    assert np.abs(y.der[..., 0] - expect).max() <= 1e-13
    assert not y.der[..., 1].any()


def test_jet_numpy_ufuncs():
    v = np.array([[0.7, 1.3]])
    x = Jet.seeded(v, 1, 3)
    y = np.log(x) + np.sqrt(x) * np.exp(x)
    expect = 1.0 / v + np.exp(v) * (0.5 / np.sqrt(v) + np.sqrt(v))
    assert np.abs(y.der[..., 1] - expect).max() <= 1e-13
    z = np.asarray([2.0]) * x  # ndarray on the left must defer to the jet
    assert isinstance(z, Jet)
    assert np.abs(z.der[..., 1] - 2.0).max() == 0.0


# -- initial state --------------------------------------------------------


def test_initial_state_constant_data(model):
    mesh = build_uniform(4)
    spaces = build_spaces(mesh)
    state = initial_state(mesh, spaces, model,
                          lambda x, y: np.full_like(x, 0.3),
                          lambda x, y: np.full_like(x, 1.2),
                          zero_velocity)
    expect = model.dphi_psi(0.3, 1.2)
    assert np.abs(state.mu.coefficients - expect).max() <= 1e-11
    assert np.abs(state.pi.coefficients).max() == 0.0


def test_initial_state_benchmark_mass(setup8):
    _, _, state = setup8
    assert abs(mean_value(state.phi) - 0.4) <= 1e-3


def test_initial_state_rejects_nonpositive_theta(model):
    mesh = build_uniform(4)
    spaces = build_spaces(mesh)
    with pytest.raises(ValueError):
        initial_state(mesh, spaces, model, phi0,
                      lambda x, y: np.sin(2 * np.pi * x), zero_velocity)


# -- residual -------------------------------------------------------------


def test_uniform_state_is_a_residual_root(model):
    mesh = build_uniform(4)
    spaces = build_spaces(mesh)
    state = initial_state(mesh, spaces, model,
                          lambda x, y: np.full_like(x, 0.3),
                          lambda x, y: np.full_like(x, 1.2),
                          zero_velocity)
    stepper = Stepper(mesh, spaces, model, StepperConfig(tau=1e-3))
    r = stepper.residual_vector(stepper.fields_from_state(state),
                                stepper.pack(state))
    assert np.abs(r).max() <= 1e-12


def test_quadrature_saturation(setup8, model):
    # raising the quadrature degree from 6 to 12 must barely move any entry
    mesh, spaces, state = setup8
    s6 = Stepper(mesh, spaces, model, StepperConfig(tau=1e-3, quad_degree=6))
    s12 = Stepper(mesh, spaces, model, StepperConfig(tau=1e-3, quad_degree=12))
    r6 = s6.residual_vector(s6.fields_from_state(state), s6.pack(state))
    r12 = s12.residual_vector(s12.fields_from_state(state), s12.pack(state))
    assert np.abs(r6 - r12).max() <= 1e-10


def test_positivity_violation_detected(setup4, model):
    mesh, spaces, state = setup4
    cfg = StepperConfig(tau=1e-3, theta_floor=1e-8)
    stepper = Stepper(mesh, spaces, model, cfg)
    bad = dataclasses.replace(state)
    bad.theta = state.theta.copy()
    bad.theta.coefficients[3] = -0.5
    with pytest.raises(PositivityError):
        stepper.residual_vector(stepper.fields_from_state(state),
                                stepper.pack(bad))


# -- Jacobian -------------------------------------------------------------


@pytest.mark.parametrize("star_rule", ["old", "new"])
def test_jacobian_matches_directional_differences(setup4, model, star_rule):
    mesh, spaces, state = setup4
    cfg = StepperConfig(tau=1e-3, star_rule=star_rule)
    stepper = Stepper(mesh, spaces, model, cfg)
    old_fields = stepper.fields_from_state(state)
    rng = np.random.default_rng(1)
    x0 = stepper.pack(state, 0.0) + 1e-2 * rng.standard_normal(stepper.size)
    J = stepper.jacobian_matrix(old_fields, x0)
    eps = 1e-6
    worst = 0.0
    for _ in range(20):
        d = rng.standard_normal(stepper.size)
        fd = (stepper.residual_vector(old_fields, x0 + eps * d)
              - stepper.residual_vector(old_fields, x0 - eps * d)) / (2 * eps)
        jd = J @ d
        worst = max(worst, np.linalg.norm(jd - fd) / np.linalg.norm(jd))
    assert worst <= 1e-6


def test_pressure_block_is_minus_twice_transposed_divergence_block(setup4, model):
    mesh, spaces, state = setup4
    stepper = Stepper(mesh, spaces, model, StepperConfig(tau=1e-3))
    J = stepper.jacobian_matrix(stepper.fields_from_state(state),
                                stepper.pack(state)).tocsr()
    n1 = spaces.scalar.dof_count
    n2 = spaces.velocity.scalar_dof_count
    off_u = 3 * n1
    off_pi = 3 * n1 + 2 * n2
    mom_pi = J[off_u:off_u + 2 * n2, off_pi:off_pi + n1].toarray()
    div_u = J[off_pi:off_pi + n1, off_u:off_u + 2 * n2].toarray()
    assert np.abs(mom_pi + 2.0 * div_u.T).max() <= 1e-13


def test_multiplier_column_is_p1_load_vector(setup4, model):
    mesh, spaces, state = setup4
    stepper = Stepper(mesh, spaces, model, StepperConfig(tau=1e-3))
    J = stepper.jacobian_matrix(stepper.fields_from_state(state),
                                stepper.pack(state)).tocsc()
    n1 = spaces.scalar.dof_count
    off_pi = stepper.off["pi"]
    col = J[:, stepper.lam_index].toarray().ravel()
    assert np.abs(col[off_pi:off_pi + n1] - stepper.p1_load).max() <= 1e-15
    row = J[stepper.lam_index, :].toarray().ravel()
    assert np.abs(row[off_pi:off_pi + n1] - stepper.p1_load).max() <= 1e-15
    # the multiplier column and mean row touch nothing else
    assert np.abs(np.delete(col, np.arange(off_pi, off_pi + n1))).max() == 0.0
    assert np.abs(np.delete(row, np.arange(off_pi, off_pi + n1))).max() == 0.0


# -- stepping -------------------------------------------------------------


def test_uniform_state_is_a_fixed_point(model):
    mesh = build_uniform(4)
    spaces = build_spaces(mesh)
    state = initial_state(mesh, spaces, model,
                          lambda x, y: np.full_like(x, 0.3),
                          lambda x, y: np.full_like(x, 1.2),
                          zero_velocity)
    cfg = StepperConfig(tau=1e-3)
    stepper = Stepper(mesh, spaces, model, cfg)
    current = state
    for k in range(5):
        current, stats = stepper.step(current, k)
    for name in ("phi", "mu", "theta", "u", "pi"):
        drift = np.abs(getattr(current, name).coefficients
                       - getattr(state, name).coefficients).max()
        assert drift <= 1e-12, name


def test_benchmark_step_newton_iterations(setup8, model):
    mesh, spaces, state = setup8
    stepper = Stepper(mesh, spaces, model, StepperConfig(tau=1e-3))
    new, stats = stepper.step(state, step_index=0)
    assert stats.iterations <= 6
    assert stats.residual_norm <= 1e-12
    assert new.time == pytest.approx(1e-3)


@pytest.mark.parametrize("tau", [1e-2, 1.25e-4, 1e-6])
def test_factor_fill_below_default_splu(setup8, model, tau):
    # the level-0 benchmark Jacobian (setup8 holds the benchmark's data):
    # the row-scaled, symmetric-pattern factor must stay well below the fill
    # of scipy's default COLAMD ordering with partial pivoting at every tau
    mesh, spaces, state = setup8
    stepper = Stepper(mesh, spaces, model, StepperConfig(tau=tau))
    J = stepper.jacobian_matrix(stepper.fields_from_state(state),
                                stepper.pack(state))
    factor = Factor(J)
    assert factor.lu.nnz <= 0.7 * splu(J).nnz
    b = np.random.default_rng(0).standard_normal(stepper.size)
    x = factor.solve(b)
    assert np.linalg.norm(J @ x - b) / np.linalg.norm(b) <= LU_RESIDUAL_BOUND


def test_reused_factor_gives_the_fresh_factor_solution(setup8, model):
    mesh, spaces, state = setup8
    cfg = StepperConfig(tau=1.25e-4)
    persistent = Stepper(mesh, spaces, model, cfg)
    reused, fresh = state, state
    factorizations = 0
    for k in range(1, 9):
        reused, stats = persistent.step(reused, step_index=k)
        factorizations += stats.factorizations
        fresh, _ = Stepper(mesh, spaces, model, cfg).step(fresh, step_index=k)
        for name in ("phi", "mu", "theta", "u", "pi"):
            diff = np.abs(getattr(reused, name).coefficients
                          - getattr(fresh, name).coefficients).max()
            assert diff <= 1e-10, (k, name)
    assert factorizations < 8


def test_one_step_conserves_total_energy(setup8, model):
    from chnsfem.diagnostics import state_functionals

    mesh, spaces, state = setup8
    new, _ = Stepper(mesh, spaces, model, StepperConfig(tau=1e-3)).step(state)
    _, k0, e0, _ = state_functionals(state, model)
    _, k1, e1, _ = state_functionals(new, model)
    assert abs((k1 + e1) - (k0 + e0)) <= 1e-10


def test_step_satisfies_constraints(setup8, model):
    _, spaces, state = setup8
    cfg = StepperConfig(tau=1e-3)
    stepper = Stepper(state.phi.space.mesh, spaces, model, cfg)
    new, stats = stepper.step(state)
    # mass conservation, mean-free pressure, incompressibility rows
    assert abs(mean_value(new.phi) - mean_value(state.phi)) <= 1e-11
    assert abs(mean_value(new.pi)) <= 1e-11
    assert stats.div_residual_max <= 1e-11
    assert abs(stats.lam) <= 1e-10
    # the converged residual meets the Newton tolerance by construction
    old_fields = stepper.fields_from_state(state)
    r = stepper.residual_vector(old_fields, stepper.pack(new, stats.lam))
    assert np.linalg.norm(r) <= 1e-12


def test_new_level_star_rule_also_preserves_structure(setup4, model):
    from chnsfem.diagnostics import state_functionals

    mesh, spaces, state = setup4
    cfg = StepperConfig(tau=1e-3, star_rule="new")
    new, stats = Stepper(mesh, spaces, model, cfg).step(state)
    assert stats.residual_norm <= 1e-12
    _, k0, e0, s0 = state_functionals(state, model)
    _, k1, e1, s1 = state_functionals(new, model)
    assert abs((k1 + e1) - (k0 + e0)) <= 1e-10
    assert s1 >= s0 - 1e-12


def test_step_warns_below_split_validity(model):
    # a uniform state is a fixed point, so theta stays at its initial value
    mesh = build_uniform(4)
    spaces = build_spaces(mesh)
    stepper = Stepper(mesh, spaces, model, StepperConfig(tau=1e-3))

    def uniform(theta):
        return initial_state(mesh, spaces, model,
                             lambda x, y: np.full_like(x, 0.3),
                             lambda x, y: np.full_like(x, theta), zero_velocity)

    with pytest.warns(SplitValidityWarning):
        new, _ = stepper.step(uniform(model.split_theta_floor))
    assert new.min_nodal_theta == pytest.approx(model.split_theta_floor)
    with warnings.catch_warnings():
        warnings.simplefilter("error", SplitValidityWarning)
        stepper.step(uniform(1.2))


def test_nonconvergence_is_wrapped_with_step_context(setup8, model):
    mesh, spaces, state = setup8
    cfg = StepperConfig(tau=1e-3, newton=NewtonSettings(tol=1e-12, max_iter=1))
    with pytest.raises(StepFailure) as info:
        Stepper(mesh, spaces, model, cfg).step(state, step_index=7)
    assert info.value.step_index == 7
    assert info.value.residual_norm is not None


def test_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(tau=0.0)
    with pytest.raises(ValueError):
        StepperConfig(tau=1e-3, star_rule="midpoint")
