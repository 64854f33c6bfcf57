import dataclasses
import platform
import resource
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from per_element import conical_rule, per_element_tabulation
from scipy.sparse.linalg import splu

from chnsfem import fespace, harness, scheme
from chnsfem.fespace import QUAD_DEGREE, FeFunction
from chnsfem.la import (
    LU_RESIDUAL_BOUND,
    Factor,
    NewtonSettings,
    SolverError,
    TrialRejected,
)
from chnsfem.mesh import build_uniform, quad_rule
from chnsfem.physics import SplitValidityWarning, default_model
from chnsfem.scheme import (
    _CHANNELS,
    MAX_SUBDIVISIONS,
    STEP,
    Stepper,
    StepperConfig,
    _kernels,
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


def mean(f):
    return float(np.sum(f.space.weights * f.space.fields(f.coefficients)[0]))


@pytest.fixture(scope="module")
def setup4(model):
    mesh = build_uniform(4)
    spaces = build_spaces(mesh)
    state = initial_state(spaces, model, phi0, theta0, u0)
    return mesh, spaces, state


@pytest.fixture(scope="module")
def setup8(model):
    mesh = build_uniform(8)
    spaces = build_spaces(mesh)
    state = initial_state(spaces, model, phi0, theta0, u0)
    return mesh, spaces, state


# -- initial state --------------------------------------------------------


def test_pressure_lives_in_the_scalar_space(setup4, model):
    # two spaces: P1 for phi, mu, theta and pi, vector P2 for u
    mesh, spaces, state = setup4
    assert [f.name for f in dataclasses.fields(spaces)] == ["scalar", "velocity"]
    new, _ = Stepper(spaces, model, StepperConfig(tau=1e-3)).step(state, 1)
    assert state.pi.space is spaces.scalar
    assert new.pi.space is spaces.scalar


def test_initial_state_constant_data(model):
    mesh = build_uniform(4)
    spaces = build_spaces(mesh)
    state = initial_state(spaces, model,
                          lambda x, y: np.full_like(x, 0.3),
                          lambda x, y: np.full_like(x, 1.2),
                          zero_velocity)
    expect = model.dphi_psi(0.3, 1.2)
    assert np.abs(state.mu.coefficients - expect).max() <= 1e-11
    assert np.abs(state.pi.coefficients).max() == 0.0


def test_initial_state_benchmark_mass(setup8):
    _, _, state = setup8
    assert abs(mean(state.phi) - 0.4) <= 1e-3


def test_initial_state_rejects_nonpositive_theta(model):
    mesh = build_uniform(4)
    spaces = build_spaces(mesh)
    with pytest.raises(ValueError):
        initial_state(spaces, model, phi0,
                      lambda x, y: np.sin(2 * np.pi * x), zero_velocity)


# -- residual -------------------------------------------------------------


def test_uniform_state_is_a_residual_root(model):
    mesh = build_uniform(4)
    spaces = build_spaces(mesh)
    state = initial_state(spaces, model,
                          lambda x, y: np.full_like(x, 0.3),
                          lambda x, y: np.full_like(x, 1.2),
                          zero_velocity)
    stepper = Stepper(spaces, model, StepperConfig(tau=1e-3))
    r = stepper.residual_vector(stepper.fields_from_state(state),
                                stepper.pack(state))
    assert np.abs(r).max() <= 1e-12


def test_quadrature_saturation(setup8, model, monkeypatch):
    # raising the quadrature degree from 6 to 12 must barely move any entry
    mesh, spaces, state = setup8
    s6 = Stepper(spaces, model, StepperConfig(tau=1e-3))
    monkeypatch.setattr(fespace, "QUAD_DEGREE", 12)
    monkeypatch.setattr(fespace, "quad_rule", conical_rule)
    # the same mesh and coefficients, in spaces tabulated at degree 12
    s12 = Stepper(build_spaces(mesh), model, StepperConfig(tau=1e-3))
    state12, _ = s12.unpack(s6.pack(state), state.time)
    assert len(s12.spaces.scalar.weights) > len(spaces.scalar.weights)
    r6 = s6.residual_vector(s6.fields_from_state(state), s6.pack(state))
    r12 = s12.residual_vector(s12.fields_from_state(state12), s12.pack(state12))
    assert np.abs(r6 - r12).max() <= 1e-10


def test_positivity_violation_detected(setup4, model):
    mesh, spaces, state = setup4
    cfg = StepperConfig(tau=1e-3, theta_floor=1e-8)
    stepper = Stepper(spaces, model, cfg)
    bad = dataclasses.replace(state)
    bad.theta = FeFunction(spaces.scalar, state.theta.coefficients.copy())
    bad.theta.coefficients[3] = -0.5
    with pytest.raises(TrialRejected, match="inverse temperature reached "):
        stepper.residual_vector(stepper.fields_from_state(state),
                                stepper.pack(bad))


# -- Jacobian -------------------------------------------------------------


@pytest.mark.parametrize("star_rule", ["old", "new"])
def test_jacobian_matches_directional_differences(setup4, model, star_rule):
    mesh, spaces, state = setup4
    cfg = StepperConfig(tau=1e-3, star_rule=star_rule)
    stepper = Stepper(spaces, model, cfg)
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
    stepper = Stepper(spaces, model, StepperConfig(tau=1e-3))
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
    stepper = Stepper(spaces, model, StepperConfig(tau=1e-3))
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


@pytest.mark.parametrize("star_rule", ["old", "new"])
def test_kernels_key_densities_by_their_test_unknown(setup4, model, star_rule):
    # the residual and the Jacobian pair each density with the test space of
    # the unknown it is keyed by, so the keys are the unknowns, in order
    mesh, spaces, state = setup4
    stepper = Stepper(spaces, model, StepperConfig(tau=1e-3, star_rule=star_rule))
    fields = stepper.fields_from_state(state)
    kern = _kernels(fields, fields, 0.0, model, stepper.cfg,
                    {field: [None] * 3 for field in stepper.off})
    assert list(kern) == list(stepper.off)
    # the residual's velocity densities start uninitialized and pi's
    # gradient slots must stay zero: the kernels write every other slot
    written = [(f, k) for f, slots in kern.items() for k, d in enumerate(slots)
               if d is not None]
    assert written == [(f, k) for f in stepper.off for k in range(3)
                       if f != "pi" or k == 0]


def test_residual_integrates_the_kernels_own_arrays(setup4, model, monkeypatch):
    # the kernels write each density into the array the residual integrates
    mesh, spaces, state = setup4
    stepper = Stepper(spaces, model, StepperConfig(tau=1e-3))
    old_fields = stepper.fields_from_state(state)
    written, integrated = [], []

    def kernels(*args):
        written.append(_kernels(*args))
        return written[-1]

    def integrate(space, densities):
        integrated.append((space, densities))
        return real_integrate(space, densities)

    real_integrate = fespace.FunctionSpace.integrate
    monkeypatch.setattr(scheme, "_kernels", kernels)
    monkeypatch.setattr(fespace.FunctionSpace, "integrate", integrate)
    stepper.residual_vector(old_fields, stepper.pack(state))
    (out,) = written
    for field, slots in out.items():
        (densities,) = [d for space, d in integrated if space is stepper._space_of[field]]
        for k, d in enumerate(slots):
            assert np.shares_memory(d, densities), (field, k)


def _per_element_jacobian(stepper, old_fields, x):
    """The Jacobian assembled element by element: each (equation, channel)
    block contracts the derivative densities with every element's own
    weights, test basis and trial basis (tests/per_element.py)."""
    rule = quad_rule(QUAD_DEGREE)
    spaces = stepper.spaces
    basis1, weights = per_element_tabulation(spaces.scalar, rule)
    basis2, _ = per_element_tabulation(spaces.velocity, rule)
    scalar = (basis1, spaces.scalar.element_dof_table)
    vector = (basis2, spaces.velocity.element_dof_table)
    local = {name: (basis, stepper.off[name] + dofs)
             for name, (basis, dofs) in zip(
                 stepper.off, (scalar, scalar, scalar, vector, vector, scalar))}
    plain = stepper.fields_from_vector(x)
    lam = float(x[stepper.lam_index])
    rows, cols, vals = [], [], []
    for key, trial_field, part in _CHANNELS:
        new = {**plain, key: plain[key] + 1j * STEP}
        kern = _kernels(new, old_fields, lam, stepper.model, stepper.cfg,
                        {field: [None] * 3 for field in stepper.off})
        trial, trial_dofs = local[trial_field]
        for test_field, densities in kern.items():
            test, test_dofs = local[test_field]
            ks = [k for k, d in enumerate(densities)
                  if d is not None and np.any(d.imag)]
            if not ks:
                continue
            block = sum(np.einsum("eq,eqa,eqb->eab", weights * densities[k].imag
                                  / STEP, test[k], trial[part]) for k in ks)
            rows.append(np.broadcast_to(test_dofs[:, :, None], block.shape).ravel())
            cols.append(np.broadcast_to(trial_dofs[:, None, :], block.shape).ravel())
            vals.append(block.ravel())
    pi_rows = stepper.off["pi"] + np.arange(stepper.n1)
    lam_rows = np.full(stepper.n1, stepper.lam_index)
    rows += [pi_rows, lam_rows]
    cols += [lam_rows, pi_rows]
    vals += [stepper.p1_load, stepper.p1_load]
    return sp.coo_matrix((np.concatenate(vals),
                          (np.concatenate(rows), np.concatenate(cols))),
                         shape=(stepper.size, stepper.size)).tocsc()


@pytest.mark.parametrize("star_rule", ["old", "new"])
@pytest.mark.parametrize("tau", [1e-2, 1e-6])
@pytest.mark.parametrize("setup", ["setup4", "setup8"])
def test_jacobian_by_type_matches_the_per_element_assembly(request, model, setup,
                                                           tau, star_rule):
    mesh, spaces, state = request.getfixturevalue(setup)
    stepper = Stepper(spaces, model, StepperConfig(tau=tau, star_rule=star_rule))
    old_fields = stepper.fields_from_state(state)
    rng = np.random.default_rng(2)
    x = stepper.pack(state) * (1.0 + 1e-3 * rng.standard_normal(stepper.size))
    J = stepper.jacobian_matrix(old_fields, x)
    ref = _per_element_jacobian(stepper, old_fields, x)
    assert np.array_equal(J.indptr, ref.indptr)
    assert np.array_equal(J.indices, ref.indices)
    assert np.abs(J.data - ref.data).max() <= 1e-15 * np.abs(ref.data).max()


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_jacobian_stores_470_entries_per_cell(model, n):
    # 470 under star_rule "old", 508 under "new" (the momentum rows couple
    # to phi).  MAX_SUBDIVISIONS rests on the larger count: the largest n
    # whose Jacobian SuperLU can index with C ints under either rule
    mesh = build_uniform(n)
    spaces = build_spaces(mesh)
    state = initial_state(spaces, model, phi0, theta0, u0)
    for star_rule, per_cell in (("old", 470), ("new", 508)):
        stepper = Stepper(spaces, model,
                          StepperConfig(tau=1e-2, star_rule=star_rule))
        J = stepper.jacobian_matrix(stepper.fields_from_state(state), stepper.pack(state))
        assert J.nnz == per_cell * n**2, star_rule
    assert 508 * MAX_SUBDIVISIONS**2 <= np.iinfo(np.intc).max < 508 * (MAX_SUBDIVISIONS + 1)**2


def test_jacobian_traced_peak_memory(model):
    # one Jacobian of the n=16 benchmark (setup8's data at n=16, tau=1e-2)
    # traces at most four times the matrix it returns: the column blocks
    # keep one trial field's element blocks alive at a time
    mesh = build_uniform(16)
    spaces = build_spaces(mesh)
    state = initial_state(spaces, model, phi0, theta0, u0)
    for star_rule in ("old", "new"):
        stepper = Stepper(spaces, model,
                          StepperConfig(tau=1e-2, star_rule=star_rule))
        old_fields = stepper.fields_from_state(state)
        x = stepper.pack(state)  # a fresh vector: its fields are traced too
        tracemalloc.start()
        try:
            J = stepper.jacobian_matrix(old_fields, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * (J.data.nbytes + J.indices.nbytes + J.indptr.nbytes), star_rule


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc malloc")
def test_later_steps_reuse_freed_heap(model):
    # the n=16 benchmark at tau=1e-2: once the first two steps have grown
    # the heap, a step's residuals and Jacobian fault in no fresh pages.
    # With malloc's adaptive trim threshold they faulted 0-1,800 a step.
    mesh = build_uniform(16)
    spaces = build_spaces(mesh)
    state = initial_state(spaces, model, *harness.benchmark_initial_data())
    stepper = Stepper(spaces, model, StepperConfig(tau=1e-2))
    faults = []
    for k in range(5):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        state, _ = stepper.step(state, k)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert max(faults[2:]) <= 64, faults


# -- stepping -------------------------------------------------------------


def test_uniform_state_is_a_fixed_point(model):
    mesh = build_uniform(4)
    spaces = build_spaces(mesh)
    state = initial_state(spaces, model,
                          lambda x, y: np.full_like(x, 0.3),
                          lambda x, y: np.full_like(x, 1.2),
                          zero_velocity)
    cfg = StepperConfig(tau=1e-3)
    stepper = Stepper(spaces, model, cfg)
    current = state
    for k in range(5):
        current, stats = stepper.step(current, k)
    for name in ("phi", "mu", "theta", "u", "pi"):
        drift = np.abs(getattr(current, name).coefficients
                       - getattr(state, name).coefficients).max()
        assert drift <= 1e-12, name


def test_benchmark_step_newton_iterations(setup8, model):
    mesh, spaces, state = setup8
    stepper = Stepper(spaces, model, StepperConfig(tau=1e-3))
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
    stepper = Stepper(spaces, model, StepperConfig(tau=tau))
    J = stepper.jacobian_matrix(stepper.fields_from_state(state),
                                stepper.pack(state))
    # the assembly keeps its explicit zeros: the pattern Factor orders
    assert (J.data == 0).sum() > 0
    factor = Factor(J)
    assert factor.lu.nnz <= 0.7 * splu(J).nnz
    b = np.random.default_rng(0).standard_normal(stepper.size)
    x = factor.solve(b)
    assert np.linalg.norm(J @ x - b) / np.linalg.norm(b) <= LU_RESIDUAL_BOUND


def test_reused_factor_gives_the_fresh_factor_solution(setup8, model):
    mesh, spaces, state = setup8
    cfg = StepperConfig(tau=1.25e-4)
    persistent = Stepper(spaces, model, cfg)
    reused, fresh = state, state
    factorizations = 0
    for k in range(1, 9):
        reused, stats = persistent.step(reused, step_index=k)
        factorizations += stats.factorizations
        fresh, _ = Stepper(spaces, model, cfg).step(fresh, step_index=k)
        for name in ("phi", "mu", "theta", "u", "pi"):
            diff = np.abs(getattr(reused, name).coefficients
                          - getattr(fresh, name).coefficients).max()
            assert diff <= 1e-10, (k, name)
    assert factorizations < 8


def test_extrapolated_start_cuts_chord_iterations(setup8, model):
    # a persistent Stepper, as a run uses it: linear guess at step 2,
    # quadratic at steps 3 and 4, cubic from step 5, whose first chord step
    # lands below newton_tol (the kept factor serves every step after the first)
    mesh, spaces, state = setup8
    stepper = Stepper(spaces, model, StepperConfig(tau=1.25e-4))
    stats = []
    for k in range(1, 13):
        state, st = stepper.step(state, step_index=k)
        assert st.residual_norm <= 1e-12
        stats.append(st)
    assert [st.extrapolated for st in stats] == [False] + [True] * 11
    assert np.mean([st.iterations for st in stats[2:]]) <= 2.5
    assert [st.iterations for st in stats[4:]] == [1] * 8
    assert sum(st.factorizations for st in stats) <= 2


def test_start_extrapolates_solved_levels_only(setup4, model):
    _, spaces, _ = setup4
    stepper = Stepper(spaces, model, StepperConfig(tau=1e-3, theta_floor=0.5))
    rng = np.random.default_rng(3)
    coeffs = rng.uniform(-1.0, 1.0, (4, stepper.size))
    coeffs[0] += 4.0  # every sample's theta stays above the floor

    def sample(t):
        return coeffs[0] + t * (coeffs[1] + t * (coeffs[2] + t * coeffs[3]))

    # a start vector off the cubic, then four solved levels on a cubic in
    # time: the guess is the next sample
    history = (coeffs[0] + rng.uniform(-1.0, 1.0, stepper.size),
               *(sample(t) for t in (0.1, 0.2, 0.3, 0.4)))
    guess, extrapolated = stepper._start(history)
    assert extrapolated
    exact = sample(0.5)
    assert np.linalg.norm(guess - exact) <= 1e-12 * np.linalg.norm(exact)
    # a four-entry history, which still holds the start state: the quadratic
    # through the last three entries
    guess, extrapolated = stepper._start(history[:4])
    assert extrapolated
    np.testing.assert_array_equal(
        guess, 3.0 * (history[3] - history[2]) + history[1])
    # a guess whose nodal theta sits at the floor starts from x_n
    theta = slice(stepper.off["theta"], stepper.off["theta"] + stepper.n1)
    for x in history:
        x[theta] = 0.5
    guess, extrapolated = stepper._start(history)
    assert not extrapolated
    assert guess is history[-1]


def test_guess_below_theta_floor_starts_from_the_old_level(setup8, model):
    mesh, spaces, state = setup8
    cfg = StepperConfig(tau=1.25e-4)
    stepper = Stepper(spaces, model, cfg)
    current = state
    for k in range(1, 5):
        current, _ = stepper.step(current, step_index=k)
    # x_{n-1} one above x_n in theta: 4x_n - 6x_{n-1} + 4x_{n-2} - x_{n-3}
    # then has a nodal theta near 1 - 6, below the floor at every node
    x_0, x_n3, x_n2, x_n1, x_n = stepper._history
    theta = slice(stepper.off["theta"], stepper.off["theta"] + stepper.n1)
    x_n1 = x_n.copy()
    x_n1[theta] += 1.0
    stepper._history = (x_0, x_n3, x_n2, x_n1, x_n)
    new, stats = stepper.step(current, step_index=5)
    assert not stats.extrapolated
    assert stats.residual_norm <= 1e-12
    fresh, _ = Stepper(spaces, model, cfg).step(current, step_index=5)
    for name in ("phi", "mu", "theta", "u", "pi"):
        diff = np.abs(getattr(new, name).coefficients
                      - getattr(fresh, name).coefficients).max()
        assert diff <= 1e-10, name


def test_history_restarts_on_another_state_and_after_a_failure(setup4, model):
    mesh, spaces, state = setup4
    stepper = Stepper(spaces, model, StepperConfig(tau=1e-3))
    s1, _ = stepper.step(state)
    s2, stats = stepper.step(s1)
    assert stats.extrapolated
    # an equal copy of the level it returned last starts a new history,
    # and so does an earlier level
    _, stats = stepper.step(dataclasses.replace(s2))
    assert not stats.extrapolated
    assert len(stepper._history) == 2
    s2, stats = stepper.step(s1)
    assert not stats.extrapolated
    # every nodal theta is below this floor, so the start residual fails
    failing = Stepper(spaces, model,
                      StepperConfig(tau=1e-3, theta_floor=2.0))
    failing._current, failing._history = stepper._current, stepper._history
    with pytest.raises(SolverError):
        failing.step(s2)
    assert failing._history is None and failing._current is None
    assert failing._memo is None


def test_one_step_conserves_total_energy(setup8, model):
    from chnsfem.diagnostics import state_functionals

    mesh, spaces, state = setup8
    new, _ = Stepper(spaces, model, StepperConfig(tau=1e-3)).step(state)
    _, k0, e0, _ = state_functionals(state, model)
    _, k1, e1, _ = state_functionals(new, model)
    assert abs((k1 + e1) - (k0 + e0)) <= 1e-10


def test_step_satisfies_constraints(setup8, model):
    _, spaces, state = setup8
    cfg = StepperConfig(tau=1e-3)
    stepper = Stepper(spaces, model, cfg)
    new, stats = stepper.step(state)
    # mass conservation, mean-free pressure, incompressibility rows
    assert abs(mean(new.phi) - mean(state.phi)) <= 1e-11
    assert abs(mean(new.pi)) <= 1e-11
    assert stats.div_residual_max <= 1e-11
    assert abs(stats.lam) <= 1e-10
    # the converged residual meets the Newton tolerance by construction
    old_fields = stepper.fields_from_state(state)
    r = stepper.residual_vector(old_fields, stepper.pack(new, stats.lam))
    assert np.linalg.norm(r) <= 1e-12


def test_stepper_keeps_the_fields_of_the_level_it_returned(setup4, model):
    mesh, spaces, state = setup4
    stepper = Stepper(spaces, model, StepperConfig(tau=1e-3))
    new, _ = stepper.step(state)
    kept = stepper.fields_from_state(new)
    assert stepper.fields_from_state(new) is kept
    fresh = stepper.fields_from_vector(stepper.pack(new))
    assert kept.keys() == fresh.keys()
    assert all(np.array_equal(kept[k], fresh[k]) for k in kept)
    # any other state, even an equal copy, is evaluated afresh and kept
    assert stepper.fields_from_state(dataclasses.replace(new)) is not kept
    assert stepper.fields_from_state(state) is stepper.fields_from_state(state)
    # the next step keeps its own level; a failed step keeps none
    newer, _ = stepper.step(new)
    assert stepper.fields_from_state(newer) is not stepper.fields_from_state(new)
    failing = Stepper(spaces, model, StepperConfig(
        tau=1e-3, newton=NewtonSettings(max_iter=1)))
    kept = failing.fields_from_state(new)
    with pytest.raises(SolverError):
        failing.step(new)
    assert failing.fields_from_state(new) is not kept


def test_memo_serves_only_the_last_vector_evaluated(setup4, model, monkeypatch):
    _, spaces, state = setup4
    stepper = Stepper(spaces, model, StepperConfig(tau=1e-3))
    calls = []
    fields = fespace.FunctionSpace.fields
    monkeypatch.setattr(fespace.FunctionSpace, "fields",
                        lambda space, coeffs: calls.append(space) or fields(space, coeffs))
    # one product with each space per evaluated vector
    x = stepper.pack(state)
    kept = stepper.fields_from_vector(x)
    assert stepper.fields_from_vector(x) is kept
    assert len(calls) == 2
    # an equal copy is evaluated afresh
    fresh = stepper.fields_from_vector(x.copy())
    assert fresh is not kept and len(calls) == 4
    assert all(np.array_equal(fresh[k], kept[k]) for k in kept)
    # a residual at another vector replaces the memo
    kept = stepper.fields_from_vector(x)
    y = x * (1.0 + 1e-6)
    stepper.residual_vector(kept, y)
    assert len(calls) == 8
    stepper.jacobian_matrix(kept, y)
    assert len(calls) == 8
    assert stepper.fields_from_vector(x) is not kept and len(calls) == 10


def test_kept_vectors_are_read_only(setup4, model):
    _, spaces, state = setup4
    stepper = Stepper(spaces, model, StepperConfig(tau=1e-3))
    new, _ = stepper.step(state)
    for x in stepper._history:
        with pytest.raises(ValueError):
            x[0] = 1.0
    # a new level's coefficients are views of its kept vector
    assert np.shares_memory(new.phi.coefficients, stepper._history[-1])


def test_stepped_state_is_read_only(setup4, model):
    mesh, spaces, state = setup4
    new, _ = Stepper(spaces, model, StepperConfig(tau=1e-3)).step(state)
    # initial levels too: a Stepper keeps the fields of its start state
    for level in (state, new):
        for name in ("phi", "mu", "theta", "u", "pi"):
            with pytest.raises(ValueError):
                getattr(level, name).coefficients[0] = 1.0
    edited = FeFunction(spaces.scalar, new.theta.coefficients.copy())
    edited.coefficients[0] = 1.0
    assert edited.coefficients[0] == 1.0


def test_new_level_star_rule_also_preserves_structure(setup4, model):
    from chnsfem.diagnostics import state_functionals

    mesh, spaces, state = setup4
    cfg = StepperConfig(tau=1e-3, star_rule="new")
    new, stats = Stepper(spaces, model, cfg).step(state)
    assert stats.residual_norm <= 1e-12
    _, k0, e0, s0 = state_functionals(state, model)
    _, k1, e1, s1 = state_functionals(new, model)
    assert abs((k1 + e1) - (k0 + e0)) <= 1e-10
    assert s1 >= s0 - 1e-12


def test_step_warns_below_split_validity(model):
    # a uniform state is a fixed point, so theta stays at its initial value
    mesh = build_uniform(4)
    spaces = build_spaces(mesh)
    stepper = Stepper(spaces, model, StepperConfig(tau=1e-3))

    def uniform(theta):
        return initial_state(spaces, model,
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
    with pytest.raises(SolverError, match="Newton did not reach tolerance") as info:
        Stepper(spaces, model, cfg).step(state, step_index=7)
    assert info.value.step_index == 7


def test_config_validation():
    with pytest.raises(ValueError):
        StepperConfig(tau=0.0)
    with pytest.raises(ValueError):
        StepperConfig(tau=1e-3, star_rule="midpoint")
    with pytest.raises(ValueError):
        StepperConfig(tau=1e-3, theta_floor=-1.0)
