import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from chnsfem.harness import benchmark_initial_data
from chnsfem.la import (
    LU_RESIDUAL_BOUND,
    Factor,
    FactorizationError,
    NewtonSettings,
    NonconvergenceError,
    TrialRejected,
    lu_solve,
    newton,
)
from chnsfem.mesh import build_uniform
from chnsfem.physics import default_model
from chnsfem.scheme import Stepper, StepperConfig, build_spaces, initial_state


def test_identity_solve():
    b = np.array([1.0, -2.0, 3.0, 0.5, 7.0])
    x = lu_solve(sp.identity(5, format="csc"), b)
    assert np.array_equal(x, b)


def test_hand_inverted_2x2():
    A = sp.csc_matrix(np.array([[2.0, 1.0], [1.0, 3.0]]))
    x = lu_solve(A, np.array([3.0, 4.0]))
    assert np.abs(x - 1.0).max() <= 1e-14


def test_singular_matrix_raises():
    A = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(FactorizationError):
        lu_solve(A, np.array([1.0, 2.0]))


@pytest.mark.parametrize("stored_zero", [False, True])
def test_all_zero_row_raises(stored_zero):
    # the row scale of an all-zero row must not divide by zero
    rows, cols, vals = [0, 0, 2, 2], [0, 2, 0, 2], [2.0, 1.0, 1.0, 3.0]
    if stored_zero:
        rows, cols, vals = rows + [1], cols + [1], vals + [0.0]
    A = sp.csc_matrix((vals, (rows, cols)), shape=(3, 3))
    with pytest.raises(FactorizationError):
        lu_solve(A, np.ones(3))


def test_saddle_point_with_zero_diagonal_block():
    # [[M, B^T], [B, 0]]: every constraint row has a zero diagonal, so the
    # threshold pivoting must still leave the diagonal where it has to
    rng = np.random.default_rng(7)
    n, m = 12, 5
    G = rng.standard_normal((n, n))
    M = G @ G.T + n * np.eye(n)
    B = 1e-3 * rng.standard_normal((m, n))
    K = np.block([[M, B.T], [B, np.zeros((m, m))]])
    # store every entry, the zero block included, as the Jacobians do
    A = sp.csc_matrix((K.ravel(), tuple(np.indices(K.shape).reshape(2, -1))))
    b = rng.standard_normal(n + m)
    factor = Factor(A)
    assert np.any(factor.lu.perm_r != factor.lu.perm_c)  # an off-diagonal pivot
    x = factor.solve(b)
    assert np.linalg.norm(A @ x - b) / max(1.0, np.linalg.norm(b)) \
        <= LU_RESIDUAL_BOUND
    assert np.abs(x - np.linalg.solve(K, b)).max() \
        <= 1e-8 * np.abs(x).max()


@pytest.mark.parametrize("n", [100, 2000, 20000])
def test_residual_bound_on_random_well_conditioned_systems(n):
    # banded random pattern (grid-operator-like bandwidth keeps fill-in sane)
    rng = np.random.default_rng(n)
    band = max(2, int(np.sqrt(n)))
    offsets = [0, 1, -1, band, -band]
    diags = [10.0 + rng.random(n)] + [rng.standard_normal(n - abs(k))
                                      for k in offsets[1:]]
    A = sp.diags(diags, offsets, format="csc")
    x_ref = rng.standard_normal(n)
    b = A @ x_ref
    x = lu_solve(A, b)
    assert np.linalg.norm(A @ x - b) / max(1.0, np.linalg.norm(b)) <= 1e-10


def test_factor_scales_rows_on_the_pattern_of_a():
    # one n=16 benchmark Jacobian: the row scaling reads A's arrays and
    # allocates one array of entries, not copies of the matrix
    model = default_model()
    mesh = build_uniform(16)
    spaces = build_spaces(mesh)
    state = initial_state(spaces, model, *benchmark_initial_data())
    stepper = Stepper(spaces, model, StepperConfig(tau=1e-2))
    J = stepper.jacobian_matrix(stepper.fields_from_state(state), stepper.pack(state))
    tracemalloc.start()
    try:
        factor = Factor(J)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= J.data.nbytes + J.indices.nbytes + J.indptr.nbytes
    assert np.array_equal(factor.row_scale, 1.0 / abs(J).max(axis=1).toarray().ravel())


def test_factor_leaves_a_non_canonical_input_unchanged():
    # row indices running backwards in every column: SuperLU sorts the
    # indices it is given in place, and must not reach this matrix's
    rng = np.random.default_rng(11)
    K = rng.standard_normal((6, 6)) + 6 * np.eye(6)
    rows = np.tile(np.arange(5, -1, -1), 6)
    U = sp.csc_matrix((K[rows, np.repeat(np.arange(6), 6)], rows,
                       np.arange(0, 37, 6)), shape=(6, 6))
    assert not U.has_canonical_format
    indices, data = U.indices.copy(), U.data.copy()
    factor = Factor(U)
    assert np.array_equal(U.indices, indices) and np.array_equal(U.data, data)
    assert np.array_equal(U.toarray(), K)
    b = rng.standard_normal(6)
    x = factor.solve(b)
    assert np.linalg.norm(K @ x - b) / max(1.0, np.linalg.norm(b)) \
        <= LU_RESIDUAL_BOUND


def test_newton_square_root():
    def r(x):
        return x**2 - 4.0

    def J(x):
        return sp.csc_matrix([[2.0 * x[0]]])

    res = newton(r, J, np.array([3.0]), NewtonSettings(tol=1e-12, max_iter=20))
    assert abs(res.x[0] - 2.0) <= 1e-12
    assert res.iterations <= 8


def test_newton_linear_system_one_iteration():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 6)) + 6 * np.eye(6)
    b = rng.standard_normal(6)

    res = newton(lambda x: A @ x - b, lambda x: sp.csc_matrix(A),
                 np.zeros(6), NewtonSettings(tol=1e-12, max_iter=5))
    assert res.iterations == 1
    assert np.linalg.norm(A @ res.x - b) <= 1e-12


def test_newton_degenerate_root_nonconvergence():
    def r(x):
        return x**2

    def J(x):
        return sp.csc_matrix([[2.0 * x[0]]])

    with pytest.raises(NonconvergenceError) as info:
        newton(r, J, np.array([1.0]), NewtonSettings(tol=1e-12, max_iter=5))
    assert "(residual norm 9.766e-04)" in str(info.value)


def test_damping_rescues_overshooting_iteration():
    # undamped Newton on arctan diverges from x0 = 3
    def r(x):
        return np.arctan(x)

    def J(x):
        return sp.csc_matrix([[1.0 / (1.0 + x[0] ** 2)]])

    res = newton(r, J, np.array([3.0]), NewtonSettings(tol=1e-12, max_iter=30))
    assert abs(res.x[0]) <= 1e-12


def test_newton_stops_at_the_residual_floor():
    # |r| cannot fall below 1e-11 > tol: once there, no step along the
    # Newton direction decreases it, and Newton must stop rather than
    # refactor on every remaining iteration
    def r(x):
        d = x - 1.0
        return np.where(np.abs(d) < 1e-11, 1e-11, d)

    factorizations = []

    def J(x):
        factorizations.append(x.copy())
        return sp.csc_matrix([[1.0]])

    with pytest.raises(NonconvergenceError) as info:
        newton(r, J, np.array([2.0]), NewtonSettings(tol=1e-12, max_iter=30))
    assert len(factorizations) <= 2
    assert "stalled at residual norm 1.000e-11" in str(info.value)


def test_retryable_error_shortens_step():
    class OutOfDomain(TrialRejected):
        pass

    def r(x):
        if x[0] <= 0:
            raise OutOfDomain("negative argument")
        return np.log(x)

    def J(x):
        return sp.csc_matrix([[1.0 / x[0]]])

    # the full step from 3.0 lands at 3*(1 - log 3) < 0
    res = newton(r, J, np.array([3.0]), NewtonSettings(tol=1e-12, max_iter=30))
    assert abs(res.x[0] - 1.0) <= 1e-12


def test_row_scaling_leaves_solution_unchanged():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((4, 4)) + 5 * np.eye(4)
    b = rng.standard_normal(4)
    scale = np.array([1.0, 10.0, 0.1, 100.0])

    def make(d):
        return (lambda x: d * (A @ x + np.tanh(x) - b),
                lambda x: sp.csc_matrix(d[:, None] * (A + np.diag(1 / np.cosh(x) ** 2))))

    settings = NewtonSettings(tol=1e-13, max_iter=40)
    plain = newton(*make(np.ones(4)), np.zeros(4), settings)
    scaled = newton(*make(scale), np.zeros(4), settings)
    assert np.abs(plain.x - scaled.x).max() <= 1e-11


def test_chord_with_nearby_factor_reaches_the_newton_root():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((5, 5)) + 6 * np.eye(5)
    b = rng.standard_normal(5)

    def r(x):
        return A @ x + 0.5 * np.tanh(x) - b

    def J(x):
        return sp.csc_matrix(A + np.diag(0.5 / np.cosh(x) ** 2))

    settings = NewtonSettings(tol=1e-12, max_iter=30)
    full = newton(r, J, np.zeros(5), settings)
    # the linearization at a neighbouring point, as a previous step leaves it
    stale = Factor(J(full.x + 0.05 * rng.standard_normal(5)))
    chord = newton(r, J, np.zeros(5), settings, factor=stale)
    assert chord.factorizations == 0 and chord.factor is stale
    assert chord.residual_norm <= settings.tol
    assert np.abs(chord.x - full.x).max() <= settings.tol


def test_stale_factor_leaving_the_domain_falls_back_to_newton():
    class OutOfDomain(TrialRejected):
        pass

    def r(x):
        if x[0] <= 0:
            raise OutOfDomain("negative argument")
        return np.log(x)

    def J(x):
        return sp.csc_matrix([[1.0 / x[0]]])

    # the chord step from 3.0 with the slope at 5.0 lands at 3 - 5 log 3 < 0
    stale = Factor(J(np.array([5.0])))
    res = newton(r, J, np.array([3.0]), NewtonSettings(tol=1e-12, max_iter=30),
                 factor=stale)
    assert abs(res.x[0] - 1.0) <= 1e-12
    assert res.factorizations >= 1 and res.factor is not stale


def test_stale_factor_increasing_the_residual_is_abandoned():
    def r(x):
        return np.arctan(x)

    def J(x):
        return sp.csc_matrix([[1.0 / (1.0 + x[0] ** 2)]])

    settings = NewtonSettings(tol=1e-12, max_iter=30)
    x0 = np.array([0.5])
    # the slope at 10 is 100x too flat: the chord step overshoots to |x| > 40
    stale = Factor(J(np.array([10.0])))
    res = newton(r, J, x0, settings, factor=stale)
    full = newton(r, J, x0, settings)
    assert abs(res.x[0]) <= 1e-12
    # the rejected trial costs no iteration and no factor: the rest is the
    # plain solve, chord steps on its own factors included
    assert res.iterations == full.iterations
    assert res.factorizations == full.factorizations


def test_plain_solve_chords_on_its_fresh_factor():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((5, 5)) + 6 * np.eye(5)
    b = rng.standard_normal(5)
    built = []

    def r(x):
        return A @ x + 0.5 * np.tanh(x) - b

    def J(x):
        built.append(x.copy())
        return sp.csc_matrix(A + np.diag(0.5 / np.cosh(x) ** 2))

    settings = NewtonSettings(tol=1e-12, max_iter=30)
    res = newton(r, J, np.zeros(5), settings)
    assert res.residual_norm <= settings.tol
    assert res.factorizations == len(built) < res.iterations


def test_settings_validation():
    with pytest.raises(ValueError):
        NewtonSettings(tol=0.0)
    with pytest.raises(ValueError):
        NewtonSettings(max_iter=0)
