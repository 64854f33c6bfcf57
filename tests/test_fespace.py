import numpy as np
import pytest
import scipy.sparse as sp
from per_element import per_element_tabulation

from chnsfem import fespace
from chnsfem.fespace import (
    P1,
    P2_VECTOR,
    QUAD_DEGREE,
    FeFunction,
    build_space,
    c_skw,
    evaluate,
    interpolate,
    prolong,
    tabulate,
)
from chnsfem.mesh import TRIANGLE_TYPES, build_uniform, quad_rule


def phi0(x, y):
    return 0.4 + 0.2 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)


def u0(x, y):
    return (-1e-2 * np.sin(np.pi * x) ** 2 * np.sin(2 * np.pi * y),
            1e-2 * np.sin(2 * np.pi * x) * np.sin(np.pi * y) ** 2)


def norms(f):
    """(L2 norm, H1 seminorm) of f by the degree-6 rule."""
    return np.sqrt(f.space.squared_norms(f.coefficients))


def test_dof_counts():
    mesh4 = build_uniform(4)
    assert build_space(mesh4, P1).dof_count == 16
    assert build_space(mesh4, P2_VECTOR).dof_count == 2 * 64
    mesh2 = build_uniform(2)
    assert build_space(mesh2, P2_VECTOR).dof_count == 32


@pytest.mark.parametrize("family", [P1, P2_VECTOR])
def test_every_dof_referenced(family):
    space = build_space(build_uniform(3), family)
    table = space.element_dof_table
    assert table.max() < space.scalar_dof_count
    assert len(np.unique(table)) == space.scalar_dof_count


@pytest.mark.parametrize("n", [1, 3, 4])
def test_p2_numbering(n):
    mesh = build_uniform(n)
    space = build_space(mesh, P2_VECTOR)
    nodes = space.node_coords[space.element_dof_table]
    corners = mesh.tri_coords
    midpoints = 0.5 * (corners[:, [1, 2, 0]] + corners[:, [2, 0, 1]])
    # local node k sits at corner k, then at the midpoints of edges
    # (1,2), (2,0), (0,1), wrapped into the unit square
    gap = (nodes - np.concatenate([corners, midpoints], axis=1) + 0.5) % 1.0 - 0.5
    assert np.abs(gap).max() <= 1e-15
    assert np.all((0 <= nodes) & (nodes < 1))
    # edge DOFs follow the vertices, one per edge, in strictly increasing
    # lexicographic order of their coordinates
    nv = mesh.num_vertices
    assert np.array_equal(np.unique(space.element_dof_table[:, 3:]),
                          np.arange(nv, nv + 3 * n * n))
    x, y = space.node_coords[nv:].T
    assert np.all((x[1:] > x[:-1]) | ((x[1:] == x[:-1]) & (y[1:] > y[:-1])))


@pytest.mark.parametrize("family", [P1, P2_VECTOR])
def test_partition_of_unity_and_gradient_sum(family):
    space = build_space(build_uniform(3), family)
    for basis in (tabulate(space, quad_rule(6))[0],
                  per_element_tabulation(space, quad_rule(6))[0]):
        assert np.abs(basis[0].sum(axis=-1) - 1.0).max() <= 1e-14
        assert np.abs(basis[1:].sum(axis=-1)).max() <= 1e-12


def test_weights_integrate_domain():
    space = build_space(build_uniform(5), P1)
    basis, weights = tabulate(space, quad_rule(4))
    # one row of weights serves every triangle
    assert weights.shape == (basis.shape[2],)
    assert abs(weights.sum() * space.mesh.num_triangles - 1.0) <= 1e-13
    assert abs(per_element_tabulation(space, quad_rule(4))[1].sum() - 1.0) <= 1e-13


def test_interpolate_constant():
    space = build_space(build_uniform(4), P1)
    f = interpolate(space, lambda x, y: np.ones_like(x))
    assert np.abs(f.coefficients - 1.0).max() == 0.0


def test_interpolate_initial_phase_field_vertex_value():
    space = build_space(build_uniform(4), P1)
    f = interpolate(space, phi0)
    vid = 1 * 4 + 1  # vertex (0.25, 0.25)
    assert abs(f.coefficients[vid] - 0.6) <= 1e-15


@pytest.mark.parametrize("family", [P1])
def test_interpolation_reproduces_own_space(family):
    rng = np.random.default_rng(7)
    space = build_space(build_uniform(3), family)
    f = FeFunction(space, rng.standard_normal(space.dof_count))
    g = interpolate(space, lambda x, y: evaluate(f, np.column_stack([x, y])))
    assert np.abs(g.coefficients - f.coefficients).max() <= 1e-13


def test_vector_interpolation_reproduces_own_space():
    rng = np.random.default_rng(8)
    space = build_space(build_uniform(2), P2_VECTOR)
    f = FeFunction(space, rng.standard_normal(space.dof_count))

    def closure(x, y):
        vals = evaluate(f, np.column_stack([x, y]))
        return vals[:, 0], vals[:, 1]

    g = interpolate(space, closure)
    assert np.abs(g.coefficients - f.coefficients).max() <= 1e-13


def test_interpolated_gradient_converges_at_second_order():
    # P2 interpolant of (sin(2*pi*x), 0): gradient error in L2 shrinks like h^2
    errs = []
    for n in (4, 8, 16):
        space = build_space(build_uniform(n), P2_VECTOR)
        f = interpolate(space, lambda x, y: (np.sin(2 * np.pi * x), 0 * x))
        rule = quad_rule(QUAD_DEGREE)
        fields = space.fields(f.coefficients)  # (component, part, ne, nq)
        _, gx, gy = fields[0]
        # physical coordinates of the quadrature points
        corners = space.mesh.tri_coords
        pts = np.einsum("qb,ebs->eqs", rule.points, corners)
        exact = 2 * np.pi * np.cos(2 * np.pi * pts[..., 0])
        err2 = (np.sum(space.weights * ((gx - exact) ** 2 + gy ** 2))
                + np.sum(space.weights * fields[1, 1:] ** 2))
        errs.append(np.sqrt(err2))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates > 1.8)


def test_initial_velocity_divergence_decays_quadratically():
    # the benchmark initial velocity is divergence-free; the P2 interpolant's
    # divergence vanishes at the interpolation rate
    errs = []
    for n in (4, 8, 16):
        space = build_space(build_uniform(n), P2_VECTOR)
        f = interpolate(space, u0)
        u = space.fields(f.coefficients)
        div = u[0, 1] + u[1, 2]
        errs.append(np.sqrt(np.sum(space.weights * div**2)))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates > 1.8)


def test_prolong_constant():
    coarse = build_space(build_uniform(2), P1)
    fine = build_space(build_uniform(4), P1)
    f = interpolate(coarse, lambda x, y: np.full_like(x, 3.5))
    g = prolong(f, fine)
    assert np.abs(g.coefficients - 3.5).max() <= 1e-14


@pytest.mark.parametrize("family", [P1, P2_VECTOR])
def test_prolong_matches_coarse_at_random_points(family):
    rng = np.random.default_rng(11)
    coarse = build_space(build_uniform(2), family)
    fine = build_space(build_uniform(4), family)
    f = FeFunction(coarse, rng.standard_normal(coarse.dof_count))
    g = prolong(f, fine)
    pts = rng.random((50, 2))
    assert np.abs(evaluate(g, pts) - evaluate(f, pts)).max() <= 1e-13


def test_prolong_is_isometry():
    rng = np.random.default_rng(12)
    coarse = build_space(build_uniform(3), P2_VECTOR)
    fine = build_space(build_uniform(6), P2_VECTOR)
    f = FeFunction(coarse, rng.standard_normal(coarse.dof_count))
    g = prolong(f, fine)
    for a, b in zip(norms(f), norms(g)):
        assert abs(a - b) <= 1e-13 * max(1.0, a)


def test_prolong_rejects_mismatched_meshes():
    coarse = build_space(build_uniform(2), P1)
    wrong = build_space(build_uniform(6), P1)
    f = interpolate(coarse, lambda x, y: x * 0)
    with pytest.raises(ValueError):
        prolong(f, wrong)
    other_family = build_space(build_uniform(4), P2_VECTOR)
    with pytest.raises(ValueError):
        prolong(f, other_family)


def test_l2_norm_of_one():
    space = build_space(build_uniform(4), P1)
    f = interpolate(space, lambda x, y: np.ones_like(x))
    l2, semi = norms(f)
    assert abs(l2 - 1.0) <= 1e-14
    assert semi <= 1e-14


def test_h1_seminorm_against_analytic_value():
    # |(sin(2 pi x), 0)|_{H1}^2 = 2 pi^2; the P2 interpolant converges at O(h^2)
    errs = []
    for n in (8, 16):
        space = build_space(build_uniform(n), P2_VECTOR)
        f = interpolate(space, lambda x, y: (np.sin(2 * np.pi * x), 0 * x))
        _, semi = norms(f)
        errs.append(abs(semi**2 - 2 * np.pi**2))
    assert errs[0] <= 0.1
    assert np.log2(errs[0] / errs[1]) > 1.8


def test_meanfree_family_mean():
    # the pressure lives in plain P1: its mean is pinned by the scheme's
    # multiplier row, not by the space
    space = build_space(build_uniform(4), P1)
    f = interpolate(space, lambda x, y: np.sin(2 * np.pi * x))
    assert abs(np.sum(space.weights * space.fields(f.coefficients)[0])) <= 1e-12


def test_c_skw_vanishes_on_repeated_argument():
    rng = np.random.default_rng(3)
    space = build_space(build_uniform(4), P2_VECTOR)
    for _ in range(20):
        u = FeFunction(space, rng.standard_normal(space.dof_count))
        v = FeFunction(space, rng.standard_normal(space.dof_count))
        assert abs(c_skw(u, v, v)) <= 1e-13


def test_c_skw_antisymmetry():
    rng = np.random.default_rng(4)
    space = build_space(build_uniform(3), P2_VECTOR)
    for _ in range(5):
        u, v, w = (FeFunction(space, rng.standard_normal(space.dof_count))
                   for _ in range(3))
        a = c_skw(u, v, w)
        b = c_skw(u, w, v)
        assert abs(a + b) <= 1e-13 * max(1.0, abs(a))


def test_c_skw_zero_velocity():
    rng = np.random.default_rng(5)
    space = build_space(build_uniform(2), P2_VECTOR)
    z = FeFunction(space, np.zeros(space.dof_count))
    v = FeFunction(space, rng.standard_normal(space.dof_count))
    w = FeFunction(space, rng.standard_normal(space.dof_count))
    assert c_skw(z, v, w) == 0.0


def test_c_skw_space_mismatch():
    s1 = build_space(build_uniform(2), P2_VECTOR)
    s2 = build_space(build_uniform(2), P2_VECTOR)
    u = FeFunction(s1, np.zeros(s1.dof_count))
    v = FeFunction(s2, np.zeros(s2.dof_count))
    with pytest.raises(ValueError):
        c_skw(u, u, v)


def test_fefunction_length_check():
    space = build_space(build_uniform(2), P1)
    with pytest.raises(ValueError):
        FeFunction(space, np.zeros(space.dof_count + 1))


@pytest.mark.parametrize("family", [P1, P2_VECTOR])
def test_evaluator_operator_matches_tabulation(family):
    # fields are the per-element contraction of each triangle's own table,
    # and integrate the per-element scatter of the tested densities
    rng = np.random.default_rng(11)
    for n in (3, 4):
        space = build_space(build_uniform(n), family)
        basis, weights = per_element_tabulation(space, quad_rule(QUAD_DEGREE))
        dofs = space.element_dof_table
        ns = space.scalar_dof_count
        shape = weights.shape
        coeffs = rng.standard_normal(space.dof_count)
        fields = space.fields(coeffs).reshape(-1, 3, *shape)
        for c in range(space.num_components):
            local = coeffs[c * ns:(c + 1) * ns][dofs]
            expected = np.einsum("keqb,eb->keq", basis, local)
            assert np.abs(fields[c] - expected).max() <= 1e-13

        g = rng.standard_normal((3,) + shape)
        scatter = np.zeros(ns)
        np.add.at(scatter, dofs, np.einsum("keq,keqb->eb", g, basis))
        integrated = space.integrate(np.stack([g / weights] * space.num_components))
        assert np.abs(integrated - np.tile(scatter, space.num_components)).max() <= 1e-13


@pytest.mark.parametrize("family", [P1, P2_VECTOR])
def test_integrating_stacked_rows_equals_integrating_each_row(family):
    # one bincount over all rows adds each row's entries in the order of
    # one bincount per row, so the results agree bitwise
    space = build_space(build_uniform(8), family)
    lead = (4,) + ((2,) if family == P2_VECTOR else ())
    densities = np.random.default_rng(3).standard_normal(lead + space.shape)
    stacked = space.integrate(densities)
    assert stacked.shape == (4, space.dof_count)
    for row, d in zip(stacked, densities):
        assert np.array_equal(row, space.integrate(d))


def test_evaluator_is_built_once_per_space(monkeypatch):
    # build_space tabulates the space's one rule once; evaluating fields and
    # integrating densities reuse that table
    tabulated = []
    monkeypatch.setattr(fespace, "tabulate",
                        lambda *args: tabulated.append(args) or tabulate(*args))
    space = build_space(build_uniform(4), P1)
    assert len(tabulated) == 1 and tabulated[0][0] is space
    assert space.weights.shape == (len(quad_rule(QUAD_DEGREE).weights),)
    space.integrate(space.fields(np.ones(space.dof_count)))
    assert len(tabulated) == 1
    build_space(space.mesh, P1)
    assert len(tabulated) == 2


@pytest.mark.parametrize("family", [P1, P2_VECTOR])
@pytest.mark.parametrize("n", [1, 3, 4, 16])
def test_every_element_has_its_types_table(family, n):
    space = build_space(build_uniform(n), family)
    basis, weights = per_element_tabulation(space, quad_rule(QUAD_DEGREE))
    ne, nq = weights.shape
    types = np.arange(ne) % TRIANGLE_TYPES
    assert space.basis.shape == (3, TRIANGLE_TYPES, nq, basis.shape[-1])
    assert space.weights.shape == (nq,)
    assert space.shape == (3, ne, nq)
    # the j-th triangle of type t is triangle j * TRIANGLE_TYPES + t
    assert np.array_equal(space.dofs[types, np.arange(ne) // TRIANGLE_TYPES],
                          space.element_dof_table)
    if n & (n - 1) == 0:  # grid coordinates i*h are exact
        assert np.array_equal(basis, space.basis[:, types])
        assert np.array_equal(weights, np.broadcast_to(space.weights, weights.shape))
    else:  # to a few ulps, the rounding of i*h
        eps = np.finfo(float).eps
        assert np.abs(basis - space.basis[:, types]).max() <= 4 * eps * np.abs(basis).max()
        assert np.abs(weights - space.weights).max() <= 4 * eps * weights.max()


def test_evaluator_holds_no_array_beyond_one_entry_per_local_dof():
    # the tables are per triangle type: nothing the space keeps grows
    # like triangles x points, sparse or dense
    for family in (P1, P2_VECTOR):
        space = build_space(build_uniform(16), family)
        limit = space.element_dof_table.size
        for name, value in vars(space).items():
            if sp.issparse(value):
                value = value.tocsr()
                sizes = [value.data.size, value.indices.size, value.indptr.size]
            else:
                sizes = [np.size(value)]
            assert max(sizes) <= limit, name


def _assembled(space, blocks, n):
    rows, cols, vals = space.matrix_entries(blocks, space, 0)
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


@pytest.mark.parametrize("family", [P1, P2_VECTOR])
def test_element_matrices_match_the_per_element_assembly(family):
    # the mass and stiffness matrices of the scalar basis from the type
    # tables, against every triangle's own table (tests/per_element.py)
    space = build_space(build_uniform(8), family)
    n = space.scalar_dof_count
    ones = np.ones(space.shape[1:])
    mass = _assembled(space, space.element_matrices([ones], [0], space, 0), n)
    stiffness = _assembled(space, space.element_matrices([ones], [1], space, 1)
                           + space.element_matrices([ones], [2], space, 2), n)

    basis, weights = per_element_tabulation(space, quad_rule(QUAD_DEGREE))
    dofs = space.element_dof_table
    rows = np.broadcast_to(dofs[:, :, None], dofs.shape + dofs.shape[-1:]).ravel()
    cols = np.broadcast_to(dofs[:, None, :], dofs.shape + dofs.shape[-1:]).ravel()
    for matrix, parts in ((mass, [0]), (stiffness, [1, 2])):
        local = sum(np.einsum("eq,eqa,eqb->eab", weights, basis[k], basis[k])
                    for k in parts)
        ref = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()
        assert abs(matrix - ref).max() <= 1e-15 * abs(ref).max()


def test_p1_mass_times_ones_is_the_integral_of_each_basis_function():
    space = build_space(build_uniform(8), P1)
    ones = np.ones(space.shape[1:])
    mass = _assembled(space, space.element_matrices([ones], [0], space, 0), space.dof_count)
    unit = np.zeros(space.shape)
    unit[0] = 1.0
    load = space.integrate(unit)
    assert np.abs(mass @ np.ones(space.dof_count) - load).max() <= 1e-15 * load.max()
