import numpy as np
import pytest

from chnsfem.fespace import P1, build_space, tabulate
from chnsfem.mesh import (
    MAX_QUAD_DEGREE,
    UnsupportedDegreeError,
    build_uniform,
    quad_rule,
    reference_monomial_integral,
)


def _brute_force_vertex_count(n):
    """Count unique cell corners after wrapping coordinates modulo 1."""
    keys = set()
    for i in range(n + 1):
        for j in range(n + 1):
            keys.add((i % n, j % n))
    return len(keys)


def _edge_midpoint_counts(mesh):
    """Map each geometric edge (keyed by its wrapped midpoint) to its triangle count."""
    n = mesh.n
    counts = {}
    for corners in mesh.tri_coords:
        for a, b in ((0, 1), (1, 2), (2, 0)):
            mid = 0.5 * (corners[a] + corners[b])
            key = (round(mid[0] * 2 * n) % (2 * n), round(mid[1] * 2 * n) % (2 * n))
            counts[key] = counts.get(key, 0) + 1
    return counts


def _signed_area(corners):
    v1 = corners[1] - corners[0]
    v2 = corners[2] - corners[0]
    return 0.5 * (v1[0] * v2[1] - v1[1] * v2[0])


def test_build_uniform_smallest_mesh():
    mesh = build_uniform(1)
    assert mesh.num_triangles == 2
    assert mesh.num_vertices == 1
    total = sum(_signed_area(c) for c in mesh.tri_coords)
    assert abs(total - 1.0) <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 4])
def test_counts_match_brute_force_identification(n):
    mesh = build_uniform(n)
    assert mesh.num_vertices == _brute_force_vertex_count(n) == n * n
    assert mesh.num_triangles == 2 * n * n
    assert mesh.triangles.min() >= 0
    assert mesh.triangles.max() < n * n


@pytest.mark.parametrize("n", [1, 2, 4])
def test_every_edge_shared_by_exactly_two_triangles(n):
    counts = _edge_midpoint_counts(build_uniform(n))
    assert len(counts) == 3 * n * n
    assert all(c == 2 for c in counts.values())


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_areas_positive_and_sum_to_one(n):
    mesh = build_uniform(n)
    areas = np.array([_signed_area(c) for c in mesh.tri_coords])
    assert np.all(areas > 0)
    assert abs(areas.sum() - 1.0) <= 1e-14


def test_build_uniform_rejects_zero():
    with pytest.raises(ValueError):
        build_uniform(0)


def test_refine_doubles_subdivisions():
    coarse, fine = build_uniform(2), build_uniform(4)
    assert fine.n == 2 * coarse.n
    assert fine.num_triangles == 4 * coarse.num_triangles == 32


def test_refine_is_nested():
    coarse = build_uniform(2)
    fine = build_uniform(2 * coarse.n)
    fine_set = {(round(x * 1e12), round(y * 1e12)) for x, y in fine.vertices}
    for x, y in coarse.vertices:
        assert (round(x * 1e12), round(y * 1e12)) in fine_set


def test_refine_composition():
    # two halvings of the mesh size nest: n=1 inside n=2 inside n=4
    meshes = [build_uniform(1)]
    for _ in range(2):
        meshes.append(build_uniform(2 * meshes[-1].n))
    assert meshes[-1].n == 4
    keys = [{(round(x * 1e12), round(y * 1e12)) for x, y in m.vertices}
            for m in meshes]
    assert keys[0] <= keys[1] <= keys[2]


def test_element_geometry_uniform_area():
    # the Jacobian-scaled weights of each triangle sum to its area h^2/2
    mesh = build_uniform(2)
    weights = tabulate(build_space(mesh, P1), quad_rule(6)).weights
    assert np.abs(weights.sum(axis=1) - mesh.h**2 / 2).max() <= 1e-15


def test_affine_map_hits_triangle_corners():
    # tabulate's gradients invert the map from the reference corners to
    # tri_coords: the P1 interpolant of x (of y) has gradient e_x (e_y)
    mesh = build_uniform(4)
    grads = tabulate(build_space(mesh, P1), quad_rule(1)).grads
    jac = np.einsum("eqbs,ebt->eqts", grads, mesh.tri_coords)
    assert np.abs(jac - np.eye(2)).max() <= 1e-13


@pytest.mark.parametrize("degree", range(1, MAX_QUAD_DEGREE + 1))
def test_rule_weights_positive_and_sum_to_reference_area(degree):
    rule = quad_rule(degree)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 0.5) <= 1e-14
    assert np.abs(rule.points.sum(axis=1) - 1.0).max() <= 1e-13


@pytest.mark.parametrize("degree", range(1, MAX_QUAD_DEGREE + 1))
def test_monomial_exactness(degree):
    rule = quad_rule(degree)
    x = rule.points[:, 1]
    y = rule.points[:, 2]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            approx = np.sum(rule.weights * x**a * y**b)
            exact = reference_monomial_integral(a, b)
            assert abs(approx - exact) <= 1e-13 * max(1.0, abs(exact))


def test_x2y_integral():
    rule = quad_rule(3)
    x = rule.points[:, 1]
    y = rule.points[:, 2]
    assert abs(np.sum(rule.weights * x**2 * y) - 1.0 / 60.0) <= 1e-15


def test_random_degree6_polynomial_matches_analytic_integral():
    rng = np.random.default_rng(42)
    rule = quad_rule(6)
    x = rule.points[:, 1]
    y = rule.points[:, 2]
    for _ in range(5):
        exact = 0.0
        approx = np.zeros(())
        for a in range(7):
            for b in range(7 - a):
                coef = rng.standard_normal()
                exact += coef * reference_monomial_integral(a, b)
                approx = approx + coef * np.sum(rule.weights * x**a * y**b)
        assert abs(float(approx) - exact) <= 1e-13


def test_unsupported_degree():
    with pytest.raises(UnsupportedDegreeError):
        quad_rule(MAX_QUAD_DEGREE + 1)
    with pytest.raises(ValueError):
        quad_rule(0)
