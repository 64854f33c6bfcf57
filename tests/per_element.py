"""References for the tests: a per-element tabulation and quadrature rules
of any degree.

Every triangle gets its own table, mapped from the reference element by the
affine map of its own corner coordinates ``mesh.tri_coords``.  A
``FunctionSpace`` keeps one table per triangle type instead, so the tests
check its tables, fields, integrals and Jacobian against this one.

The solver ships one quadrature rule, of degree 6;
:func:`conical_rule` serves the tests that need a higher degree.
"""

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from chnsfem.fespace import (
    P1,
    _p1_ref_grads,
    _p1_values,
    _p2_ref_grads,
    _p2_values,
)
from chnsfem.mesh import QuadRule


def conical_rule(degree):
    """Gauss-Jacobi x Gauss-Legendre product rule on the collapsed square,
    as a :class:`~chnsfem.mesh.QuadRule`.

    Exact for total degree 2m-1 with m points per direction; all weights
    positive by construction.
    """
    m = (degree + 2) // 2
    xj, wj = roots_jacobi(m, 1.0, 0.0)
    xg, wg = roots_legendre(m)
    u = 0.5 * (xj + 1.0)     # weight (1-u) direction
    v = 0.5 * (xg + 1.0)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    x = uu.ravel()
    y = (vv * (1.0 - uu)).ravel()
    w = (np.outer(wj / 4.0, wg / 2.0)).ravel()
    points = np.column_stack([1.0 - x - y, x, y])
    return QuadRule(points=points, weights=w)


def per_element_tabulation(space, rule):
    """``(basis, weights)`` of every triangle: ``basis[k, e, q, b]`` is part
    ``k`` (value, x- or y-derivative) of local basis function ``b`` at point
    ``q`` of triangle ``e``, and ``weights[e, q]`` the rule's weight scaled
    by the triangle's Jacobian determinant."""
    bary = rule.points
    if space.family == P1:
        values, ref_grads = _p1_values(bary), _p1_ref_grads(bary)
    else:
        values, ref_grads = _p2_values(bary), _p2_ref_grads(bary)
    corners = space.mesh.tri_coords
    j1 = corners[:, 1] - corners[:, 0]
    j2 = corners[:, 2] - corners[:, 0]
    det = j1[:, 0] * j2[:, 1] - j1[:, 1] * j2[:, 0]
    # inverse-transpose Jacobians, jinv_t[s, r, e]
    jinv_t = np.array([[j2[:, 1], -j1[:, 1]], [-j2[:, 0], j1[:, 0]]]) / det
    ne = len(corners)
    basis = np.empty((3, ne) + values.shape)
    basis[0] = values
    basis[1:] = np.einsum("sre,qbr->seqb", jinv_t, ref_grads)
    return basis, rule.weights * det[:, None]
