"""A per-element reference tabulation for the tests.

Every triangle gets its own table, mapped from the reference element by the
affine map of its own corner coordinates ``mesh.tri_coords``.  The
evaluator keeps one table per triangle type instead, so the tests check its
tables, fields, integrals and Jacobian against this one.
"""

import numpy as np

from chnsfem.fespace import (
    P1,
    P1_MEANFREE,
    _p1_ref_grads,
    _p1_values,
    _p2_ref_grads,
    _p2_values,
)


def per_element_tabulation(space, rule):
    """``(basis, weights)`` of every triangle: ``basis[k, e, q, b]`` is part
    ``k`` (value, x- or y-derivative) of local basis function ``b`` at point
    ``q`` of triangle ``e``, and ``weights[e, q]`` the rule's weight scaled
    by the triangle's Jacobian determinant."""
    bary = rule.points
    if space.family in (P1, P1_MEANFREE):
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
