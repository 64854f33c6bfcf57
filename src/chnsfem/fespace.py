"""The two periodic spaces of the scheme on criss-cross torus meshes.

P1 holds the phase field, the chemical potential, the inverse temperature
and the pressure; vector P2 holds the velocity (Taylor-Hood).  Provides
degree-of-freedom maps that respect the periodic identification, basis
tabulation at quadrature points, nodal interpolation, point evaluation,
exact nested prolongation and the skew-symmetric convection form.  Each
space holds its tabulation under the one rule, one basis table per
triangle type, built with the space; through it the space evaluates
fields and assembles vectors and matrices.

DOF ordering is deterministic: vertices first (the mesh's lexicographic
vertex order), then edge midpoints sorted lexicographically by their
wrapped coordinates.  Vector P2 coefficients are component-blocked,
``coefficients[c*num_scalar_dofs + k]`` holding component ``c`` at scalar
DOF ``k``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .mesh import TRIANGLE_TYPES, PeriodicTriMesh, QuadRule, locate, quad_rule

P1 = "P1-scalar"
P2_VECTOR = "P2-vector-2D"

_FAMILIES = (P1, P2_VECTOR)

#: degree of the one rule that assembly, diagnostics, norms and the
#: trilinear form share
QUAD_DEGREE = 6


@dataclass(frozen=True, eq=False)
class FunctionSpace:
    """A periodic space with its tabulation under the degree-QUAD_DEGREE
    rule: field evaluation at the quadrature points, and assembly against
    its test functions.

    ``basis`` and ``weights`` are :func:`tabulate`'s tables, one per
    triangle type: the triangles of one type are translates of each other,
    so they share it.  ``dofs[t, j]`` holds the scalar DOFs of the j-th
    triangle of type ``t``.  :meth:`fields` gathers the coefficients through
    ``dofs`` and takes one dense product per basis part; :meth:`integrate`,
    its transpose, multiplies back by the weighted table and adds each
    triangle's entries into its DOFs; :meth:`element_matrices` and
    :meth:`matrix_entries` do the same for matrices.  Assembly, diagnostics
    and error norms all go through this one tabulation, so every integral
    uses the same rule.
    """

    mesh: PeriodicTriMesh
    family: str
    dof_count: int
    #: per-triangle scalar DOF indices, shape (num_triangles, 3 or 6); int32,
    #: like the indices of the sparse matrices assembled from it
    element_dof_table: np.ndarray
    #: coordinates of the scalar interpolation nodes, shape (scalar_dofs, 2)
    node_coords: np.ndarray
    num_components: int
    scalar_dof_count: int
    # the tables, set once when the space is built
    basis: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    dofs: np.ndarray = field(init=False, repr=False)
    shape: tuple = field(init=False, repr=False)
    _weighted: np.ndarray = field(init=False, repr=False)  # integrate's table

    def __post_init__(self):
        basis, weights = tabulate(self, quad_rule(QUAD_DEGREE))
        tables = {"basis": basis, "weights": weights,
                  "_weighted": weights[:, None] * basis,
                  "dofs": np.ascontiguousarray(self.by_type(self.element_dof_table)),
                  "shape": (3, self.mesh.num_triangles, len(weights))}
        for name, value in tables.items():
            object.__setattr__(self, name, value)

    @property
    def is_vector(self) -> bool:
        return self.num_components == 2

    @staticmethod
    def by_type(per_triangle: np.ndarray, axis: int = 0) -> np.ndarray:
        """A view of ``per_triangle`` with the axes (type, triangle of that
        type) in place of its triangle axis ``axis``: triangle e is the
        (e // TRIANGLE_TYPES)-th of type e % TRIANGLE_TYPES."""
        shape = per_triangle.shape
        split = shape[:axis] + (-1, TRIANGLE_TYPES) + shape[axis + 1:]
        return per_triangle.reshape(split).swapaxes(axis, axis + 1)

    def fields(self, coeffs: np.ndarray) -> np.ndarray:
        """Values and derivatives at the points, shape ``lead + (3, ne, nq)``
        for coefficients of shape ``lead + (dof_count,)``; a vector space
        adds a component axis before the ``3``."""
        coeffs = np.asarray(coeffs)
        lead = coeffs.shape[:-1] + ((2,) if self.num_components == 2 else ())
        rows = coeffs.reshape(-1, self.scalar_dof_count)
        local = rows[:, self.dofs]  # (functions, types, triangles, nb)
        out = np.empty((len(rows),) + self.shape)
        out_by_type = self.by_type(out, axis=2)
        for k, table in enumerate(self.basis):
            np.matmul(local, table.swapaxes(1, 2), out=out_by_type[:, k])
        return out.reshape(lead + self.shape)

    def integrate(self, densities: np.ndarray) -> np.ndarray:
        """The transpose of :meth:`fields`: entry i is the weighted sum of
        ``densities[0]*N_i + densities[1]*dN_i/dx + densities[2]*dN_i/dy``
        over all points, for every leading index."""
        d = np.asarray(densities)
        lead = d.shape[:-3 - (self.num_components == 2)]
        d = self.by_type(d.reshape((-1,) + self.shape), axis=2)
        local = d[:, 0] @ self._weighted[0]
        local += d[:, 1] @ self._weighted[1]
        local += d[:, 2] @ self._weighted[2]
        # one bincount for all rows: row r's DOFs are shifted by r * n
        n = self.scalar_dof_count
        dofs = self.dofs.ravel() + n * np.arange(len(local))[:, None]
        return np.bincount(dofs.ravel(), local.ravel(), n * len(local)).reshape(lead + (-1,))

    def element_matrices(self, densities, parts, trial: FunctionSpace,
                         trial_part: int) -> np.ndarray:
        """The matrix counterpart of :meth:`integrate`: entry (a, b) of a
        triangle's matrix sums ``densities[k] * (part parts[k] of test
        function a) * (part trial_part of function b of trial)`` over k and
        the points, weighted.  Shape (types, triangles of that type, a*b):
        one dense product per type with its table of weighted basis products."""
        d = self.by_type(np.stack(densities, axis=1).reshape(self.shape[1], -1))
        table = np.einsum("q,ktqa,tqb->tkqab", self.weights, self.basis[parts],
                          trial.basis[trial_part])
        return d @ table.reshape(len(table), d.shape[-1], -1)

    def matrix_entries(self, blocks: np.ndarray, trial: FunctionSpace,
                       row_offset: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rows, cols, values)`` of :meth:`element_matrices`' ``blocks``
        in the global numbering: rows are this space's scalar DOFs plus
        ``row_offset``, columns the scalar DOFs of ``trial``.  Repeated
        (row, col) pairs are to be summed, as a COO matrix does."""
        shape = self.dofs.shape + trial.dofs.shape[-1:]  # (types, triangles, a, b)
        return ((row_offset + np.broadcast_to(self.dofs[..., None], shape)).ravel(),
                np.broadcast_to(trial.dofs[..., None, :], shape).ravel(), blocks.ravel())

    def squared_norms(self, coeffs: np.ndarray) -> tuple[float, float]:
        """(squared L2 norm, squared H1 seminorm) of one function."""
        sq = self.fields(coeffs) ** 2
        return (float(np.sum(self.weights * sq[..., 0, :, :])),
                float(np.sum(self.weights * sq[..., 1:, :, :])))


@dataclass(eq=False)
class FeFunction:
    """A coefficient vector tagged by the space it lives in."""

    space: FunctionSpace
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=float)
        if self.coefficients.shape != (self.space.dof_count,):
            raise ValueError(
                f"coefficient vector of length {self.coefficients.shape} does "
                f"not match dof count {self.space.dof_count}")


def _p1_values(bary: np.ndarray) -> np.ndarray:
    return np.asarray(bary, dtype=float)


def _p2_values(bary: np.ndarray) -> np.ndarray:
    b = np.asarray(bary, dtype=float)
    l0, l1, l2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([
        l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
        4 * l1 * l2, 4 * l2 * l0, 4 * l0 * l1,
    ], axis=-1)


def _p1_ref_grads(bary: np.ndarray) -> np.ndarray:
    nq = bary.shape[0]
    g = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    return np.broadcast_to(g, (nq, 3, 2)).copy()


def _p2_ref_grads(bary: np.ndarray) -> np.ndarray:
    # chain rule through the barycentric gradients on the reference element
    lg = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    nq = bary.shape[0]
    g = np.empty((nq, 6, 2))
    l = bary
    for i in range(3):
        g[:, i, :] = (4 * l[:, i, None] - 1) * lg[i]
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        g[:, 3 + k, :] = 4 * (l[:, i, None] * lg[j] + l[:, j, None] * lg[i])
    return g


def build_space(mesh: PeriodicTriMesh, family: str) -> FunctionSpace:
    """Build a periodic space; DOFs on identified faces coincide."""
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {_FAMILIES}")
    nv = mesh.num_vertices
    if family == P1:
        return FunctionSpace(mesh=mesh, family=family, dof_count=nv,
                             element_dof_table=mesh.triangles.astype(np.int32),
                             node_coords=mesh.vertices.copy(),
                             num_components=1, scalar_dof_count=nv)

    # edges (1,2), (2,0), (0,1) of each triangle, keyed by the wrapped
    # midpoint in units of h/2 (kx*2n + ky, so key order is lexicographic)
    n2 = 2 * mesh.n
    corners = mesh.tri_coords
    mid = np.rint((corners[:, [1, 2, 0]] + corners[:, [2, 0, 1]]) * mesh.n)
    mid = mid.astype(np.int64) % n2
    keys, edge_ids = np.unique(mid[..., 0] * n2 + mid[..., 1], return_inverse=True)
    table = np.empty((mesh.num_triangles, 6), dtype=np.int32)
    table[:, :3] = mesh.triangles
    table[:, 3:] = nv + edge_ids.reshape(-1, 3)
    edge_coords = np.column_stack(np.divmod(keys, n2)) / n2
    scalar_dofs = nv + len(keys)
    return FunctionSpace(mesh=mesh, family=family,
                         dof_count=2 * scalar_dofs,
                         element_dof_table=table,
                         node_coords=np.vstack([mesh.vertices, edge_coords]),
                         num_components=2, scalar_dof_count=scalar_dofs)


def tabulate(space: FunctionSpace, rule: QuadRule) -> tuple[np.ndarray, np.ndarray]:
    """Tabulate the basis at the points of the first triangle of each type
    (mesh.TRIANGLE_TYPES).

    Returns ``(basis, weights)``.  ``basis[k, t, q, b]`` is part ``k``
    (value, x- or y-derivative) of local basis function ``b`` at point ``q``
    of triangle ``t``, shape (3, TRIANGLE_TYPES, nq, nb).  ``weights[q]`` is
    the rule's weight times the Jacobian determinant h*h, which both types
    share bitwise, so ``sum(weights * f)`` over the points of every triangle
    integrates ``f`` over the domain.
    """
    bary = rule.points
    if space.family == P1:
        N = _p1_values(bary)
        ref_grads = _p1_ref_grads(bary)
    else:
        N = _p2_values(bary)
        ref_grads = _p2_ref_grads(bary)

    corners = space.mesh.tri_coords[:TRIANGLE_TYPES]
    j1 = corners[:, 1, :] - corners[:, 0, :]
    j2 = corners[:, 2, :] - corners[:, 0, :]
    det = j1[:, 0] * j2[:, 1] - j1[:, 1] * j2[:, 0]
    # inverse-transpose Jacobians, shape (types, 2, 2)
    jinv_t = np.empty((TRIANGLE_TYPES, 2, 2))
    jinv_t[:, 0, 0] = j2[:, 1]
    jinv_t[:, 0, 1] = -j1[:, 1]
    jinv_t[:, 1, 0] = -j2[:, 0]
    jinv_t[:, 1, 1] = j1[:, 0]
    jinv_t /= det[:, None, None]

    basis = np.empty((3, TRIANGLE_TYPES) + N.shape)
    basis[0] = N
    basis[1:] = np.einsum("tsr,qbr->stqb", jinv_t, ref_grads)
    return basis, rule.weights * det[0]


def interpolate(space: FunctionSpace, f) -> FeFunction:
    """Nodal interpolation of a periodic closure.

    Scalar spaces take ``f(x, y) -> values``; the vector space takes
    ``f(x, y) -> (u1, u2)``.  The closure must accept numpy arrays.
    """
    x, y = space.node_coords.T
    values = f(x, y) if space.is_vector else (f(x, y),)
    coeffs = np.concatenate([np.broadcast_to(np.asarray(v, dtype=float), x.shape)
                             for v in values])
    return FeFunction(space, coeffs)


def evaluate(f: FeFunction, points: np.ndarray) -> np.ndarray:
    """Evaluate at arbitrary points; periodic wrap applied first.

    Returns shape (npts,) for scalar spaces and (npts, 2) for the vector
    space.
    """
    space = f.space
    tri, bary = locate(space.mesh, points)
    basis = _p1_values(bary) if space.family == P1 else _p2_values(bary)
    dofs = space.element_dof_table[tri]
    values = np.sum(basis * f.coefficients.reshape(space.num_components, -1)[:, dofs],
                    axis=-1)
    return values.T if space.is_vector else values[0]


def prolong(f: FeFunction, fine_space: FunctionSpace) -> FeFunction:
    """Exact embedding of a coarse function into the once-refined space:
    the coarse function evaluated at the fine interpolation nodes."""
    coarse_space = f.space
    if fine_space.family != coarse_space.family:
        raise ValueError("prolongation requires matching families")
    if fine_space.mesh.n != 2 * coarse_space.mesh.n:
        raise ValueError(
            f"fine mesh must halve the coarse mesh size "
            f"(coarse n={coarse_space.mesh.n}, fine n={fine_space.mesh.n})")
    values = evaluate(f, fine_space.node_coords)
    return FeFunction(fine_space, values.T.ravel())  # component-blocked


def c_skw(u: FeFunction, v: FeFunction, w: FeFunction) -> float:
    """Skew-symmetric convection form 0.5*c(u,v,w) - 0.5*c(u,w,v).

    ``c(u,v,w)`` integrates ``((u . grad) v) . w``.  The combination
    vanishes for v == w even when u is not divergence-free.
    """
    for g in (v, w):
        if g.space is not u.space:
            raise ValueError("c_skw requires all arguments from the same space")
    if not u.space.is_vector:
        raise ValueError("c_skw is defined for vector functions")
    uf, vf, wf = (u.space.fields(g.coefficients) for g in (u, v, w))
    adv_v = np.einsum("leq,cleq->ceq", uf[:, 0], vf[:, 1:])
    adv_w = np.einsum("leq,cleq->ceq", uf[:, 0], wf[:, 1:])
    first = np.sum(u.space.weights * np.sum(adv_v * wf[:, 0], axis=0))
    second = np.sum(u.space.weights * np.sum(adv_w * vf[:, 0], axis=0))
    return float(0.5 * (first - second))
