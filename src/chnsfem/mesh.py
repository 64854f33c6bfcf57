"""Uniform periodic triangulations of the unit square and simplex quadrature.

The computational domain is the unit square with opposite faces identified,
i.e. a flat 2-torus.  Meshes are criss-cross: each cell of an n-by-n grid is
split along the diagonal from its lower-left to its upper-right corner.  The
fixed diagonal direction makes refinement nested and keeps every derived
degree-of-freedom ordering reproducible between runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

#: highest quadrature degree served by :func:`quad_rule`
MAX_QUAD_DEGREE = 20


class UnsupportedDegreeError(ValueError):
    """Raised when no quadrature rule of the requested degree is shipped."""


@dataclass(frozen=True, eq=False)
class PeriodicTriMesh:
    """Criss-cross triangulation of the unit square viewed as a torus.

    Attributes
    ----------
    n : int
        Subdivisions per axis.
    h : float
        Mesh size, ``1/n``.
    vertices : ndarray, shape (n*n, 2)
        Unique periodic vertex coordinates in [0,1)^2, ordered
        lexicographically by (x, y).
    triangles : ndarray, shape (2*n*n, 3)
        Periodic vertex indices of each triangle, counterclockwise.
    tri_coords : ndarray, shape (2*n*n, 3, 2)
        Unwrapped corner coordinates of each triangle.  Corners of cells
        touching the right/top faces have coordinates up to 1; the index
        arrays identify them with the opposite face.
    """

    n: int
    h: float
    vertices: np.ndarray
    triangles: np.ndarray
    tri_coords: np.ndarray

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]


@dataclass(frozen=True, eq=False)
class QuadRule:
    """Quadrature on the reference triangle {(0,0),(1,0),(0,1)}.

    ``points`` are barycentric coordinates, shape (nq, 3); ``weights`` sum
    to the reference area 1/2 and are strictly positive for every shipped
    rule.  ``degree`` is the highest total polynomial degree integrated
    exactly.
    """

    points: np.ndarray
    weights: np.ndarray
    degree: int


def build_uniform(n: int) -> PeriodicTriMesh:
    """Build the n-by-n criss-cross triangulation of the periodic unit square."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"subdivision count must be a positive integer, got {n!r}")
    n = int(n)
    h = 1.0 / n

    ij = np.arange(n)
    # vertex id = i*n + j is lexicographic in (x, y) = (i*h, j*h)
    vx, vy = np.meshgrid(ij, ij, indexing="ij")
    vertices = np.column_stack([vx.ravel() * h, vy.ravel() * h])

    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    tri_coords = np.empty((2 * n * n, 3, 2), dtype=float)

    def vid(i: int, j: int) -> int:
        return (i % n) * n + (j % n)

    k = 0
    for i in range(n):
        for j in range(n):
            a = (i * h, j * h)
            b = ((i + 1) * h, j * h)
            c = ((i + 1) * h, (j + 1) * h)
            d = (i * h, (j + 1) * h)
            # lower triangle: below the cell diagonal a-c
            triangles[k] = (vid(i, j), vid(i + 1, j), vid(i + 1, j + 1))
            tri_coords[k] = (a, b, c)
            # upper triangle
            triangles[k + 1] = (vid(i, j), vid(i + 1, j + 1), vid(i, j + 1))
            tri_coords[k + 1] = (a, c, d)
            k += 2

    return PeriodicTriMesh(n=n, h=h, vertices=vertices, triangles=triangles,
                           tri_coords=tri_coords)


def _orbit3(a: float, b: float) -> list[tuple[float, float, float]]:
    return [(a, b, b), (b, a, b), (b, b, a)]


def _orbit6(a: float, b: float, c: float) -> list[tuple[float, float, float]]:
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


def _symmetric_rule(orbits) -> tuple[np.ndarray, np.ndarray]:
    points, weights = [], []
    for pts, w in orbits:
        points.extend(pts)
        weights.extend([w] * len(pts))
    # tabulated weights are normalized to unit total; rescale to area 1/2
    return np.array(points), 0.5 * np.array(weights)


# Classic symmetric Gauss rules for the triangle with strictly positive
# weights.  Degrees 3 and 4 share the 6-point rule (the minimal degree-3
# rules carry a negative weight, which would break positivity-sensitive
# structure checks).
_SYMMETRIC_RULES = {
    1: [( [(1/3, 1/3, 1/3)], 1.0 )],
    2: [( _orbit3(2/3, 1/6), 1/3 )],
    4: [
        ( _orbit3(0.108103018168070, 0.445948490915965), 0.223381589678011 ),
        ( _orbit3(0.816847572980459, 0.091576213509771), 0.109951743655322 ),
    ],
    5: [
        ( [(1/3, 1/3, 1/3)], 0.225 ),
        ( _orbit3(0.059715871789770, 0.470142064105115), 0.132394152788506 ),
        ( _orbit3(0.797426985353087, 0.101286507323456), 0.125939180544827 ),
    ],
    6: [
        ( _orbit3(0.501426509658179, 0.249286745170910), 0.116786275726379 ),
        ( _orbit3(0.873821971016996, 0.063089014491502), 0.050844906370207 ),
        ( _orbit6(0.053145049844817, 0.310352451033784, 0.636502499121399),
          0.082851075618374 ),
    ],
}


def _conical_rule(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi x Gauss-Legendre product rule on the collapsed square.

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
    return points, w


def quad_rule(degree: int) -> QuadRule:
    """Return a rule exact for all bivariate polynomials up to ``degree``."""
    if degree < 1:
        raise ValueError(f"quadrature degree must be >= 1, got {degree}")
    if degree > MAX_QUAD_DEGREE:
        raise UnsupportedDegreeError(
            f"no quadrature rule of degree {degree}; highest shipped degree "
            f"is {MAX_QUAD_DEGREE}")
    lookup = degree if degree != 3 else 4
    if lookup in _SYMMETRIC_RULES:
        points, weights = _symmetric_rule(_SYMMETRIC_RULES[lookup])
    else:
        points, weights = _conical_rule(degree)
    return QuadRule(points=points, weights=weights, degree=degree)


def reference_monomial_integral(a: int, b: int) -> float:
    """Exact integral of x^a y^b over the reference triangle."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
