"""Uniform periodic triangulations of the unit square and simplex quadrature.

The computational domain is the unit square with opposite faces identified,
i.e. a flat 2-torus.  Meshes are criss-cross: each cell of an n-by-n grid is
split along the diagonal from its lower-left to its upper-right corner.  The
fixed diagonal direction makes refinement nested and keeps every derived
degree-of-freedom ordering reproducible between runs.

Quadrature is one symmetric Gauss rule of degree 6 with positive weights,
the one the solver integrates everything with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: triangle e is of type e % TRIANGLE_TYPES: the lower (0) or the upper (1)
#: triangle of its cell.  The triangles of one type are translates of
#: triangle 0 or 1, so whatever depends only on a triangle's shape, such as
#: its basis tabulation, is that triangle's.  Both types have the Jacobian
#: determinant h*h, bitwise, so they share their quadrature weights
TRIANGLE_TYPES = 2


@dataclass(frozen=True, eq=False)
class PeriodicTriMesh:
    """Criss-cross triangulation of the unit square viewed as a torus.

    Attributes
    ----------
    n : int
        Subdivisions per axis; the mesh size is h = 1/n.
    vertices : ndarray, shape (n*n, 2)
        Unique periodic vertex coordinates in [0,1)^2, ordered
        lexicographically by (x, y).
    triangles : ndarray, shape (2*n*n, 3)
        Periodic vertex indices of each triangle, counterclockwise.
        Triangle 2*(i*n + j) is the lower triangle (a, b, c) of cell
        (i, j) and triangle 2*(i*n + j) + 1 its upper triangle (a, c, d),
        where a, b, c, d are the cell's corners counterclockwise from
        (i*h, j*h).  Vertex i*n + j sits at (i*h, j*h).  So the triangle
        types of :data:`TRIANGLE_TYPES` alternate.
    tri_coords : ndarray, shape (2*n*n, 3, 2)
        Unwrapped corner coordinates of each triangle.  Corners of cells
        touching the right/top faces have coordinates up to 1; the index
        arrays identify them with the opposite face.  Being grid indices
        times h, they make the triangles of one type bitwise translates
        when n is a power of two, and to a few ulps otherwise.
    """

    n: int
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
    to the reference area 1/2 and are strictly positive for the shipped
    rule.
    """

    points: np.ndarray
    weights: np.ndarray


def build_uniform(n: int) -> PeriodicTriMesh:
    """Build the n-by-n criss-cross triangulation of the periodic unit square."""
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"subdivision count must be a positive integer, got {n!r}")
    n = int(n)
    h = 1.0 / n

    # row i*n + j holds (i, j): cell (i, j) and vertex i*n + j, which is
    # lexicographic in (x, y) = (i*h, j*h)
    ij = np.column_stack(np.divmod(np.arange(n * n), n))
    vertices = ij * h

    # grid offsets of the corners of each cell's lower triangle (a, b, c),
    # below the diagonal a-c, and of its upper triangle (a, c, d)
    offsets = np.array([[(0, 0), (1, 0), (1, 1)], [(0, 0), (1, 1), (0, 1)]])
    grid = (ij[:, None, None, :] + offsets).reshape(-1, 3, 2)
    triangles = (grid[..., 0] % n) * n + grid[..., 1] % n
    tri_coords = grid * h

    return PeriodicTriMesh(n=n, vertices=vertices, triangles=triangles,
                           tri_coords=tri_coords)


def locate(mesh: PeriodicTriMesh, points: np.ndarray):
    """Map points to (triangle index, barycentric coordinates): the inverse
    of the numbering above, after the periodic wrap."""
    s = np.mod(np.asarray(points, dtype=float), 1.0) * mesh.n
    i, j = np.minimum(np.floor(s).astype(np.int64), mesh.n - 1).T
    xi, eta = s[:, 0] - i, s[:, 1] - j
    upper = eta > xi
    # lower triangle (a, b, c): (1-xi, xi-eta, eta); upper (a, c, d):
    # (1-eta, xi, eta-xi)
    bary = np.where(upper[:, None], np.column_stack([1.0 - eta, xi, eta - xi]),
                    np.column_stack([1.0 - xi, xi - eta, eta]))
    return 2 * (i * mesh.n + j) + upper, bary


def _orbit3(a: float, b: float) -> list[tuple[float, float, float]]:
    return [(a, b, b), (b, a, b), (b, b, a)]


def _orbit6(a: float, b: float, c: float) -> list[tuple[float, float, float]]:
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


def quad_rule(degree: int) -> QuadRule:
    """Return a rule exact for all bivariate polynomials up to ``degree``,
    one of 1 to 6: the degree-6 rule, whichever."""
    if degree not in range(1, 7):
        raise ValueError(f"no quadrature rule of degree {degree}; shipped "
                         f"degrees are 1 to 6")
    # the 12-point symmetric Gauss rule of degree 6 (Dunavant, Int. J. Numer.
    # Meth. Eng. 21, 1985), all weights positive; tabulated weights are
    # normalized to unit total, rescaled here to the area 1/2
    points = (_orbit3(0.501426509658179, 0.249286745170910)
              + _orbit3(0.873821971016996, 0.063089014491502)
              + _orbit6(0.053145049844817, 0.310352451033784, 0.636502499121399))
    weights = np.repeat([0.116786275726379, 0.050844906370207, 0.082851075618374],
                        [3, 3, 6])
    return QuadRule(points=np.array(points), weights=0.5 * weights)


def reference_monomial_integral(a: int, b: int) -> float:
    """Exact integral of x^a y^b over the reference triangle."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
