"""Sparse direct solves and a Newton driver that reuses its LU factor.

A system has 12 n^2 + 1 unknowns: 49,153 at n = 64, and 196,609 at n = 128,
where runs complete too.  The one iterative setup tried, GMRES with an ILU
preconditioner, took 31 iterations and 0.82 s per solve at n = 64 on a
2-vCPU machine, against 47 ms for a solve with the sparse direct LU used
here.  It factors A with each row scaled by its
largest entry, in a minimum-degree order of the pattern of A + A^T, with
threshold pivoting (DIAG_PIVOT_THRESH); on the saddle-point Jacobians that
cuts the fill about 3x against COLAMD with partial pivoting.  The scaled
matrix shares A's index arrays, so scaling allocates one array of entries
and no copy of A.  Every solve is still checked against the unscaled A.

Factorization dominates, so Newton takes chord steps (Kelley, Solving
Nonlinear Equations with Newton's Method, SIAM 2003, ch. 2) on the factor
it holds while each cuts the exact residual norm CHORD_CONTRACTION-fold.
It starts with the factor the caller kept, if any; how many chord steps
that serves depends on how close the caller's start is to the root (the
time stepper extrapolates it from earlier levels).  A factor Newton builds
itself serves the next chord steps when its iteration took the norm from r
to r' with r' * (r'/r)**2 <= tol, i.e. when two more steps at that
contraction would reach the tolerance; otherwise the next iteration
factors again.  A chord trial that raises the norm, or whose residual
signals "retry with a shorter step" by raising TrialRejected, is discarded
with its factor.  Each iteration without a factor to chord on factors the
exact Jacobian and halves the step until a step of size s lowers the norm
to at most (1 - ARMIJO * s) times its old value without the retry signal
(Armijo's rule), which handles positivity-constrained nonlinearities.  When MAX_HALVINGS halvings find no
such step, the norm sits at its roundoff floor, and Newton stops instead
of refactoring.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import norm
from scipy.sparse.linalg import splu

#: relative residual bound guaranteed (and enforced) by Factor.solve
LU_RESIDUAL_BOUND = 1e-10

#: SuperLU keeps a diagonal pivot down to this fraction of its column's max
DIAG_PIVOT_THRESH = 1e-3

#: a chord step must cut the residual norm by this factor to keep the factor
CHORD_CONTRACTION = 5.0

#: step halvings a Newton iteration may take to find a sufficient decrease
MAX_HALVINGS = 8

#: a Newton step of size s must lower the residual norm by ARMIJO * s of it
ARMIJO = 1e-4


class SolverError(RuntimeError):
    """The solver cannot go on; ``step_index`` names the time step that
    failed, where there is one, and ``level`` the level of a convergence
    study that failed."""

    def __init__(self, message: str, step_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index
        self.level = None


class FactorizationError(SolverError):
    """Factorization failed or produced an unusable solution."""


class NonconvergenceError(SolverError):
    """Newton exhausted its iteration budget or its line search."""


class TrialRejected(SolverError):
    """A residual evaluation rejects its trial point: Newton shortens the
    step, and ends the solve when the start is rejected."""


@dataclass(frozen=True)
class NewtonSettings:
    """Absolute residual tolerance in the Euclidean norm of the residual vector."""

    tol: float = 1e-12
    max_iter: int = 30

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("Newton tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("Newton needs at least one iteration")


class Factor:
    """Sparse LU factor of the row-equilibrated A with threshold pivoting;
    ``solve`` guarantees ||A x - b|| / max(1, ||b||) <= LU_RESIDUAL_BOUND or
    raises FactorizationError (also for exactly singular matrices).  The
    row maxima and the scaled entries are read off A's CSC arrays, and the
    scaled matrix keeps A's ``indices`` and ``indptr``.  A matrix not in
    canonical format (sorted, unique row indices) gets a canonical copy,
    since SuperLU sorts those shared ``indices`` in place."""

    def __init__(self, A):
        self.A = A = sp.csc_matrix(A)
        if not A.has_canonical_format:
            self.A = A = A.copy()
            A.sum_duplicates()
        rmax = np.zeros(A.shape[0])
        np.maximum.at(rmax, A.indices, np.abs(A.data))
        self.row_scale = 1.0 / np.where(rmax > 0, rmax, 1.0)
        # on A's own pattern, with the Jacobian's stored zeros (dropping them adds fill)
        data = self.row_scale[A.indices]
        data *= A.data
        scaled = sp.csc_matrix((data, A.indices, A.indptr), shape=A.shape)
        try:
            self.lu = splu(scaled, permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=DIAG_PIVOT_THRESH)
        except RuntimeError as exc:  # SuperLU signals singularity this way
            raise FactorizationError(f"sparse LU failed: {exc}") from exc

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        x = self.lu.solve(self.row_scale * b)
        if not np.all(np.isfinite(x)):
            raise FactorizationError("sparse LU produced non-finite values")
        # BLAS nrm2 scales its sum: only a norm past 1.8e308 overflows; NaN fails
        resid = norm(self.A @ x - b, check_finite=False) / max(
            1.0, norm(b, check_finite=False))
        if not resid <= LU_RESIDUAL_BOUND:
            raise FactorizationError(
                f"solution rejected: relative residual {resid:.3e} exceeds "
                f"{LU_RESIDUAL_BOUND:.0e} (matrix numerically singular?)")
        return x


def lu_solve(A, b: np.ndarray) -> np.ndarray:
    """Solve A x = b with a one-off Factor (same guarantee as Factor.solve)."""
    return Factor(A).solve(b)


@dataclass(frozen=True)
class NewtonResult:
    x: np.ndarray
    iterations: int
    residual_norm: float
    residual: np.ndarray
    factor: Factor | None  # the factor it ended with, for the next solve
    factorizations: int  # factors built during this solve


def newton(residual, jacobian, x0: np.ndarray, settings: NewtonSettings,
           factor: Factor | None = None) -> NewtonResult:
    """Newton iteration on residual(x) = 0, with chord steps on ``factor``
    and on the factors it builds (see the module docstring).

    A residual evaluation raises TrialRejected to reject a trial point; the
    line search then shortens the step.  The start ``x0`` is no trial: an
    exception its residual raises ends the solve.  ``x0`` is never written
    to.  Raises NonconvergenceError when the tolerance is not met within
    ``settings.max_iter`` iterations or a Newton step's line search finds no
    sufficient decrease, and propagates factorization failures.
    """
    x = np.asarray(x0, dtype=float)
    r = np.asarray(residual(x), dtype=float)
    # scaled nrm2, as in Factor.solve: a norm is finite up to 1.8e308
    rnorm = float(norm(r, check_finite=False))
    it = factorizations = 0
    chord = factor is not None
    while rnorm > settings.tol and it < settings.max_iter:
        if chord:
            try:
                trial = x + factor.solve(-r)
                r_trial = np.asarray(residual(trial), dtype=float)
                rnorm_trial = float(norm(r_trial, check_finite=False))
            except TrialRejected:
                rnorm_trial = np.inf
            if not (CHORD_CONTRACTION * rnorm_trial <= rnorm and rnorm_trial < rnorm):
                factor, chord = None, False  # too slow or rejected: stop reusing it
            if not rnorm_trial < rnorm:
                continue  # rejected: x stays, no iteration spent
            accepted = (trial, r_trial, rnorm_trial)
        else:
            factor = None  # release the previous factor before assembling anew
            factor = Factor(jacobian(x))
            factorizations += 1
            dx = factor.solve(-r)
            scale = 1.0
            for halving in range(MAX_HALVINGS + 1):
                trial = x + scale * dx
                try:
                    r_trial = np.asarray(residual(trial), dtype=float)
                except TrialRejected:
                    if halving == MAX_HALVINGS:
                        raise
                    scale *= 0.5
                    continue
                rnorm_trial = float(norm(r_trial, check_finite=False))
                if rnorm_trial <= (1.0 - ARMIJO * scale) * rnorm:
                    accepted = (trial, r_trial, rnorm_trial)
                    chord = rnorm_trial * (rnorm_trial / rnorm) ** 2 <= settings.tol
                    break
                scale *= 0.5
            else:
                raise NonconvergenceError(
                    f"Newton stalled at residual norm {rnorm:.3e} above tolerance "
                    f"{settings.tol:.3e}: {MAX_HALVINGS} step halvings found no decrease")
        x, r, rnorm = accepted
        it += 1
    if rnorm <= settings.tol:
        return NewtonResult(x=x, iterations=it, residual_norm=rnorm,
                            residual=r, factor=factor,
                            factorizations=factorizations)
    raise NonconvergenceError(
        f"Newton did not reach tolerance {settings.tol:.3e} within "
        f"{settings.max_iter} iterations (residual norm {rnorm:.3e})")
