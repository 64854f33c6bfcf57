"""Material model: free energy with convex-concave split, internal energy,
entropy, viscosity and mobility, plus self-validation of the structural
assumptions the scheme relies on.

All callables are pure pointwise functions of (phi, theta) (entropy also
takes g2 = |grad phi|^2) and must be complex-analytic numpy arithmetic:
assembly evaluates them on real arrays for residuals and on complex-stepped
arrays for exact Jacobians.  abs, comparisons, np.real, np.maximum or
np.where would silently drop derivatives from the Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class SplitValidityWarning(UserWarning):
    """Temperatures have left the region where the convex-concave split is valid."""


def _as_block(value) -> np.ndarray:
    """Normalize a mobility block to a symmetric 2x2 array."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return float(arr) * np.eye(2)
    if arr.shape != (2, 2):
        raise ValueError(f"mobility block must be scalar or 2x2, got shape {arr.shape}")
    if np.abs(arr - arr.T).max() > 1e-14 * max(1.0, np.abs(arr).max()):
        raise ValueError("mobility blocks must be symmetric")
    return arr


@dataclass(frozen=True, eq=False)
class MaterialModel:
    """Closed-form material data for the coupled phase/energy/flow system.

    ``psi_vex`` and ``psi_cav`` split the gradient-free free-energy density
    ``psi`` into a part convex in phi and a part concave in phi (for
    admissible temperatures); ``dphi_psi_vex`` and ``dphi_psi_cav`` are
    their phi-derivatives.  ``e`` is the internal energy density, ``s`` the
    entropy density, ``eta`` the viscosity, and L11/L12/L22 the constant
    mobility blocks.  ``split_theta_floor`` marks the inverse temperature
    below which the split loses convexity (None disables the check).
    """

    gamma: float
    psi: Callable
    psi_vex: Callable
    psi_cav: Callable
    dphi_psi_vex: Callable
    dphi_psi_cav: Callable
    e: Callable
    s: Callable
    eta: Callable
    L11: np.ndarray
    L12: np.ndarray
    L22: np.ndarray
    split_theta_floor: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "L11", _as_block(self.L11))
        object.__setattr__(self, "L12", _as_block(self.L12))
        object.__setattr__(self, "L22", _as_block(self.L22))

    def dphi_psi(self, phi, theta):
        """Full phi-derivative of psi (the split telescopes)."""
        return self.dphi_psi_vex(phi, theta) + self.dphi_psi_cav(phi, theta)

    def mobility_matrix(self) -> np.ndarray:
        """The assembled 4x4 diffusion matrix [[L11, -L12], [-L12, L22]]."""
        return np.block([[self.L11, -self.L12], [-self.L12, self.L22]])


def default_model(gamma: float = 1e-3, mobility: float = 1e-2,
                  eta_min: float = 1e-3, eta_quad: float = 1.0 / 40.0) -> MaterialModel:
    """The benchmark model shipped with the solver.

    psi = log(theta) + (2 theta - 1) W(phi) with the double well
    W = phi^2 (1-phi)^2, e = 1/theta + 2 W, s = 1 - log(theta) + W
    - gamma/2 |grad phi|^2, eta = eta_min + eta_quad (phi+1)^2, and an
    isotropic constant mobility.

    The double well splits as W + phi^2/2 (convex: its second derivative is
    3 (2 phi - 1)^2 >= 0) minus the quadratic phi^2/2; log(theta) rides with
    the convex part, where it does not affect phi-convexity.  The split is
    convex/concave only while 2 theta - 1 > 0.
    """

    def w(phi):
        return phi * phi * (1.0 - phi) * (1.0 - phi)

    def psi(phi, theta):
        return np.log(theta) + (2.0 * theta - 1.0) * w(phi)

    def psi_vex(phi, theta):
        poly = phi * phi * (phi * phi - 2.0 * phi + 1.5)
        return np.log(theta) + (2.0 * theta - 1.0) * poly

    def psi_cav(phi, theta):
        return -(2.0 * theta - 1.0) * 0.5 * phi * phi

    def dphi_psi_vex(phi, theta):
        return (2.0 * theta - 1.0) * (4.0 * phi**3 - 6.0 * phi * phi + 3.0 * phi)

    def dphi_psi_cav(phi, theta):
        return -(2.0 * theta - 1.0) * phi

    def e(phi, theta):
        return 1.0 / theta + 2.0 * w(phi)

    def s(phi, theta, g2):
        return 1.0 - np.log(theta) + w(phi) - 0.5 * gamma * g2

    def eta(phi, theta):
        return eta_min + eta_quad * (phi + 1.0) * (phi + 1.0)

    return MaterialModel(
        gamma=gamma,
        psi=psi, psi_vex=psi_vex, psi_cav=psi_cav,
        dphi_psi_vex=dphi_psi_vex, dphi_psi_cav=dphi_psi_cav,
        e=e, s=s, eta=eta,
        L11=mobility, L12=0.0, L22=mobility,
        split_theta_floor=0.5,
    )


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""

    def __str__(self):
        status = "pass" if self.passed else "FAIL"
        out = f"[{status}] {self.name}: worst violation {self.worst:.3e} (tol {self.tolerance:.0e})"
        return out + (f" -- {self.detail}" if self.detail else "")


@dataclass(frozen=True)
class ValidationReport:
    checks: list[ValidationCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self):
        return "\n".join(str(c) for c in self.checks)


_FD_STEP = 1e-5


def _fd_dtheta(f, phi, theta, h=_FD_STEP):
    return (f(phi, theta + h) - f(phi, theta - h)) / (2.0 * h)


def _fd_d2(f, x_name, phi, theta, h=1e-4):
    if x_name == "phi":
        return (f(phi + h, theta) - 2.0 * f(phi, theta) + f(phi - h, theta)) / h**2
    return (f(phi, theta + h) - 2.0 * f(phi, theta) + f(phi, theta - h)) / h**2


def validate_model(model: MaterialModel) -> ValidationReport:
    """Check the structural assumptions and thermodynamic identities.

    Samples 2000 points (phi, theta, |grad phi|^2) uniformly from
    [-0.5, 1.5] x [0.55, 2] x [0, 4], with a fixed seed.  Report-only:
    every check records its worst violation, nothing raises.
    """
    rng = np.random.default_rng(0)
    phi = rng.uniform(-0.5, 1.5, size=2000)
    theta = rng.uniform(0.55, 2.0, size=2000)
    g2 = rng.uniform(0.0, 4.0, size=2000)
    checks = []

    # (A1) positive interface parameter
    checks.append(ValidationCheck(
        "A1 interface parameter positive", model.gamma > 0,
        worst=max(0.0, -model.gamma), tolerance=0.0,
        detail=f"gamma = {model.gamma:g}"))

    # (A2) strictly positive viscosity
    eta_min = float(np.min(model.eta(phi, theta)))
    checks.append(ValidationCheck(
        "A2 viscosity strictly positive", eta_min > 0,
        worst=max(0.0, -eta_min), tolerance=0.0,
        detail=f"min eta = {eta_min:g}"))

    # (A3) assembled diffusion matrix symmetric positive definite
    mob = model.mobility_matrix()
    sym_dev = float(np.abs(mob - mob.T).max())
    eigs = np.linalg.eigvalsh(0.5 * (mob + mob.T))
    min_eig = float(eigs.min())
    checks.append(ValidationCheck(
        "A3 diffusion matrix SPD", sym_dev <= 1e-14 and min_eig > 0,
        worst=max(sym_dev, -min_eig, 0.0), tolerance=0.0,
        detail=f"min eigenvalue = {min_eig:g}"))

    # (A4) concavity of psi in theta
    d2t = _fd_d2(model.psi, "theta", phi, theta)
    worst_concave = float(np.max(d2t))
    checks.append(ValidationCheck(
        "A4 psi concave in theta", worst_concave <= 1e-6,
        worst=max(worst_concave, 0.0), tolerance=1e-6))

    # (A4) convex/concave split in phi
    d2vex = _fd_d2(model.psi_vex, "phi", phi, theta)
    d2cav = _fd_d2(model.psi_cav, "phi", phi, theta)
    worst_split = float(max(np.max(-d2vex), np.max(d2cav)))
    checks.append(ValidationCheck(
        "A4 split convex/concave in phi", worst_split <= 1e-6,
        worst=max(worst_split, 0.0), tolerance=1e-6))

    # identity: e equals the theta-derivative of the free energy
    fd_e = _fd_dtheta(model.psi, phi, theta)
    worst_e = float(np.max(np.abs(model.e(phi, theta) - fd_e)))
    checks.append(ValidationCheck(
        "identity e = dpsi/dtheta", worst_e <= 1e-7, worst=worst_e,
        tolerance=1e-7))

    # identity: s = theta e - psi - gamma/2 g2
    s_alg = theta * model.e(phi, theta) - model.psi(phi, theta) - 0.5 * model.gamma * g2
    worst_s = float(np.max(np.abs(model.s(phi, theta, g2) - s_alg)))
    checks.append(ValidationCheck(
        "identity s = theta*e - free energy", worst_s <= 1e-12, worst=worst_s,
        tolerance=1e-12))

    # split consistency: vex + cav reproduces psi
    worst_split_sum = float(np.max(np.abs(
        model.psi_vex(phi, theta) + model.psi_cav(phi, theta) - model.psi(phi, theta))))
    checks.append(ValidationCheck(
        "split consistency psi_vex + psi_cav = psi", worst_split_sum <= 1e-13,
        worst=worst_split_sum, tolerance=1e-13))

    return ValidationReport(checks=checks)
