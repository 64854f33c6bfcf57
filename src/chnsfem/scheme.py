"""Fully discrete coupled time stepper for the phase/energy/flow system.

One step advances (phi, mu, theta, u, pi) from level n to n+1 by a Newton
solve on the coupled nonlinear residual.  The discretization treats the
convex part of the driving potential implicitly and the concave part
explicitly, uses the midpoint velocity in the viscous, convective and
divergence terms, and evaluates the remaining frozen coefficients at one
fixed level ("old" or "new") throughout.  With the same quadrature rule in
every term, testing the discrete equations with 1, the midpoint velocity
and the new chemical potential/temperature makes the mass, total-energy
and entropy identities close to solver precision, which the diagnostics
module verifies each step.

The pressure mean is pinned by one scalar Lagrange multiplier appended to
the unknowns instead of eliminating a DOF, so the divergence block stays
symmetric in structure.  Unknown ordering: [phi | mu | theta | u | pi | lam].
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ._jets import Jet, derivative_of
from .fespace import (
    DEFAULT_QUAD_DEGREE,
    P1,
    P1_MEANFREE,
    P2_VECTOR,
    FeFunction,
    FunctionSpace,
    build_space,
    evaluator,
    interpolate,
)
from .la import (
    FactorizationError,
    NewtonSettings,
    NonconvergenceError,
    lu_solve,
    newton,
)
from .mesh import PeriodicTriMesh
from .physics import MaterialModel, SplitValidityWarning

STAR_OLD = "old"
STAR_NEW = "new"

# pointwise seed channels for the Newton linearization
_CHANNELS = ("p", "px", "py", "m", "mx", "my", "t", "tx", "ty",
             "u1", "u1x", "u1y", "u2", "u2x", "u2y", "pi")
_NCH = len(_CHANNELS)

# channel -> (trial field, basis part)
_TRIAL_OF_CHANNEL = [
    ("phi", "val"), ("phi", "gx"), ("phi", "gy"),
    ("mu", "val"), ("mu", "gx"), ("mu", "gy"),
    ("theta", "val"), ("theta", "gx"), ("theta", "gy"),
    ("u1", "val"), ("u1", "gx"), ("u1", "gy"),
    ("u2", "val"), ("u2", "gx"), ("u2", "gy"),
    ("pi", "val"),
]


class PositivityError(RuntimeError):
    """Inverse temperature dropped to or below the positivity floor."""

    def __init__(self, message: str, min_theta: float,
                 step_index: int | None = None):
        super().__init__(message)
        self.min_theta = min_theta
        self.step_index = step_index


class StepFailure(RuntimeError):
    """A time step could not be completed."""

    def __init__(self, message: str, step_index: int | None,
                 residual_norm: float | None):
        super().__init__(message)
        self.step_index = step_index
        self.residual_norm = residual_norm


@dataclass(frozen=True, eq=False)
class SpaceSet:
    scalar: FunctionSpace
    velocity: FunctionSpace
    pressure: FunctionSpace


def build_spaces(mesh: PeriodicTriMesh) -> SpaceSet:
    return SpaceSet(scalar=build_space(mesh, P1),
                    velocity=build_space(mesh, P2_VECTOR),
                    pressure=build_space(mesh, P1_MEANFREE))


@dataclass(eq=False)
class State:
    """One time level of the coupled system."""

    time: float
    phi: FeFunction
    mu: FeFunction
    theta: FeFunction
    u: FeFunction
    pi: FeFunction

    @property
    def min_nodal_theta(self) -> float:
        return float(self.theta.coefficients.min())

    def spaces(self) -> SpaceSet:
        return SpaceSet(scalar=self.phi.space, velocity=self.u.space,
                        pressure=self.pi.space)


@dataclass(frozen=True)
class StepperConfig:
    tau: float
    star_rule: str = STAR_OLD
    newton: NewtonSettings = field(default_factory=NewtonSettings)
    theta_floor: float = 1e-8
    quad_degree: int = DEFAULT_QUAD_DEGREE

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("time step must be positive")
        if self.star_rule not in (STAR_OLD, STAR_NEW):
            raise ValueError(f"star rule must be 'old' or 'new', got {self.star_rule!r}")


@dataclass(frozen=True)
class NewtonStats:
    iterations: int
    factorizations: int
    residual_norm: float
    lam: float
    div_residual_max: float


def _kernels(new: dict, old: dict, star: dict, lam, model: MaterialModel, tau: float):
    """Pointwise residual densities of the five coupled equations.

    Each scalar-test equation yields (S, Vx, Vy) with residual entries
    sum_q w * (S * N_i + Vx * dN_i/dx + Vy * dN_i/dy); the two momentum
    components play the same role against the vector basis.  ``new`` may
    hold jets, in which case every density carries its exact pointwise
    linearization.
    """
    g = model.gamma
    L11, L12, L22 = model.L11, model.L12, model.L22
    p, px, py = new["p"], new["px"], new["py"]
    m, mx, my = new["m"], new["mx"], new["my"]
    t, tx, ty = new["t"], new["tx"], new["ty"]
    u1, u2, pi = new["u1"], new["u2"], new["pi"]

    # midpoint velocity and its symmetric gradient
    um1 = 0.5 * (u1 + old["u1"])
    um2 = 0.5 * (u2 + old["u2"])
    gum1x = 0.5 * (new["u1x"] + old["u1x"])
    gum1y = 0.5 * (new["u1y"] + old["u1y"])
    gum2x = 0.5 * (new["u2x"] + old["u2x"])
    gum2y = 0.5 * (new["u2y"] + old["u2y"])
    d11 = gum1x
    d22 = gum2y
    d12 = 0.5 * (gum1y + gum2x)
    dsq = d11 * d11 + d22 * d22 + 2.0 * (d12 * d12)

    # frozen-level material data
    ps, ts, ms = star["p"], star["t"], star["m"]
    psx, psy = star["px"], star["py"]
    us1, us2 = star["u1"], star["u2"]
    eta_s = model.eta(ps, ts)
    s_s = model.s(ps, ts, psx * psx + psy * psy)
    a_s = s_s + ps * ms
    sig_c = g / ts
    sig11 = sig_c * psx * psx
    sig12 = sig_c * psx * psy
    sig22 = sig_c * psy * psy
    inv_t = 1.0 / t
    inv_ts2 = 1.0 / (ts * ts)

    # phase transport
    s1 = (p - old["p"]) / tau
    v1x = -(ps * um1) + (L11[0, 0] * mx + L11[0, 1] * my) \
        - (L12[0, 0] * tx + L12[0, 1] * ty)
    v1y = -(ps * um2) + (L11[1, 0] * mx + L11[1, 1] * my) \
        - (L12[1, 0] * tx + L12[1, 1] * ty)

    # chemical potential with split driving force
    s2 = m - (model.dphi_psi_vex(p, t) + model.dphi_psi_cav(old["p"], t))
    v2x = -(g * px)
    v2y = -(g * py)

    # internal energy balance
    cx = ps * inv_t * mx - inv_t * (sig11 * tx + sig12 * ty)
    cy = ps * inv_t * my - inv_t * (sig12 * tx + sig22 * ty)
    e_new = model.e(p, t)
    e_old = model.e(old["p"], old["t"])
    s3 = (e_new - e_old) / tau - eta_s * dsq - (cx * um1 + cy * um2) \
        + a_s * inv_ts2 * (um1 * tx + um2 * ty)
    v3x = (L12[0, 0] * mx + L12[0, 1] * my) - (L22[0, 0] * tx + L22[0, 1] * ty) \
        - (sig11 * um1 + sig12 * um2) - a_s * inv_ts2 * (t * um1)
    v3y = (L12[1, 0] * mx + L12[1, 1] * my) - (L22[1, 0] * tx + L22[1, 1] * ty) \
        - (sig12 * um1 + sig22 * um2) - a_s * inv_ts2 * (t * um2)

    # momentum
    k1 = cx - a_s * inv_ts2 * tx
    k2 = cy - a_s * inv_ts2 * ty
    m1 = (u1 - old["u1"]) / tau + 0.5 * (us1 * gum1x + us2 * gum1y) + k1
    m2 = (u2 - old["u2"]) / tau + 0.5 * (us1 * gum2x + us2 * gum2y) + k2
    t11 = eta_s * d11 - pi - 0.5 * (um1 * us1)
    t12 = eta_s * d12 - 0.5 * (um1 * us2)
    t21 = eta_s * d12 - 0.5 * (um2 * us1)
    t22 = eta_s * d22 - pi - 0.5 * (um2 * us2)

    # divergence constraint (lam pins the pressure mean)
    s5 = gum1x + gum2y + lam

    return {
        "phase": (s1, v1x, v1y),
        "pot": (s2, v2x, v2y),
        "energy": (s3, v3x, v3y),
        "mom1": (m1, t11, t12),
        "mom2": (m2, t21, t22),
        "div": (s5, None, None),
    }


class Stepper:
    """Assembles and advances the coupled system on one fixed mesh, keeping
    the LU factor of each step for the next step's chord iteration."""

    def __init__(self, mesh: PeriodicTriMesh, spaces: SpaceSet,
                 model: MaterialModel, cfg: StepperConfig):
        self.mesh = mesh
        self.spaces = spaces
        self.model = model
        self.cfg = cfg
        self.ev1 = evaluator(spaces.scalar, cfg.quad_degree)
        self.ev2 = evaluator(spaces.velocity, cfg.quad_degree)
        self.tab1 = self.ev1.tab
        self.tab2 = self.ev2.tab
        self.w = self.ev1.weights
        self.n1 = spaces.scalar.dof_count
        self.n2 = spaces.velocity.scalar_dof_count

        n1, n2 = self.n1, self.n2
        self.off = {"phi": 0, "mu": n1, "theta": 2 * n1, "u1": 3 * n1,
                    "u2": 3 * n1 + n2, "pi": 3 * n1 + 2 * n2}
        self.lam_index = 4 * n1 + 2 * n2
        self.size = self.lam_index + 1
        # rows of x holding the scalar-space fields phi, mu, theta, pi
        self._scalar_rows = np.r_[0:3 * n1,
                                  self.off["pi"]:self.lam_index].reshape(4, n1)

        d1 = spaces.scalar.element_dof_table
        d2 = spaces.velocity.element_dof_table
        self._test_map = {
            "phase": (self.tab1, d1, self.off["phi"]),
            "pot": (self.tab1, d1, self.off["mu"]),
            "energy": (self.tab1, d1, self.off["theta"]),
            "mom1": (self.tab2, d2, self.off["u1"]),
            "mom2": (self.tab2, d2, self.off["u2"]),
            "div": (self.tab1, d1, self.off["pi"]),
        }
        self._trial_map = {
            "phi": (self.tab1, d1, self.off["phi"]),
            "mu": (self.tab1, d1, self.off["mu"]),
            "theta": (self.tab1, d1, self.off["theta"]),
            "u1": (self.tab2, d2, self.off["u1"]),
            "u2": (self.tab2, d2, self.off["u2"]),
            "pi": (self.tab1, d1, self.off["pi"]),
        }
        # integrals of the scalar test functions, used by the multiplier
        # column and the pressure-mean row
        unit = np.zeros(self.ev1.shape)
        unit[0] = 1.0
        self.p1_load = self.ev1.integrate(unit)
        self._factor = None

    # -- packing ---------------------------------------------------------

    def pack(self, state: State, lam: float = 0.0) -> np.ndarray:
        x = np.empty(self.size)
        off, n1, n2 = self.off, self.n1, self.n2
        x[off["phi"]:off["phi"] + n1] = state.phi.coefficients
        x[off["mu"]:off["mu"] + n1] = state.mu.coefficients
        x[off["theta"]:off["theta"] + n1] = state.theta.coefficients
        x[off["u1"]:off["u1"] + 2 * n2] = state.u.coefficients
        x[off["pi"]:off["pi"] + n1] = state.pi.coefficients
        x[self.lam_index] = lam
        return x

    def unpack(self, x: np.ndarray, time: float) -> tuple[State, float]:
        off, n1, n2 = self.off, self.n1, self.n2
        state = State(
            time=time,
            phi=FeFunction(self.spaces.scalar, x[off["phi"]:off["phi"] + n1].copy()),
            mu=FeFunction(self.spaces.scalar, x[off["mu"]:off["mu"] + n1].copy()),
            theta=FeFunction(self.spaces.scalar, x[off["theta"]:off["theta"] + n1].copy()),
            u=FeFunction(self.spaces.velocity, x[off["u1"]:off["u1"] + 2 * n2].copy()),
            pi=FeFunction(self.spaces.pressure, x[off["pi"]:off["pi"] + n1].copy()),
        )
        return state, float(x[self.lam_index])

    # -- field evaluation -------------------------------------------------

    def fields_from_vector(self, x: np.ndarray) -> dict:
        off, n2 = self.off, self.n2
        scalar = self.ev1.fields(x[self._scalar_rows])
        velocity = self.ev2.fields(x[off["u1"]:off["u1"] + 2 * n2])
        out: dict = {"pi": scalar[3, 0]}
        for name, f in zip(("p", "m", "t", "u1", "u2"), (*scalar[:3], *velocity)):
            out[name], out[name + "x"], out[name + "y"] = f
        return out

    def fields_from_state(self, state: State) -> dict:
        return self.fields_from_vector(self.pack(state))

    def _check_positivity(self, theta_at_qp: np.ndarray,
                          step_index: int | None = None):
        tmin = float(theta_at_qp.min())
        if tmin <= self.cfg.theta_floor:
            raise PositivityError(
                f"inverse temperature reached {tmin:.3e} at a quadrature "
                f"point (floor {self.cfg.theta_floor:.0e})",
                min_theta=tmin, step_index=step_index)

    # -- residual ---------------------------------------------------------

    def residual_vector(self, old_fields: dict, x: np.ndarray,
                        step_index: int | None = None) -> np.ndarray:
        """Assemble the coupled residual at the guess vector ``x``."""
        new = self.fields_from_vector(x)
        self._check_positivity(new["t"], step_index)
        star = old_fields if self.cfg.star_rule == STAR_OLD else new
        lam = float(x[self.lam_index])
        kern = _kernels(new, old_fields, star, lam, self.model, self.cfg.tau)

        # densities (value, x, y parts) against the scalar and vector bases
        scalar = np.zeros((4,) + self.ev1.shape)
        scalar[:3] = [kern["phase"], kern["pot"], kern["energy"]]
        scalar[3, 0] = kern["div"][0]
        r1 = self.ev1.integrate(scalar)
        r2 = self.ev2.integrate(np.array([kern["mom1"], kern["mom2"]]))
        pi = x[self.off["pi"]:self.lam_index]
        return np.concatenate([r1[:3].ravel(), r2, r1[3], [self.p1_load @ pi]])

    # -- Jacobian ----------------------------------------------------------

    def jacobian_matrix(self, old_fields: dict, x: np.ndarray,
                        step_index: int | None = None) -> sp.csc_matrix:
        """Exact linearization of the residual at ``x``."""
        plain = self.fields_from_vector(x)
        self._check_positivity(plain["t"], step_index)
        jets = {name: Jet.seeded(plain[name], c, _NCH)
                for c, name in enumerate(_CHANNELS)}
        star = old_fields if self.cfg.star_rule == STAR_OLD else jets
        lam = float(x[self.lam_index])
        kern = _kernels(jets, old_fields, star, lam, self.model, self.cfg.tau)

        rows_list, cols_list, vals_list = [], [], []
        w = self.w
        for eq, (test_tab, test_dofs, row_off) in self._test_map.items():
            s, vx, vy = kern[eq]
            ds = derivative_of(s)
            dvx = derivative_of(vx) if vx is not None else None
            dvy = derivative_of(vy) if vy is not None else None
            for ch in range(_NCH):
                parts = []
                if ds is not None and np.any(ds[..., ch]):
                    parts.append((w * ds[..., ch])[..., None] * test_tab.N)
                if dvx is not None and np.any(dvx[..., ch]):
                    parts.append((w * dvx[..., ch])[..., None] * test_tab.grads[..., 0])
                if dvy is not None and np.any(dvy[..., ch]):
                    parts.append((w * dvy[..., ch])[..., None] * test_tab.grads[..., 1])
                if not parts:
                    continue
                rowpart = parts[0]
                for extra in parts[1:]:
                    rowpart = rowpart + extra
                trial_field, kind = _TRIAL_OF_CHANNEL[ch]
                trial_tab, trial_dofs, col_off = self._trial_map[trial_field]
                if kind == "val":
                    block = np.einsum("eqa,qb->eab", rowpart, trial_tab.N)
                elif kind == "gx":
                    block = np.einsum("eqa,eqb->eab", rowpart, trial_tab.grads[..., 0])
                else:
                    block = np.einsum("eqa,eqb->eab", rowpart, trial_tab.grads[..., 1])
                ne, na, nb = block.shape
                rows = np.broadcast_to((row_off + test_dofs)[:, :, None], (ne, na, nb))
                cols = np.broadcast_to((col_off + trial_dofs)[:, None, :], (ne, na, nb))
                rows_list.append(rows.ravel())
                cols_list.append(cols.ravel())
                vals_list.append(block.ravel())

        # multiplier column of the divergence rows and the pressure-mean row
        p1_rows = np.arange(self.n1)
        rows_list.append(self.off["pi"] + p1_rows)
        cols_list.append(np.full(self.n1, self.lam_index))
        vals_list.append(self.p1_load)
        rows_list.append(np.full(self.n1, self.lam_index))
        cols_list.append(self.off["pi"] + p1_rows)
        vals_list.append(self.p1_load)

        mat = sp.coo_matrix(
            (np.concatenate(vals_list),
             (np.concatenate(rows_list), np.concatenate(cols_list))),
            shape=(self.size, self.size))
        return mat.tocsc()

    # -- stepping -----------------------------------------------------------

    def step(self, old: State, step_index: int | None = None) -> tuple[State, NewtonStats]:
        old_fields = self.fields_from_state(old)
        x0 = self.pack(old, 0.0)

        def F(x):
            return self.residual_vector(old_fields, x, step_index)

        def J(x):
            self._factor = None  # newton dropped it: free it before assembly
            return self.jacobian_matrix(old_fields, x, step_index)

        try:
            result = newton(F, J, x0, self.cfg.newton,
                            retryable=(PositivityError,), factor=self._factor)
        except (NonconvergenceError, FactorizationError, PositivityError) as exc:
            self._factor = None
            norm = getattr(exc, "residual_norm", None)
            raise StepFailure(
                f"time step at t = {old.time:.6g} failed: {exc}",
                step_index=step_index, residual_norm=norm) from exc

        new_state, lam = self.unpack(result.x, old.time + self.cfg.tau)
        if new_state.min_nodal_theta <= 0.0:
            self._factor = None
            raise StepFailure(
                f"nonpositive nodal inverse temperature "
                f"{new_state.min_nodal_theta:.3e} after the step",
                step_index=step_index, residual_norm=result.residual_norm)
        self._factor = result.factor
        floor = self.model.split_theta_floor
        if floor is not None and new_state.min_nodal_theta <= floor + 1e-6:
            warnings.warn(
                f"minimum nodal inverse temperature "
                f"{new_state.min_nodal_theta:.6g} at or below {floor}: the "
                "convex-concave split has left its validity region",
                SplitValidityWarning, stacklevel=2)
        div_rows = result.residual[self.off["pi"]:self.off["pi"] + self.n1]
        stats = NewtonStats(
            iterations=result.iterations,
            factorizations=result.factorizations,
            residual_norm=result.residual_norm,
            lam=lam,
            div_residual_max=float(np.abs(div_rows).max()))
        return new_state, stats


# -- module-level operations ------------------------------------------------


def initial_state(mesh: PeriodicTriMesh, spaces: SpaceSet, model: MaterialModel,
                  phi0, theta0, u0, quad_degree: int = DEFAULT_QUAD_DEGREE) -> State:
    """Interpolate the initial data and project the chemical potential.

    The initial chemical potential solves the mass-matrix system
    <mu, xi> = gamma <grad phi, grad xi> + <dpsi/dphi(phi, theta), xi>
    against every scalar test function, and the initial pressure is zero.
    """
    phi = interpolate(spaces.scalar, phi0)
    theta = interpolate(spaces.scalar, theta0)
    if theta.coefficients.min() <= 0.0:
        raise ValueError(
            f"initial inverse temperature must be positive at every node "
            f"(min {theta.coefficients.min():.3e})")
    u = interpolate(spaces.velocity, u0)

    ev = evaluator(spaces.scalar, quad_degree)
    w, N = ev.weights, ev.tab.N
    dofs = spaces.scalar.element_dof_table
    n1 = spaces.scalar.dof_count

    local_mass = np.einsum("eq,qa,qb->eab", w, N, N)
    ne, na, _ = local_mass.shape
    rows = np.broadcast_to(dofs[:, :, None], (ne, na, na))
    cols = np.broadcast_to(dofs[:, None, :], (ne, na, na))
    mass = sp.coo_matrix((local_mass.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(n1, n1)).tocsc()

    p, t = ev.fields(np.stack([phi.coefficients, theta.coefficients]))
    b = ev.integrate(np.stack([model.dphi_psi(p[0], t[0]),
                               model.gamma * p[1], model.gamma * p[2]]))

    mu = FeFunction(spaces.scalar, lu_solve(mass, b))
    pi = FeFunction(spaces.pressure, np.zeros(n1))
    return State(time=0.0, phi=phi, mu=mu, theta=theta, u=u, pi=pi)

