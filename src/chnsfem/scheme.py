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

import ctypes
import math
import sys
import warnings
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np
import scipy.sparse as sp

from .fespace import (
    P1,
    P2_VECTOR,
    Evaluator,
    FeFunction,
    FunctionSpace,
    build_space,
    evaluator,
    interpolate,
)
from .la import NewtonSettings, SolverError, TrialRejected, lu_solve, newton
from .mesh import PeriodicTriMesh
from .physics import MaterialModel, SplitValidityWarning

STAR_OLD = "old"
STAR_NEW = "new"

# complex step of the Newton linearization: a power of two, so linear terms
# come out exact (Squire & Trapp, SIAM Rev. 40, 1998)
STEP = 2.0**-100

#: largest mesh (subdivisions per axis) the solver can index.  The Jacobian
#: is its largest sparse matrix, with 470 entries per mesh cell under star
#: rule "old": 8 P1-P1 blocks of 7, 12 P1-P2 blocks of 19, 4 P2-P2 blocks of
#: 46 and 2 for the multiplier.  Under "new" the momentum rows' frozen phi is
#: the unknown one: 2 more P2-P1 blocks, (u1, phi) and (u2, phi), make 508.
#: SuperLU takes C-int (int32) indices, so 508 n^2 < 2^31.
MAX_SUBDIVISIONS = math.isqrt(np.iinfo(np.intc).max // 508)

# pointwise channels of the linearization: (field key, trial field, basis
# part: 0 value, 1 d/dx, 2 d/dy)
_CHANNELS = [(key + suffix, trial, part)
             for key, trial in zip(("p", "m", "t", "u1", "u2"),
                                   ("phi", "mu", "theta", "u1", "u2"))
             for part, suffix in enumerate(("", "x", "y"))] + [("pi", "pi", 0)]


class PositivityError(TrialRejected):
    """Inverse temperature dropped to or below the positivity floor."""


@dataclass(frozen=True, eq=False)
class SpaceSet:
    """P1 for phi, mu, theta and the pressure; vector P2 for the velocity."""

    scalar: FunctionSpace
    velocity: FunctionSpace


def build_spaces(mesh: PeriodicTriMesh) -> SpaceSet:
    return SpaceSet(scalar=build_space(mesh, P1),
                    velocity=build_space(mesh, P2_VECTOR))


@dataclass(eq=False)
class State:
    """One time level of the coupled system."""

    time: float
    phi: FeFunction
    mu: FeFunction
    theta: FeFunction
    u: FeFunction
    pi: FeFunction

    def __post_init__(self):
        # read-only, so the fields a Stepper keeps for a level cannot go stale
        for f in (self.phi, self.mu, self.theta, self.u, self.pi):
            f.coefficients.setflags(write=False)

    @property
    def min_nodal_theta(self) -> float:
        return float(self.theta.coefficients.min())


@dataclass(frozen=True)
class StepperConfig:
    tau: float
    star_rule: str = STAR_OLD
    newton: NewtonSettings = field(default_factory=NewtonSettings)
    theta_floor: float = 1e-8

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("time step must be positive")
        if self.star_rule not in (STAR_OLD, STAR_NEW):
            raise ValueError(f"star rule must be 'old' or 'new', got {self.star_rule!r}")
        if not self.theta_floor >= 0:
            raise ValueError("positivity floor theta_floor must be nonnegative")


@dataclass(frozen=True)
class NewtonStats:
    iterations: int
    factorizations: int
    residual_norm: float
    lam: float
    div_residual_max: float
    extrapolated: bool  # Newton started from the extrapolated guess


def _kernels(new: dict, old: dict, lam, model: MaterialModel, cfg: StepperConfig):
    """Pointwise residual densities of the five coupled equations, with the
    frozen coefficients at the level ``cfg.star_rule`` names.

    Each scalar-test equation yields (S, Vx, Vy) with residual entries
    sum_q w * (S * N_i + Vx * dN_i/dx + Vy * dN_i/dy); the two momentum
    components play the same role against the vector basis.  Each is keyed
    by the unknown whose test functions it is tested with, in the order of
    the unknowns (phi, mu, theta, u1, u2, pi).  The densities are
    complex-analytic in the fields, so with one field of ``new`` stepped by
    i*STEP their imaginary parts over STEP are its pointwise derivatives to
    roundoff.
    """
    tau = cfg.tau
    star = old if cfg.star_rule == STAR_OLD else new
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
        "phi": (s1, v1x, v1y),
        "mu": (s2, v2x, v2y),
        "theta": (s3, v3x, v3y),
        "u1": (m1, t11, t12),
        "u2": (m2, t21, t22),
        "pi": (s5, None, None),
    }


def quadrature_fields(ev1: Evaluator, ev2: Evaluator, scalar: np.ndarray,
                      velocity: np.ndarray) -> dict:
    """The kernels' fields of one level at the quadrature points (the field
    keys of ``_CHANNELS``), from the stacked coefficients of phi, mu, theta
    and pi and the component-blocked velocity coefficients."""
    s = ev1.fields(scalar)
    out: dict = {"pi": s[3, 0]}
    for name, f in zip(("p", "m", "t", "u1", "u2"), (*s[:3], *ev2.fields(velocity))):
        out[name], out[name + "x"], out[name + "y"] = f
    return out


def _keep_freed_heap():
    """Fix glibc malloc's adaptive thresholds at their 64-bit maxima (heap
    blocks under 32 MiB, up to 64 MiB of freed heap kept mapped): left to
    follow the largest block freed so far, they let a residual's temporaries
    go back to the system and be faulted in again on each Newton iteration."""
    libc = ctypes.CDLL(None) if sys.platform.startswith("linux") else None
    if hasattr(libc, "mallopt"):
        libc.mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
        libc.mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


class Stepper:
    """Assembles and advances the coupled system on one fixed mesh, keeping
    the LU factor of each step for the next step's chord iteration and, in
    one memo, the quadrature fields of the last vector it evaluated: the
    last residual's, which serve the Jacobian at that vector and, once
    Newton returns it, the new level, the diagnostics and the next step.  So
    a run evaluates every level once.  The memo serves only that same array
    object; the vectors the stepper keeps are read-only, so Newton cannot
    change one in place.

    It also keeps up to five solution vectors: the packed start state and
    up to four solved levels.  Each Newton solve starts from their
    polynomial extrapolation to the new level (Hairer, Norsett & Wanner,
    Solving ODEs I), by their count: x_n from one, 2x_n - x_{n-1} from two,
    3x_n - 3x_{n-1} + x_{n-2} from three or four, and the cubic
    4x_n - 6x_{n-1} + 4x_{n-2} - x_{n-3} through the last four from five.
    So the start state (a projected mu, zero pi and lam), not a level of
    the scheme, never enters a cubic.  A guess with a nodal inverse
    temperature at or below ``theta_floor`` falls back to x_n.  The history
    is dropped with the factor after a failed step and restarts whenever
    the stepper gets a state other than its current level, the one whose
    vector ends the history.
    """

    def __init__(self, spaces: SpaceSet, model: MaterialModel, cfg: StepperConfig):
        _keep_freed_heap()
        self.spaces = spaces
        self.model = model
        self.cfg = cfg
        self.ev1 = evaluator(spaces.scalar)
        self.ev2 = evaluator(spaces.velocity)
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

        # field -> evaluator of its space (basis and element DOFs by type);
        # each equation tests the field in its own slot of x
        self._ev = dict(zip(self.off, (self.ev1,) * 3 + (self.ev2,) * 2 + (self.ev1,)))
        # integrals of the scalar test functions, used by the multiplier
        # column and the pressure-mean row
        unit = np.zeros(self.ev1.shape)
        unit[0] = 1.0
        self.p1_load = self.ev1.integrate(unit)
        self._factor = None
        self._current = None  # the state whose vector ends the history
        self._history = None  # the start vector, then up to four solved levels
        self._memo = None  # (x, fields) of the last vector evaluated

    # -- packing ---------------------------------------------------------

    def pack(self, state: State, lam: float = 0.0) -> np.ndarray:
        fields = (state.phi, state.mu, state.theta, state.u, state.pi)
        return np.concatenate([f.coefficients for f in fields] + [[lam]])

    def unpack(self, x: np.ndarray, time: float) -> tuple[State, float]:
        cuts = [self.off[k] for k in ("mu", "theta", "u1", "pi")] + [self.lam_index]
        spaces = (self.spaces.scalar,) * 3 + (self.spaces.velocity, self.spaces.scalar)
        return State(time, *(FeFunction(space, part) for space, part
                             in zip(spaces, np.split(x, cuts)))), float(x[self.lam_index])

    # -- field evaluation -------------------------------------------------

    def fields_from_vector(self, x: np.ndarray) -> dict:
        """The fields of ``x``, kept until another vector is evaluated:
        reused only for that same array object."""
        if self._memo is None or self._memo[0] is not x:
            u1 = self.off["u1"]
            self._memo = (x, quadrature_fields(self.ev1, self.ev2, x[self._scalar_rows],
                                               x[u1:u1 + 2 * self.n2]))
        return self._memo[1]

    def fields_from_state(self, state: State) -> dict:
        """The fields of ``state``.  The current level, the one the last
        step returned or the state this was last called with, is evaluated
        at its kept vector, through the memo.  Any other state is packed,
        becomes the current level and restarts the history."""
        if state is not self._current:
            x = self.pack(state)
            x.setflags(write=False)
            self._current, self._history = state, (x,)
        return self.fields_from_vector(self._history[-1])

    def _check_positivity(self, theta_at_qp: np.ndarray):
        tmin = float(theta_at_qp.min())
        if tmin <= self.cfg.theta_floor:
            raise PositivityError(
                f"inverse temperature reached {tmin:.3e} at a quadrature "
                f"point (floor {self.cfg.theta_floor:.0e})")

    # -- residual ---------------------------------------------------------

    def residual_vector(self, old_fields: dict, x: np.ndarray) -> np.ndarray:
        """Assemble the coupled residual at the guess vector ``x``."""
        new = self.fields_from_vector(x)
        self._check_positivity(new["t"])
        kern = _kernels(new, old_fields, float(x[self.lam_index]), self.model, self.cfg)

        # densities (value, x, y parts) against the scalar and vector bases
        scalar = np.zeros((4,) + self.ev1.shape)
        scalar[:3] = [kern["phi"], kern["mu"], kern["theta"]]
        scalar[3, 0] = kern["pi"][0]
        r1 = self.ev1.integrate(scalar)
        r2 = self.ev2.integrate(np.array([kern["u1"], kern["u2"]]))
        pi = x[self.off["pi"]:self.lam_index]
        return np.concatenate([r1[:3].ravel(), r2, r1[3], [self.p1_load @ pi]])

    # -- Jacobian ----------------------------------------------------------

    def jacobian_matrix(self, old_fields: dict, x: np.ndarray) -> sp.csc_matrix:
        """Linearization of the residual at ``x``, exact to roundoff: one
        complex-step evaluation of the kernels per channel.  It is built as
        column blocks, one per trial field in the order of the unknowns
        (:meth:`_field_columns`), so only one field's element blocks are
        alive at a time; the multiplier column is the last block."""
        plain = self.fields_from_vector(x)
        self._check_positivity(plain["t"])
        lam = float(x[self.lam_index])
        columns = [self._field_columns(trial_field, channels, plain, old_fields, lam)
                   for trial_field, channels in groupby(_CHANNELS, key=lambda c: c[1])]
        # multiplier column of the divergence rows
        columns.append(sp.csc_matrix(
            (self.p1_load, self.off["pi"] + np.arange(self.n1), [0, self.n1]),
            shape=(self.size, 1)))
        return sp.hstack(columns, format="csc")

    def _field_columns(self, trial_field: str, channels, plain: dict,
                       old_fields: dict, lam: float) -> sp.csc_matrix:
        """The Jacobian's columns of one trial field, from its channels: the
        derivative densities of each test field's equation give its element
        matrices (:meth:`Evaluator.element_matrices`), summed over the
        channels.  One COO-to-CSC conversion sums them; the pi columns also
        hold the pressure-mean row."""
        trial_ev = self._ev[trial_field]
        blocks = {}  # test field -> (types, elements, a*b)
        for key, _, part in channels:
            new = {**plain, key: plain[key] + 1j * STEP}
            kern = _kernels(new, old_fields, lam, self.model, self.cfg)
            for test_field, densities in kern.items():
                ks = [k for k, d in enumerate(densities)
                      if d is not None and np.any(d.imag)]
                if not ks:
                    continue
                # d(density k)/d(channel) against test part k, trial part `part`
                block = self._ev[test_field].element_matrices(
                    [densities[k].imag / STEP for k in ks], ks, trial_ev, part)
                if test_field in blocks:
                    block += blocks[test_field]
                blocks[test_field] = block
            del kern, densities  # before the next channel's kernels allocate

        entries = [self._ev[test_field].matrix_entries(block, trial_ev, self.off[test_field])
                   for test_field, block in blocks.items()]
        if trial_field == "pi":
            entries.append((np.full(self.n1, self.lam_index, dtype=np.intc),
                            np.arange(self.n1, dtype=np.intc), self.p1_load))
        rows, cols, vals = (np.concatenate(part) for part in zip(*entries))
        coo = sp.coo_matrix((vals, (rows, cols)),
                            shape=(self.size, trial_ev.scalar_dof_count))
        del blocks, block, entries, rows, cols, vals  # before the conversion allocates
        return coo.tocsc()

    # -- stepping -----------------------------------------------------------

    def step(self, old: State, step_index: int | None = None) -> tuple[State, NewtonStats]:
        old_fields = self.fields_from_state(old)
        x0, extrapolated = self._start(self._history)

        def J(x):
            self._factor = None  # newton dropped it: free it before assembly
            return self.jacobian_matrix(old_fields, x)

        try:
            result = newton(lambda x: self.residual_vector(old_fields, x), J, x0,
                            self.cfg.newton, factor=self._factor)
            result.x.setflags(write=False)
            new_state, lam = self.unpack(result.x, old.time + self.cfg.tau)
            if new_state.min_nodal_theta <= 0.0:
                raise SolverError(
                    f"nonpositive nodal inverse temperature "
                    f"{new_state.min_nodal_theta:.3e} after the step")
        except SolverError as exc:
            self._forget()
            exc.step_index = step_index
            raise
        self._factor, self._current = result.factor, new_state
        self._history = (*self._history[-4:], result.x)
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
            div_residual_max=float(np.abs(div_rows).max()),
            extrapolated=extrapolated)
        return new_state, stats

    def _forget(self):
        """Drop the factor, the history and the memo after a failed step."""
        self._factor = self._current = self._history = self._memo = None

    def _start(self, history: tuple) -> tuple[np.ndarray, bool]:
        """Newton's start and whether it is extrapolated, by the length of
        the history.  theta is P1, so a guess whose nodal theta stays above
        the floor passes the positivity check at every quadrature point."""
        if len(history) == 1:
            return history[-1], False
        if len(history) == 2:
            guess = 2.0 * history[-1] - history[-2]
        elif len(history) < 5:
            guess = 3.0 * (history[-1] - history[-2]) + history[-3]
        else:
            guess = 4.0 * (history[-1] + history[-3]) - 6.0 * history[-2] - history[-4]
        theta = guess[self.off["theta"]:self.off["theta"] + self.n1]
        if theta.min() <= self.cfg.theta_floor:
            return history[-1], False
        return guess, True


# -- module-level operations ------------------------------------------------


def initial_state(spaces: SpaceSet, model: MaterialModel, phi0, theta0, u0) -> State:
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

    ev = evaluator(spaces.scalar)
    n1 = spaces.scalar.dof_count
    rows, cols, vals = ev.matrix_entries(
        ev.element_matrices([np.ones(ev.shape[1:])], [0], ev, 0), ev, 0)
    mass = sp.coo_matrix((vals, (rows, cols)), shape=(n1, n1)).tocsc()

    p, t = ev.fields(np.stack([phi.coefficients, theta.coefficients]))
    b = ev.integrate(np.stack([model.dphi_psi(p[0], t[0]),
                               model.gamma * p[1], model.gamma * p[2]]))

    mu = FeFunction(spaces.scalar, lu_solve(mass, b))
    pi = FeFunction(spaces.scalar, np.zeros(n1))
    return State(time=0.0, phi=phi, mu=mu, theta=theta, u=u, pi=pi)

