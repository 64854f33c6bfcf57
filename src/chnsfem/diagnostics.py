"""Per-step conservation and entropy-production diagnostics.

Every integral here uses the same quadrature rule as the assembly; mixing
rules would break the discrete identities at machine precision, since
their cancellations happen pointwise at the quadrature points.

The numerical dissipation of a step is evaluated as the residual
``<s_new - s_old, 1> - tau * D`` rather than from its mean-value-theorem
form, whose intermediate points exist but are not constructible; both are
equal by construction of the scheme, and the residual form is testable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fespace import evaluator
from .physics import MaterialModel
from .scheme import STAR_OLD, State, StepperConfig


class StructureViolationError(RuntimeError):
    """A discrete conservation or dissipation law failed beyond tolerance."""

    def __init__(self, message: str, value: float,
                 step_index: int | None = None):
        super().__init__(message)
        self.value = value
        self.step_index = step_index


#: tolerance below which a negative numerical dissipation is an error
D_NUM_FLOOR = -1e-10


@dataclass(frozen=True)
class DiagnosticsRecord:
    step: int
    time: float
    mass: float
    kinetic: float
    internal: float
    entropy: float
    tau_dissipation: float
    d_num: float
    newton_iters: int
    min_theta: float

    @property
    def total_energy(self) -> float:
        return self.kinetic + self.internal


def _evaluators(state: State, degree: int):
    spaces = state.spaces()
    return evaluator(spaces.scalar, degree), evaluator(spaces.velocity, degree)


def state_functionals(state: State, model: MaterialModel,
                      quad_degree: int = 6) -> tuple[float, float, float, float]:
    """(mass, kinetic energy, internal energy, entropy) of one level."""
    ev1, ev2 = _evaluators(state, quad_degree)
    w = ev1.weights
    p, t = ev1.fields(np.stack([state.phi.coefficients,
                                state.theta.coefficients]))
    u = ev2.fields(state.u.coefficients)
    mass = float(np.sum(w * p[0]))
    kinetic = float(np.sum(w * 0.5 * (u[0, 0]**2 + u[1, 0]**2)))
    internal = float(np.sum(w * model.e(p[0], t[0])))
    entropy = float(np.sum(w * model.s(p[0], t[0], p[1]**2 + p[2]**2)))
    return mass, kinetic, internal, entropy


def physical_dissipation(new: State, old: State, model: MaterialModel,
                         cfg: StepperConfig) -> float:
    """Entropy production rate of the step: viscous part weighted by the
    new inverse temperature plus the mobility quadratic form.

    Nonnegative whenever the mobility matrix is SPD and temperatures stay
    positive.
    """
    ev1, ev2 = _evaluators(new, cfg.quad_degree)
    w = ev1.weights
    star = old if cfg.star_rule == STAR_OLD else new
    ps, ts, tn, mn = ev1.fields(np.stack([
        star.phi.coefficients, star.theta.coefficients,
        new.theta.coefficients, new.mu.coefficients]))
    # midpoint velocity gradient, gum[c, l] = d_l u_c
    gu_new, gu_old = ev2.fields(np.stack([new.u.coefficients,
                                          old.u.coefficients]))[:, :, 1:]
    gum = 0.5 * (gu_new + gu_old)
    sym = 0.5 * (gum + np.swapaxes(gum, 0, 1))
    dsq = np.sum(sym**2, axis=(0, 1))
    viscous = np.sum(w * model.eta(ps[0], ts[0]) * dsq * tn[0])

    gm, gt = mn[1:], tn[1:]
    quad = np.einsum("eq,seq,st,teq->", w, gm, model.L11, gm)
    quad -= 2.0 * np.einsum("eq,seq,st,teq->", w, gm, model.L12, gt)
    quad += np.einsum("eq,seq,st,teq->", w, gt, model.L22, gt)
    return float(viscous + quad)


def _checked_d_num(s_new: float, s_old: float, tau_diss: float,
                   step_index: int | None) -> float:
    value = (s_new - s_old) - tau_diss
    if value < D_NUM_FLOOR:
        raise StructureViolationError(
            f"numerical dissipation {value:.3e} fell below {D_NUM_FLOOR:.0e}",
            value=value, step_index=step_index)
    return value


def numerical_dissipation(new: State, old: State, model: MaterialModel,
                          cfg: StepperConfig,
                          step_index: int | None = None) -> float:
    """Extra entropy produced by the time discretization itself."""
    _, _, _, s_new = state_functionals(new, model, cfg.quad_degree)
    _, _, _, s_old = state_functionals(old, model, cfg.quad_degree)
    return _checked_d_num(s_new, s_old,
                          cfg.tau * physical_dissipation(new, old, model, cfg),
                          step_index)


def record(new: State, old: State, model: MaterialModel, cfg: StepperConfig,
           step_index: int = 0, newton_iters: int = 0,
           old_entropy: float | None = None) -> DiagnosticsRecord:
    """Diagnostics row for the step old -> new.

    ``old_entropy``, the entropy of the previous row, saves evaluating it
    again; it is the same number the previous row computed.
    """
    mass, kinetic, internal, entropy = state_functionals(new, model, cfg.quad_degree)
    if old_entropy is None:
        _, _, _, old_entropy = state_functionals(old, model, cfg.quad_degree)
    tau_diss = cfg.tau * physical_dissipation(new, old, model, cfg)
    d_num = _checked_d_num(entropy, old_entropy, tau_diss, step_index)
    return DiagnosticsRecord(
        step=step_index, time=new.time, mass=mass, kinetic=kinetic,
        internal=internal, entropy=entropy, tau_dissipation=tau_diss,
        d_num=d_num, newton_iters=newton_iters,
        min_theta=new.min_nodal_theta)


def initial_record(state: State, model: MaterialModel,
                   cfg: StepperConfig) -> DiagnosticsRecord:
    """Row for the initial level (no step happened yet)."""
    mass, kinetic, internal, entropy = state_functionals(state, model, cfg.quad_degree)
    return DiagnosticsRecord(
        step=0, time=state.time, mass=mass, kinetic=kinetic,
        internal=internal, entropy=entropy, tau_dissipation=0.0, d_num=0.0,
        newton_iters=0, min_theta=state.min_nodal_theta)
