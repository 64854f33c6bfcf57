"""Per-step conservation and entropy-production diagnostics.

Every integral here uses the same quadrature rule as the assembly; mixing
rules would break the discrete identities at machine precision, since
their cancellations happen pointwise at the quadrature points.  The rows
read the fields the stepper keeps for each level, so a run evaluates each
level once; the functions that take states evaluate them themselves.

The numerical dissipation of a step is evaluated as the residual
``<s_new - s_old, 1> - tau * D`` rather than from its mean-value-theorem
form, whose intermediate points exist but are not constructible; both are
equal by construction of the scheme, and the residual form is testable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .la import SolverError
from .physics import MaterialModel
from .scheme import STAR_OLD, State, StepperConfig, quadrature_fields


class StructureViolationError(SolverError):
    """A discrete conservation or dissipation law failed beyond tolerance."""


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


def _level_fields(state: State) -> dict:
    return quadrature_fields(
        state.phi.space, state.u.space,
        np.stack([state.phi.coefficients, state.mu.coefficients,
                  state.theta.coefficients, state.pi.coefficients]),
        state.u.coefficients)


def _entropy(f: dict, w: np.ndarray, model: MaterialModel) -> float:
    return float(np.sum(w * model.s(f["p"], f["t"], f["px"]**2 + f["py"]**2)))


def _functionals(f: dict, w: np.ndarray, model: MaterialModel
                 ) -> tuple[float, float, float, float]:
    mass = float(np.sum(w * f["p"]))
    kinetic = float(np.sum(w * 0.5 * (f["u1"]**2 + f["u2"]**2)))
    internal = float(np.sum(w * model.e(f["p"], f["t"])))
    return mass, kinetic, internal, _entropy(f, w, model)


def _dissipation(new: dict, old: dict, w: np.ndarray, model: MaterialModel,
                 star_rule: str) -> float:
    star = old if star_rule == STAR_OLD else new
    # midpoint velocity gradient, gum[c, l] = d_l u_c
    gum = 0.5 * (np.array([[new["u1x"], new["u1y"]], [new["u2x"], new["u2y"]]])
                 + np.array([[old["u1x"], old["u1y"]], [old["u2x"], old["u2y"]]]))
    sym = 0.5 * (gum + np.swapaxes(gum, 0, 1))
    dsq = np.sum(sym**2, axis=(0, 1))
    viscous = np.sum(w * model.eta(star["p"], star["t"]) * dsq * new["t"])

    gm = np.stack([new["mx"], new["my"]])
    gt = np.stack([new["tx"], new["ty"]])
    # the mobility form at each point of the rule, summed over the triangles
    quad = np.einsum("seq,st,teq->q", gm, model.L11, gm)
    quad -= 2.0 * np.einsum("seq,st,teq->q", gm, model.L12, gt)
    quad += np.einsum("seq,st,teq->q", gt, model.L22, gt)
    return float(viscous + w @ quad)


def state_functionals(state: State, model: MaterialModel
                      ) -> tuple[float, float, float, float]:
    """(mass, kinetic energy, internal energy, entropy) of one level."""
    return _functionals(_level_fields(state), state.phi.space.weights, model)


def physical_dissipation(new: State, old: State, model: MaterialModel,
                         cfg: StepperConfig) -> float:
    """Entropy production rate of the step: viscous part weighted by the
    new inverse temperature plus the mobility quadratic form.

    Nonnegative whenever the mobility matrix is SPD and temperatures stay
    positive.
    """
    return _dissipation(_level_fields(new), _level_fields(old),
                        new.phi.space.weights, model, cfg.star_rule)


def numerical_dissipation(new: State, old: State, model: MaterialModel,
                          cfg: StepperConfig,
                          step_index: int | None = None) -> float:
    """Extra entropy produced by the time discretization itself."""
    return record(new, _level_fields(new), _level_fields(old), model,
                  cfg, step_index).d_num


def record(new: State, fields: dict, old_fields: dict, model: MaterialModel,
           cfg: StepperConfig, step_index: int | None = 0,
           newton_iters: int = 0) -> DiagnosticsRecord:
    """Diagnostics row for the step to ``new``, read from the quadrature
    fields (``scheme.quadrature_fields``) of ``new`` and of the old level."""
    w = new.phi.space.weights
    mass, kinetic, internal, entropy = _functionals(fields, w, model)
    tau_diss = cfg.tau * _dissipation(fields, old_fields, w, model,
                                      cfg.star_rule)
    d_num = (entropy - _entropy(old_fields, w, model)) - tau_diss
    if d_num < D_NUM_FLOOR:
        raise StructureViolationError(
            f"numerical dissipation {d_num:.3e} fell below {D_NUM_FLOOR:.0e}",
            step_index)
    return DiagnosticsRecord(
        step=step_index, time=new.time, mass=mass, kinetic=kinetic,
        internal=internal, entropy=entropy, tau_dissipation=tau_diss,
        d_num=d_num, newton_iters=newton_iters,
        min_theta=new.min_nodal_theta)


def initial_record(state: State, fields: dict, model: MaterialModel
                   ) -> DiagnosticsRecord:
    """Row for the initial level (no step yet), read from its fields."""
    mass, kinetic, internal, entropy = _functionals(fields, state.phi.space.weights, model)
    return DiagnosticsRecord(
        step=0, time=state.time, mass=mass, kinetic=kinetic,
        internal=internal, entropy=entropy, tau_dissipation=0.0, d_num=0.0,
        newton_iters=0, min_theta=state.min_nodal_theta)
