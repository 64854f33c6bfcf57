"""Simulation driver, inter-level error norms and refinement studies.

A refinement ladder halves the mesh size and the time step together; the
discretization error of level k is estimated against level k+1, with the
coarse solution prolonged exactly into the fine space (the meshes nest).
Error norms follow the benchmark convention: squared norms are summed, so
first-order convergence of a quantity shows up as an order near two for
its squared error.

Piecewise-constant-in-time quantities (the chemical potential and the
pressure live on intervals, not nodes) are compared per coarse interval
against both matching fine half-intervals with equal weights, which is the
exact time integral of the squared difference of two interval-constant
functions.  Node-based time norms use the left-endpoint rule, whose
first-order-in-tau quadrature error cannot pollute an O(tau) measurement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .diagnostics import DiagnosticsRecord, initial_record, record
from .fespace import FeFunction, prolong
from .la import NewtonSettings, SolverError
from .mesh import PeriodicTriMesh, build_uniform
from .physics import MaterialModel, default_model
from .scheme import (
    MAX_SUBDIVISIONS,
    NewtonStats,
    State,
    Stepper,
    StepperConfig,
    build_spaces,
    initial_state,
)


def benchmark_initial_data():
    """Smooth periodic initial data of the bundled convergence benchmark."""

    def phi0(x, y):
        return 0.4 + 0.2 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)

    def theta0(x, y):
        return 1.0 + 0.2 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)

    def u0(x, y):
        return (-1e-2 * np.sin(np.pi * x) ** 2 * np.sin(2 * np.pi * y),
                1e-2 * np.sin(2 * np.pi * x) * np.sin(np.pi * y) ** 2)

    return phi0, theta0, u0


@dataclass(frozen=True)
class RunConfig:
    """One simulation of the refinement ladder.

    The mesh has ``base * 2**level`` subdivisions per axis, at most
    ``MAX_SUBDIVISIONS``.  Level 0 takes the fewest steps of equal length
    that reach ``final_time`` with a step no longer than ``c_tau * h_0`` (or
    ``tau0`` when given explicitly); level k takes ``2**k`` times as many,
    so the levels nest in time.
    """

    base: int = 8
    level: int = 0
    final_time: float = 2.0e-3
    c_tau: float = 1e-3
    tau0: float | None = None
    star_rule: str = StepperConfig.star_rule
    newton: NewtonSettings = field(default_factory=NewtonSettings)
    theta_floor: float = StepperConfig.theta_floor
    model: MaterialModel = field(default_factory=default_model)
    initial_data: tuple = field(default_factory=benchmark_initial_data)

    def __post_init__(self):
        if self.base < 4:
            raise ValueError("base mesh must have at least 4 subdivisions per axis")
        if self.level < 0:
            raise ValueError("level must be nonnegative")
        if self.base > MAX_SUBDIVISIONS >> self.level:  # base * 2**level too large
            raise ValueError(
                f"the finest mesh, {self.base} * 2**{self.level} subdivisions per "
                f"axis, exceeds {MAX_SUBDIVISIONS}, the most the solver's int32 "
                "indices can address")
        if self.final_time <= 0:
            raise ValueError("final time must be positive")
        if self.c_tau <= 0:
            raise ValueError("time-step constant c_tau must be positive")
        if self.tau0 is not None and self.tau0 <= 0:
            raise ValueError("time step tau0 must be positive")
        self.stepper_config()  # checks the step and the star rule

    @property
    def mesh_subdivisions(self) -> int:
        return self.base * 2**self.level

    def resolve_tau(self) -> tuple[float, int]:
        """Time step (dividing final_time exactly) and step count."""
        requested = self.tau0 if self.tau0 is not None else self.c_tau / self.base
        ratio = self.final_time / requested
        if not math.isfinite(ratio * 2**self.level):
            raise ValueError(f"final time {self.final_time:g} over the step "
                             f"{requested:g} overflows the step count")
        n_steps = max(1, math.ceil(ratio - 1e-9)) * 2**self.level
        return self.final_time / n_steps, n_steps

    def stepper_config(self) -> StepperConfig:
        tau, _ = self.resolve_tau()
        return StepperConfig(tau=tau, star_rule=self.star_rule,
                             newton=self.newton, theta_floor=self.theta_floor)


@dataclass(eq=False)
class RunResult:
    config: RunConfig
    mesh: PeriodicTriMesh
    states: list[State]
    records: list[DiagnosticsRecord]
    newton_stats: list[NewtonStats]

    @property
    def tau(self) -> float:
        return self.config.resolve_tau()[0]


def run(cfg: RunConfig) -> RunResult:
    """Run one simulation, keeping every time level and its diagnostics.

    Solver errors propagate with the failing step index attached.
    """
    mesh = build_uniform(cfg.mesh_subdivisions)
    spaces = build_spaces(mesh)
    scfg = cfg.stepper_config()
    stepper = Stepper(spaces, cfg.model, scfg)
    phi0, theta0, u0 = cfg.initial_data
    state = initial_state(spaces, cfg.model, phi0, theta0, u0)
    fields = stepper.fields_from_state(state)
    states = [state]
    records = [initial_record(state, fields, cfg.model)]
    stats: list[NewtonStats] = []
    _, n_steps = cfg.resolve_tau()
    for k in range(1, n_steps + 1):
        new, st = stepper.step(states[-1], step_index=k)
        old_fields, fields = fields, stepper.fields_from_state(new)
        records.append(record(new, fields, old_fields, cfg.model, scfg,
                              step_index=k, newton_iters=st.iterations))
        states.append(new)
        stats.append(st)
    return RunResult(config=cfg, mesh=mesh, states=states, records=records,
                     newton_stats=stats)


@dataclass(frozen=True)
class ErrorRow:
    """Squared error norms between one level and its refinement.

    ``linf_h1_phi``, ``l2_h1_mu``, ``l2_h1_theta`` and ``l2_h1_u`` are the
    four separately tabulated quantities of the benchmark; the combined
    error additionally contains ``linf_l2_theta`` and ``linf_l2_u``, which
    have no column of their own there.
    """

    level: int
    linf_h1_phi: float
    linf_l2_theta: float
    linf_l2_u: float
    l2_h1_mu: float
    l2_h1_theta: float
    l2_h1_u: float

    @property
    def combined(self) -> float:
        return (self.linf_h1_phi + self.linf_l2_theta + self.linf_l2_u
                + self.l2_h1_mu + self.l2_h1_theta + self.l2_h1_u)


def _diff(coarse_fn: FeFunction, fine_fn: FeFunction) -> np.ndarray:
    return prolong(coarse_fn, fine_fn.space).coefficients - fine_fn.coefficients


def inter_level_error(coarse: RunResult, fine: RunResult) -> ErrorRow:
    """Error norms of the coarse run measured against its refinement."""
    if fine.mesh.n != 2 * coarse.mesh.n:
        raise ValueError("fine run must refine the coarse run once in space")
    if len(fine.states) != 2 * (len(coarse.states) - 1) + 1:
        raise ValueError("fine run must refine the coarse run once in time")
    tau_c = coarse.tau
    # the fine run's spaces: the norms use the rule of its assembly
    p1, p2 = fine.states[0].phi.space, fine.states[0].u.space
    n_intervals = len(coarse.states) - 1

    linf_h1_phi = 0.0
    linf_l2_theta = 0.0
    linf_l2_u = 0.0
    l2_h1_theta = 0.0
    l2_h1_u = 0.0
    for n, cs in enumerate(coarse.states):
        fs = fine.states[2 * n]
        # each level adds up its steps, so matching nodes differ by roundoff
        # (up to 1.4e-12 at T = 2 over 16,000 and 32,000 steps)
        if abs(cs.time - fs.time) > 1e-3 * fine.tau:
            raise ValueError("time grids do not align")
        l2, h1 = p1.squared_norms(_diff(cs.phi, fs.phi))
        linf_h1_phi = max(linf_h1_phi, l2 + h1)
        l2t, h1t = p1.squared_norms(_diff(cs.theta, fs.theta))
        linf_l2_theta = max(linf_l2_theta, l2t)
        l2u, h1u = p2.squared_norms(_diff(cs.u, fs.u))
        linf_l2_u = max(linf_l2_u, l2u)
        if n < n_intervals:  # left-endpoint rule in time
            l2_h1_theta += tau_c * (l2t + h1t)
            l2_h1_u += tau_c * (l2u + h1u)

    # interval-constant pairing of the chemical potential
    l2_h1_mu = 0.0
    for n in range(n_intervals):
        cmu = prolong(coarse.states[n + 1].mu, fine.states[0].mu.space).coefficients
        for half in (1, 2):
            d = cmu - fine.states[2 * n + half].mu.coefficients
            l2, h1 = p1.squared_norms(d)
            l2_h1_mu += tau_c * 0.5 * (l2 + h1)

    return ErrorRow(level=coarse.config.level,
                    linf_h1_phi=linf_h1_phi, linf_l2_theta=linf_l2_theta,
                    linf_l2_u=linf_l2_u, l2_h1_mu=l2_h1_mu,
                    l2_h1_theta=l2_h1_theta, l2_h1_u=l2_h1_u)


def eoc(errors) -> list[float]:
    """Experimental orders of convergence, log2 of consecutive ratios.

    Nonpositive errors give NaN markers (the order is undefined there).
    """
    errors = list(errors)
    if len(errors) < 2:
        raise ValueError("need at least two levels for convergence orders")
    out = []
    for prev, cur in zip(errors, errors[1:]):
        if prev <= 0.0 or cur <= 0.0:
            out.append(float("nan"))
        else:
            out.append(math.log2(prev / cur))
    return out


@dataclass(frozen=True)
class ErrorTable:
    rows: list[ErrorRow]

    def column(self, name: str) -> list[float]:
        return [getattr(r, name) for r in self.rows]

    def eoc_column(self, name: str) -> list[float]:
        if len(self.rows) < 2:
            return []
        return eoc(self.column(name))


def convergence_study(base_cfg: RunConfig, num_levels: int) -> tuple[ErrorTable, list[RunResult]]:
    """Run levels 0..num_levels-1 and tabulate inter-level errors.

    Solver errors propagate with the failing level attached.
    """
    if num_levels < 2:
        raise ValueError("a convergence study needs at least two levels")
    results = []
    for k in range(num_levels):
        try:
            results.append(run(replace(base_cfg, level=k)))
        except SolverError as exc:
            exc.level = k
            raise
    rows = [inter_level_error(results[k], results[k + 1])
            for k in range(num_levels - 1)]
    return ErrorTable(rows=rows), results
