"""Acceptance gate: every criterion asserts at its stated tolerance and
prints one pass/fail line (run with ``pytest -v -s`` to see them).
"""

import numpy as np
import pytest

from chnsfem.fespace import FeFunction, build_space, c_skw
from chnsfem.harness import RunConfig, benchmark_initial_data, convergence_study, run
from chnsfem.mesh import build_uniform, quad_rule, reference_monomial_integral
from chnsfem.physics import default_model
from chnsfem.scheme import Stepper, StepperConfig, build_spaces, initial_state

TAU_BASE = 1e-3 / 8  # c_tau * h at the base resolution


def _verdict(num: int, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def model():
    return default_model()


@pytest.fixture(scope="module")
def structure_run():
    """100 benchmark steps on the n=8 base mesh at tau = 1e-3 * h."""
    cfg = RunConfig(base=8, level=0, c_tau=1e-3, final_time=100 * TAU_BASE)
    return run(cfg)


@pytest.fixture(scope="module")
def study():
    """Three refinement levels, 16 base steps (n=8,16,32)."""
    cfg = RunConfig(base=8, level=0, c_tau=1e-3, final_time=16 * TAU_BASE)
    return convergence_study(cfg, num_levels=3)


def test_criterion_1_structure_preservation(structure_run):
    records = structure_run.records
    assert len(records) == 101
    mass = np.array([r.mass for r in records])
    total = np.array([r.total_energy for r in records])
    entropy = np.array([r.entropy for r in records])
    d_num = np.array([r.d_num for r in records[1:]])

    mass_drift = abs(mass[-1] - mass[0])
    energy_drift = abs(total[-1] - total[0])
    min_d_num = d_num.min()
    min_entropy_diff = np.diff(entropy).min()
    ok = (mass_drift <= 1e-10 and energy_drift <= 1e-9
          and min_d_num >= -1e-10 and min_entropy_diff >= -1e-10)
    _verdict(1, ok,
             f"mass drift {mass_drift:.2e} (<=1e-10), energy drift "
             f"{energy_drift:.2e} (<=1e-9), min d_num {min_d_num:.2e} "
             f"(>=-1e-10), min entropy increment {min_entropy_diff:.2e}")


def test_criterion_2_entropy_telescoping(structure_run, model):
    from chnsfem.diagnostics import (
        numerical_dissipation,
        physical_dissipation,
        state_functionals,
    )

    cfg = structure_run.config.stepper_config()
    states = structure_run.states
    _, _, _, s_first = state_functionals(states[0], model)
    _, _, _, s_last = state_functionals(states[-1], model)
    total = 0.0
    for k in range(1, len(states)):
        total += cfg.tau * physical_dissipation(states[k], states[k - 1], model, cfg)
        total += numerical_dissipation(states[k], states[k - 1], model, cfg)
    gap = abs((s_last - s_first) - total)
    _verdict(2, gap <= 1e-9,
             f"entropy change {s_last - s_first:.6e} vs accumulated "
             f"production {total:.6e}, gap {gap:.2e} (<=1e-9)")


def test_criterion_3_convergence_study(study):
    table, _ = study
    combined = table.column("combined")
    monotone = all(a > b for a, b in zip(combined, combined[1:]))
    final_eoc = table.eoc_column("combined")[-1]
    phi_eoc = table.eoc_column("linf_h1_phi")[-1]
    ok = monotone and final_eoc >= 1.5 and phi_eoc >= 1.5
    _verdict(3, ok,
             f"combined squared errors {['%.3e' % e for e in combined]} "
             f"monotone={monotone}, final EOC {final_eoc:.2f} (>=1.5), "
             f"phase EOC {phi_eoc:.2f} (>=1.5)")


def test_criterion_4_thermodynamic_identities(model):
    rng = np.random.default_rng(2024)
    n = 10_000
    phi = rng.uniform(-0.5, 1.5, n)
    theta = rng.uniform(0.55, 2.0, n)
    g2 = rng.uniform(0.0, 4.0, n)
    h = 1e-5
    fd_e = (model.psi(phi, theta + h) - model.psi(phi, theta - h)) / (2 * h)
    e_dev = np.abs(model.e(phi, theta) - fd_e).max()
    s_dev = np.abs(model.s(phi, theta, g2)
                   - (theta * model.e(phi, theta) - model.psi(phi, theta)
                      - 0.5 * model.gamma * g2)).max()
    split_dev = np.abs(model.psi_vex(phi, theta) + model.psi_cav(phi, theta)
                       - model.psi(phi, theta)).max()
    ok = e_dev <= 1e-7 and s_dev <= 1e-7 and split_dev <= 1e-13
    _verdict(4, ok,
             f"|e - d_theta psi| {e_dev:.2e} (<=1e-7), entropy identity "
             f"{s_dev:.2e} (<=1e-7), split consistency {split_dev:.2e} (<=1e-13)")


def test_criterion_5_jacobian_correctness(model):
    mesh = build_uniform(4)
    spaces = build_spaces(mesh)
    phi0, theta0, u0 = benchmark_initial_data()
    state = initial_state(spaces, model, phi0, theta0, u0)
    cfg = StepperConfig(tau=TAU_BASE)
    stepper = Stepper(spaces, model, cfg)
    old_fields = stepper.fields_from_state(state)
    x0 = stepper.pack(state, 0.0)
    J = stepper.jacobian_matrix(old_fields, x0)
    rng = np.random.default_rng(11)
    eps = 1e-6
    worst = 0.0
    for _ in range(20):
        d = rng.standard_normal(stepper.size)
        fd = (stepper.residual_vector(old_fields, x0 + eps * d)
              - stepper.residual_vector(old_fields, x0 - eps * d)) / (2 * eps)
        jd = J @ d
        worst = max(worst, np.linalg.norm(jd - fd) / np.linalg.norm(jd))
    _verdict(5, worst <= 1e-6,
             f"worst directional relative error {worst:.2e} (<=1e-6, 20 directions)")


def test_criterion_6_fixed_point_preservation(model):
    mesh = build_uniform(8)
    spaces = build_spaces(mesh)
    state = initial_state(
        spaces, model,
        lambda x, y: np.full_like(x, 0.4),
        lambda x, y: np.full_like(x, 1.0),
        lambda x, y: (np.zeros_like(x), np.zeros_like(x)))
    cfg = StepperConfig(tau=TAU_BASE)
    stepper = Stepper(spaces, model, cfg)
    current = state
    for k in range(50):
        current, _ = stepper.step(current, k)
    drift = max(np.abs(getattr(current, name).coefficients
                       - getattr(state, name).coefficients).max()
                for name in ("phi", "mu", "theta", "u", "pi"))
    _verdict(6, drift <= 1e-11,
             f"max per-coefficient drift over 50 steps {drift:.2e} (<=1e-11)")


def test_criterion_7_incompressibility(structure_run):
    div_max = max(s.div_residual_max for s in structure_run.newton_stats)
    lam_max = max(abs(s.lam) for s in structure_run.newton_stats)
    ok = div_max <= 1e-11 and lam_max <= 1e-10
    _verdict(7, ok,
             f"max divergence residual row {div_max:.2e} (<=1e-11), "
             f"max |multiplier| {lam_max:.2e} (<=1e-10)")


def test_criterion_8_quadrature_and_convection_form():
    worst_quad = 0.0
    for degree in range(1, 7):
        rule = quad_rule(degree)
        x, y = rule.points[:, 1], rule.points[:, 2]
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                exact = reference_monomial_integral(a, b)
                approx = float(np.sum(rule.weights * x**a * y**b))
                worst_quad = max(worst_quad,
                                 abs(approx - exact) / max(1.0, abs(exact)))
    space = build_space(build_uniform(4), "P2-vector-2D")
    rng = np.random.default_rng(3)
    worst_skw = 0.0
    for _ in range(20):
        u = FeFunction(space, rng.standard_normal(space.dof_count))
        v = FeFunction(space, rng.standard_normal(space.dof_count))
        worst_skw = max(worst_skw, abs(c_skw(u, v, v)))
    ok = worst_quad <= 1e-13 and worst_skw <= 1e-13
    _verdict(8, ok,
             f"worst monomial quadrature error {worst_quad:.2e} (<=1e-13), "
             f"worst |c_skw(u,v,v)| {worst_skw:.2e} (<=1e-13)")
