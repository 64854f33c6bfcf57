import numpy as np
import pytest

from chnsfem.diagnostics import (
    DiagnosticsRecord,
    initial_record,
    numerical_dissipation,
    physical_dissipation,
    record,
    state_functionals,
)
from chnsfem.fespace import FunctionSpace
from chnsfem.la import SolverError
from chnsfem.mesh import build_uniform
from chnsfem.physics import default_model
from chnsfem.scheme import Stepper, StepperConfig, build_spaces, initial_state


def phi0(x, y):
    return 0.4 + 0.2 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)


def theta0(x, y):
    return 1.0 + 0.2 * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)


def u0(x, y):
    return (-1e-2 * np.sin(np.pi * x) ** 2 * np.sin(2 * np.pi * y),
            1e-2 * np.sin(2 * np.pi * x) * np.sin(np.pi * y) ** 2)


@pytest.fixture(scope="module")
def model():
    return default_model()


@pytest.fixture(scope="module")
def short_run(model):
    """50 benchmark steps on the n=8 mesh, with the quadrature fields of
    every level."""
    mesh = build_uniform(8)
    spaces = build_spaces(mesh)
    cfg = StepperConfig(tau=1e-3)
    stepper = Stepper(spaces, model, cfg)
    states = [initial_state(spaces, model, phi0, theta0, u0)]
    fields = [stepper.fields_from_state(states[0])]
    stats = []
    for k in range(50):
        new, st = stepper.step(states[-1], k)
        states.append(new)
        fields.append(stepper.fields_from_state(new))
        stats.append(st)
    return cfg, states, stats, fields


def test_uniform_state_dissipations_vanish(model):
    mesh = build_uniform(4)
    spaces = build_spaces(mesh)
    state = initial_state(spaces, model,
                          lambda x, y: np.full_like(x, 0.3),
                          lambda x, y: np.full_like(x, 1.2),
                          lambda x, y: (np.zeros_like(x), np.zeros_like(x)))
    cfg = StepperConfig(tau=1e-3)
    stepper = Stepper(spaces, model, cfg)
    new, _ = stepper.step(state)
    assert abs(physical_dissipation(new, state, model, cfg)) <= 1e-12
    assert abs(numerical_dissipation(new, state, model, cfg)) <= 1e-12


def test_quadratic_form_terms_individually_nonnegative(short_run, model):
    # with a zero off-diagonal mobility block both quadratic pieces and the
    # weighted viscous piece are separately nonnegative
    cfg, states, _, _ = short_run
    new, old = states[1], states[0]
    p1, p2 = new.phi.space, new.u.space
    w = p1.weights
    gm = p1.fields(new.mu.coefficients)[1:]
    tn, *gt = p1.fields(new.theta.coefficients)
    term_mu = np.einsum("q,seq,st,teq->", w, gm, model.L11, gm)
    term_theta = np.einsum("q,seq,st,teq->", w, gt, model.L22, gt)
    assert term_mu >= 0.0
    assert term_theta >= 0.0
    gun = p2.fields(new.u.coefficients)[:, 1:]
    guo = p2.fields(old.u.coefficients)[:, 1:]
    sym = 0.5 * (gun + guo)
    sym = 0.5 * (sym + np.swapaxes(sym, 0, 1))
    ps = p1.fields(old.phi.coefficients)[0]
    ts = p1.fields(old.theta.coefficients)[0]
    viscous = np.sum(w * model.eta(ps, ts) * np.sum(sym**2, (0, 1)) * tn)
    total = physical_dissipation(new, old, model, cfg)
    assert viscous >= 0.0
    assert abs(total - (viscous + term_mu + term_theta)) <= 1e-15


def test_first_step_dissipation_decomposition(short_run, model):
    # tau*D must equal <de, theta_new> - <mu_new, dphi> computed by direct
    # quadrature of the compositions
    cfg, states, _, _ = short_run
    old, new = states[0], states[1]
    p1 = new.phi.space
    w = p1.weights
    pn, po, tn, to, mn = p1.fields(np.stack([
        new.phi.coefficients, old.phi.coefficients, new.theta.coefficients,
        old.theta.coefficients, new.mu.coefficients]))[:, 0]
    de_theta = np.sum(w * (model.e(pn, tn) - model.e(po, to)) * tn)
    mu_dphi = np.sum(w * mn * (pn - po))
    tau_d = cfg.tau * physical_dissipation(new, old, model, cfg)
    assert tau_d > 0.0
    assert abs(de_theta - mu_dphi - tau_d) <= 1e-10


def test_run_invariants_over_fifty_steps(short_run, model):
    cfg, states, stats, fields = short_run
    records = [initial_record(states[0], fields[0], model)]
    for k in range(1, len(states)):
        records.append(record(states[k], fields[k], fields[k - 1], model, cfg,
                              step_index=k, newton_iters=stats[k - 1].iterations))

    mass = np.array([r.mass for r in records])
    assert np.abs(mass - mass[0]).max() <= 1e-10

    total = np.array([r.total_energy for r in records])
    assert np.abs(total - total[0]).max() <= 1e-9

    entropy = np.array([r.entropy for r in records])
    assert np.all(np.diff(entropy) >= -1e-10)

    assert all(r.d_num >= -1e-10 for r in records[1:])
    assert all(r.tau_dissipation >= -1e-12 for r in records[1:])
    assert all(r.min_theta > 0 for r in records)


def test_gradient_increment_lower_bound(short_run, model):
    # gamma/2 * ||grad(phi_new - phi_old)||^2, the explicitly computable
    # first summand of the numerical dissipation, bounds the recorded d_num
    cfg, states, _, fields = short_run
    p1 = states[0].phi.space
    for k in range(1, 11):
        dphi = states[k].phi.coefficients - states[k - 1].phi.coefficients
        lower = 0.5 * model.gamma * p1.squared_norms(dphi)[1]
        d_num = record(states[k], fields[k], fields[k - 1], model, cfg,
                       step_index=k).d_num
        assert lower <= d_num + 1e-10


def test_entropy_telescoping(short_run, model):
    cfg, states, _, _ = short_run
    _, _, _, s_first = state_functionals(states[0], model)
    _, _, _, s_last = state_functionals(states[-1], model)
    accumulated = 0.0
    for k in range(1, len(states)):
        accumulated += cfg.tau * physical_dissipation(states[k], states[k - 1], model, cfg)
        accumulated += numerical_dissipation(states[k], states[k - 1], model, cfg)
    assert abs((s_last - s_first) - accumulated) <= 1e-9


def test_reversed_step_violates_structure(short_run, model):
    # swapping the levels of a dissipative step makes the entropy balance
    # negative, which must be reported as a structure violation
    cfg, states, _, _ = short_run
    with pytest.raises(SolverError, match="numerical dissipation -") as info:
        numerical_dissipation(states[0], states[1], model, cfg, step_index=1)
    assert str(info.value).startswith("numerical dissipation -")
    assert info.value.step_index == 1


def test_record_fields(short_run, model):
    cfg, states, stats, fields = short_run
    rec = record(states[1], fields[1], fields[0], model, cfg, step_index=1,
                 newton_iters=stats[0].iterations)
    assert isinstance(rec, DiagnosticsRecord)
    assert rec.step == 1
    assert rec.time == pytest.approx(cfg.tau)
    assert rec.newton_iters == stats[0].iterations
    assert rec.total_energy == pytest.approx(rec.kinetic + rec.internal)


def test_rows_evaluate_no_fields(short_run, model, monkeypatch):
    # the rows read the given field dicts, and agree with the functions
    # that evaluate the states themselves to the last bit
    cfg, states, _, fields = short_run
    calls = []
    fields_of = FunctionSpace.fields
    monkeypatch.setattr(FunctionSpace, "fields",
                        lambda self, c: calls.append(1) or fields_of(self, c))
    first = initial_record(states[0], fields[0], model)
    rec = record(states[2], fields[2], fields[1], model, cfg, step_index=2)
    assert calls == []
    assert (first.mass, first.kinetic, first.internal, first.entropy) \
        == state_functionals(states[0], model)
    assert rec.tau_dissipation == \
        cfg.tau * physical_dissipation(states[2], states[1], model, cfg)
    assert rec.d_num == numerical_dissipation(states[2], states[1], model, cfg)
    assert calls
