import numpy as np
import pytest

from chnsfem.physics import MaterialModel, default_model, validate_model
from chnsfem.scheme import STEP


@pytest.fixture(scope="module")
def model():
    return default_model()


def _samples(n=100, seed=1):
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.5, 1.5, n), rng.uniform(0.55, 2.0, n)


def test_internal_energy_values(model):
    assert abs(model.e(0.5, 1.0) - 1.125) <= 1e-15
    assert abs(model.e(0.0, 2.0) - 0.5) <= 1e-15


def test_internal_energy_matches_fd_of_free_energy(model):
    phi, theta = _samples()
    h = 1e-5
    fd = (model.psi(phi, theta + h) - model.psi(phi, theta - h)) / (2 * h)
    assert np.abs(model.e(phi, theta) - fd).max() <= 1e-7


def test_entropy_values(model):
    assert abs(model.s(0.0, 1.0, 0.0) - 1.0) <= 1e-15
    assert abs(model.s(0.5, 1.0, 0.0) - 1.0625) <= 1e-15


def test_entropy_identity_algebraic(model):
    phi, theta = _samples()
    g2 = np.random.default_rng(2).uniform(0, 4, phi.shape)
    lhs = model.s(phi, theta, g2)
    rhs = theta * model.e(phi, theta) - model.psi(phi, theta) - 0.5 * model.gamma * g2
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_split_derivative_telescopes_to_full_derivative(model):
    phi, theta = _samples()
    h = 1e-5
    fd = (model.psi(phi + h, theta) - model.psi(phi - h, theta)) / (2 * h)
    got = model.dphi_psi_vex(phi, theta) + model.dphi_psi_cav(phi, theta)
    assert np.abs(got - fd).max() <= 1e-7


def test_split_derivative_stationary_at_half(model):
    assert abs(model.dphi_psi_vex(0.5, 1.0) + model.dphi_psi_cav(0.5, 1.0)) <= 1e-15


def test_split_derivative_mixed_arguments(model):
    # implicit convex part at phi_new = 1, explicit concave part at phi_old = 0
    got = model.dphi_psi_vex(1.0, 1.0) + model.dphi_psi_cav(0.0, 1.0)
    assert abs(got - 1.0) <= 1e-15


def test_split_parts_convex_concave(model):
    phi, theta = _samples()
    h = 1e-4
    d2vex = (model.psi_vex(phi + h, theta) - 2 * model.psi_vex(phi, theta)
             + model.psi_vex(phi - h, theta)) / h**2
    d2cav = (model.psi_cav(phi + h, theta) - 2 * model.psi_cav(phi, theta)
             + model.psi_cav(phi - h, theta)) / h**2
    assert d2vex.min() >= -1e-6
    assert d2cav.max() <= 1e-6


def test_free_energy_concave_in_theta(model):
    phi, theta = _samples()
    h = 1e-4
    d2 = (model.psi(phi, theta + h) - 2 * model.psi(phi, theta)
          + model.psi(phi, theta - h)) / h**2
    assert d2.max() <= -1e-3  # -1/theta^2 stays well below zero on the box


def test_split_consistency(model):
    phi, theta = _samples()
    dev = model.psi_vex(phi, theta) + model.psi_cav(phi, theta) - model.psi(phi, theta)
    assert np.abs(dev).max() <= 1e-13


def test_complex_step_derivatives_match_hand_derivatives(model):
    # the Jacobian differentiates the model callables by complex step, which
    # only works while they are complex-analytic numpy arithmetic
    phi, theta = _samples()
    g2 = np.random.default_rng(2).uniform(0, 4, phi.shape)
    w1 = 2.0 * phi * (1.0 - phi) * (1.0 - 2.0 * phi)  # W'(phi)
    cubic = 4.0 * phi**3 - 6.0 * phi * phi + 3.0 * phi
    eta_quad = 1.0 / 40.0
    hand = {  # callable: (d/dphi, d/dtheta)
        model.e: (2.0 * w1, -1.0 / theta**2),
        lambda p, t: model.s(p, t, g2): (w1, -1.0 / theta),
        model.eta: (2.0 * eta_quad * (phi + 1.0), 0.0 * phi),
        model.dphi_psi_vex: ((2.0 * theta - 1.0) * (12.0 * phi * phi - 12.0 * phi + 3.0),
                             2.0 * cubic),
        model.dphi_psi_cav: (-(2.0 * theta - 1.0), -2.0 * phi),
    }
    for f, (dphi, dtheta) in hand.items():
        cs_phi = f(phi + 1j * STEP, theta).imag / STEP
        cs_theta = f(phi, theta + 1j * STEP).imag / STEP
        assert np.abs(cs_phi - dphi).max() <= 1e-13
        assert np.abs(cs_theta - dtheta).max() <= 1e-13


def test_viscosity_values(model):
    assert abs(model.eta(1.0, 1.0) - 0.101) <= 1e-15
    assert abs(model.eta(-1.0, 1.0) - 1e-3) <= 1e-18


def test_mobility_blocks(model):
    L11, L12, L22 = model.L11, model.L12, model.L22
    assert np.array_equal(L11, 1e-2 * np.eye(2))
    assert np.array_equal(L22, 1e-2 * np.eye(2))
    assert np.array_equal(L12, np.zeros((2, 2)))


def test_validate_default_model(model):
    report = validate_model(model)
    assert report.passed, str(report)
    assert len(report.checks) == 8


def test_validate_flags_negative_gamma():
    bad = default_model(gamma=-1.0)
    report = validate_model(bad)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["A1 interface parameter positive"].passed
    assert not report.passed


def test_validate_flags_indefinite_mobility(model):
    bad = MaterialModel(
        gamma=model.gamma, psi=model.psi, psi_vex=model.psi_vex,
        psi_cav=model.psi_cav, dphi_psi_vex=model.dphi_psi_vex,
        dphi_psi_cav=model.dphi_psi_cav, e=model.e, s=model.s, eta=model.eta,
        L11=1e-2, L12=0.2, L22=1e-2, split_theta_floor=0.5)
    report = validate_model(bad)
    by_name = {c.name: c for c in report.checks}
    assert not by_name["A3 diffusion matrix SPD"].passed


def test_mobility_block_normalization():
    m = default_model(mobility=3.0)
    assert np.array_equal(m.L11, 3.0 * np.eye(2))
    with pytest.raises(ValueError):
        MaterialModel(gamma=1.0, psi=m.psi, psi_vex=m.psi_vex, psi_cav=m.psi_cav,
                      dphi_psi_vex=m.dphi_psi_vex, dphi_psi_cav=m.dphi_psi_cav,
                      e=m.e, s=m.s, eta=m.eta,
                      L11=np.array([[1.0, 0.5], [0.0, 1.0]]), L12=0.0, L22=1.0)
