import math
from pathlib import Path

import numpy as np
import pytest

import qfisher.distill
from qfisher import (
    EncodingCircuit,
    NumericError,
    ValidationError,
    build_circuit,
    distillation_report,
    evolve,
    kraus_from_estimate,
    load_scenario,
    postselect,
    postselected_geometric_tensor,
    qfim_postselected,
    qfim_pure,
    uhlmann_curvature,
)

from qfisher.circuit import STATE_NORM_TOL
from qfisher.fisher import curvature_from_tensor, qfim_from_tensor

from helpers import SIGMA_X, SIGMA_Z, random_circuit, reference_circuit

COMMUTING = Path(__file__).resolve().parent.parent / "scenarios" / "commuting_classical.json"
REFERENCE = COMMUTING.parent / "reference_qubit.json"


def dense_kraus(plan):
    """The filter's Kraus operator K = 1 - (1 - t)|g><g| as a dense matrix."""
    guess = plan.guess_state
    return np.eye(guess.size) - (1.0 - plan.transmissivity) * np.outer(guess, guess.conj())


def test_transmissivity_validation():
    circuit = reference_circuit()
    guess = [0.2, 0.3]
    for bad in (0.0, -0.5, 1.5, float("nan"), True, "0.5", 1e-160, 1e-200):
        with pytest.raises(ValidationError):
            kraus_from_estimate(circuit, guess, bad)


def test_full_transmissivity_gives_identity_filter():
    circuit = reference_circuit()
    plan = kraus_from_estimate(circuit, [0.2, 0.3], 1.0)
    assert np.max(np.abs(dense_kraus(plan) - np.eye(2))) < 1e-14
    assert np.max(np.abs(plan.effect - np.eye(2))) < 1e-14


def test_effect_spectrum_is_t_squared_and_one():
    circuit = reference_circuit()
    t = 0.3
    plan = kraus_from_estimate(circuit, [0.7, -0.4], t)
    eigenvalues = np.sort(np.linalg.eigvalsh(plan.effect))
    assert eigenvalues[0] == pytest.approx(t * t, abs=1e-12)
    assert eigenvalues[-1] == pytest.approx(1.0, abs=1e-12)
    # effect really is K^dag K
    kraus = dense_kraus(plan)
    assert np.max(np.abs(kraus.conj().T @ kraus - plan.effect)) < 1e-12


def test_postselect_at_guess_point_succeeds_with_t_squared():
    rng = np.random.default_rng(61)
    for t in (0.1, 0.3, 1.0):
        for _ in range(5):
            circuit = random_circuit(rng)
            theta = rng.uniform(-1.5, 1.5, circuit.n_params)
            plan = kraus_from_estimate(circuit, theta, t)
            state, prob = postselect(circuit, theta, plan)
            assert prob == pytest.approx(t * t, abs=1e-12)
            assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-12)
            # the filter only rescales the guessed state, so the
            # postselected state matches the unfiltered one up to norm
            plain = evolve(circuit, theta)
            overlap = abs(np.vdot(state, plain))
            assert overlap == pytest.approx(1.0, abs=1e-10)


def test_postselect_matches_dense_kraus_for_inexact_guess():
    rng = np.random.default_rng(63)
    for t in (1.0, 0.3, 0.1):
        for _ in range(5):
            circuit = random_circuit(rng, max_dim=8)
            theta = rng.uniform(-1.5, 1.5, circuit.n_params)
            guess = theta + 0.2 * rng.standard_normal(circuit.n_params)
            plan = kraus_from_estimate(circuit, guess, t)
            state, prob = postselect(circuit, theta, plan)
            filtered = dense_kraus(plan) @ evolve(circuit, theta)
            dense_prob = float(np.real(np.vdot(filtered, filtered)))
            assert prob == pytest.approx(dense_prob, rel=1e-12, abs=0.0)
            assert np.max(np.abs(state - filtered / np.sqrt(dense_prob))) < 1e-12


def test_guess_state_off_the_unit_sphere_is_rejected(monkeypatch):
    circuit = reference_circuit()
    original = qfisher.distill.evolve

    def stretched(circuit, theta):
        return (1.0 + 10.0 * STATE_NORM_TOL) * original(circuit, theta)

    monkeypatch.setattr(qfisher.distill, "evolve", stretched)
    with pytest.raises(NumericError, match="unit sphere"):
        kraus_from_estimate(circuit, [0.2, 0.3], 0.5)


def test_plan_accepts_initial_state_inside_norm_tolerance():
    # the circuit accepts this state, so the filter built on it must too
    state = np.array([1.0 + 0.9 * STATE_NORM_TOL, 0.0], dtype=complex)
    circuit = EncodingCircuit((SIGMA_X, SIGMA_Z), state)
    plan = kraus_from_estimate(circuit, [0.2, 0.3], 0.5)
    assert np.linalg.norm(plan.guess_state) == pytest.approx(1.0 + 0.9 * STATE_NORM_TOL)


def test_perfect_guess_boosts_qfim_by_inverse_t_squared():
    rng = np.random.default_rng(62)
    for t in (0.1, 0.3, 1.0):
        circuit = random_circuit(rng)
        theta = rng.uniform(-1.5, 1.5, circuit.n_params)
        plan = kraus_from_estimate(circuit, theta, t)
        boosted, prob = qfim_postselected(circuit, theta, plan.effect)
        plain = qfim_pure(circuit, theta)
        assert prob == pytest.approx(t * t, abs=1e-12)
        assert np.max(np.abs(boosted - plain / (t * t))) < 1e-9 / (t * t)


def test_report_fields_are_consistent():
    circuit = reference_circuit()
    theta = np.array([math.pi / 4.0, math.pi / 4.0])
    guess = theta + np.array([0.1, -0.1])
    t = 1.0 / math.sqrt(10.0)
    report = distillation_report(circuit, theta, guess, t, trials=100)
    assert report.plan.transmissivity == pytest.approx(t)
    assert np.array_equal(report.plan.theta_guess, guess)
    assert report.success_prob == pytest.approx(0.10520215740019678, abs=1e-12)
    assert np.max(np.abs(report.qfim_predicted - report.qfim_undistilled / (t * t))) < 1e-12
    expected_residual = float(
        np.max(np.abs(report.success_prob * report.qfim_exact - report.qfim_undistilled))
    )
    assert report.lossless_residual == pytest.approx(expected_residual)
    assert report.regime_ratio == pytest.approx(0.02 / (t * t))
    assert report.risk_before is not None
    assert report.risk_after is not None
    # distillation with a decent guess keeps the per-copy risk close
    assert report.risk_after[0] == pytest.approx(report.risk_before[0], rel=0.1)
    assert report.risk_after[1] == 2.0 * report.risk_after[0]


def test_report_matches_separate_computations():
    rng = np.random.default_rng(77)
    for dim, n_params in ((2, 2), (5, 3), (16, 8), (32, 5)):
        circuit = random_circuit(rng, dim=dim, n_params=n_params)
        theta = rng.uniform(-1.5, 1.5, n_params)
        guess = theta + 0.05 * rng.standard_normal(n_params)
        report = distillation_report(circuit, theta, guess, 0.4)
        plan = kraus_from_estimate(circuit, guess, 0.4)
        tensor, prob = postselected_geometric_tensor(circuit, theta, plan.effect)
        qfim_exact = qfim_from_tensor(tensor)
        curvature_exact = curvature_from_tensor(tensor)
        assert np.array_equal(report.qfim_undistilled, qfim_pure(circuit, theta))
        assert np.array_equal(report.curvature_undistilled, uhlmann_curvature(circuit, theta))
        # The report filters in split form, the effect route densely: the two
        # agree to roundoff, measured against the postselected tensor's size.
        scale = float(np.max(np.abs(qfim_exact)))
        assert np.max(np.abs(report.qfim_exact - qfim_exact)) <= 1e-12 * scale
        assert np.max(np.abs(report.curvature_exact - curvature_exact)) <= 1e-12 * scale
        assert report.success_prob == pytest.approx(prob, rel=1e-12, abs=0.0)


def test_exact_guess_distils_losslessly_at_small_t():
    # The first theorem: p = t^2 and p * QFIM_ps = QFIM at any t above the floor.
    rng = np.random.default_rng(78)
    for dim, n_params in ((4, 2), (16, 4), (64, 6), (128, 8)):
        circuit = random_circuit(rng, dim=dim, n_params=n_params)
        theta = rng.uniform(-1.5, 1.5, circuit.n_params)
        for t in (1e-5, *10.0 ** rng.uniform(-5.0, 0.0, 3)):
            report = distillation_report(circuit, theta, theta, t)
            assert abs(report.success_prob / (t * t) - 1.0) <= 1e-12
            plain = report.qfim_undistilled
            gap = np.max(np.abs(report.success_prob * report.qfim_exact - plain))
            assert gap <= 1e-12 * np.max(np.abs(plain))


def test_residual_is_second_order_in_guess_error_at_scale():
    # Guess error delta = s * t * u: each halving of s divides the residual by about 4.
    rng = np.random.default_rng(90)
    for dim, n_params in ((4, 2), (16, 4), (64, 6), (128, 8)):
        circuit = random_circuit(rng, dim=dim, n_params=n_params)
        for _ in range(3):
            theta = rng.uniform(-1.5, 1.5, n_params)
            t = float(10.0 ** rng.uniform(-5.0, 0.0))
            direction = rng.standard_normal(n_params)
            direction /= np.linalg.norm(direction)
            residuals = [
                distillation_report(circuit, theta, theta + s * t * direction, t).lossless_residual
                for s in (4e-3, 2e-3, 1e-3)
            ]
            for coarse, fine in zip(residuals, residuals[1:]):
                assert 1.8 <= math.log2(coarse / fine) <= 2.2


def test_commuting_report_at_small_t_has_no_curvature():
    # Im(tensor) carries roundoff of the whole tensor, about 1e10 here; the
    # curvature gate must not read that as antisymmetry drift.
    config = load_scenario(COMMUTING)
    report = distillation_report(build_circuit(config), config.theta_true, config.theta_guess, 1e-5)
    assert np.max(np.abs(report.curvature_exact)) <= 1e-12 * np.max(np.abs(report.qfim_exact))


def test_report_builds_one_tangent_frame(monkeypatch):
    calls = []
    original = qfisher.distill.tangent_frame

    def counting(circuit, theta):
        calls.append(theta)
        return original(circuit, theta)

    monkeypatch.setattr(qfisher.distill, "tangent_frame", counting)
    circuit = reference_circuit()
    theta = [math.pi / 4.0, math.pi / 4.0]
    distillation_report(circuit, theta, [0.8, 0.7], 0.3)
    assert len(calls) == 1


def test_report_risk_is_none_for_singular_qfim():
    circuit = reference_circuit()
    # theta1 = 0 makes the reference QFIM singular
    report = distillation_report(circuit, [0.0, math.pi / 4.0], [0.1, math.pi / 4.0], 0.5)
    assert report.risk_before is None
    assert report.risk_after is None
    assert report.lossless_residual >= 0.0


def test_report_tensor_of_inexact_guess_is_stable_at_small_t():
    # With an inexact guess p stays O(1) while qfim_exact is O(t^2): the
    # tangent Gram and the state-overlap outer product cancel unless the
    # tangents are projected off the state before the Gram is formed.
    config = load_scenario(REFERENCE)
    circuit = build_circuit(config)
    scaled = [
        distillation_report(circuit, config.theta_true, config.theta_guess, t).qfim_exact / t**2
        for t in (1e-7, 1e-6)
    ]
    assert np.max(np.abs(scaled[0] - scaled[1])) <= 1e-8 * np.max(np.abs(scaled[1]))
