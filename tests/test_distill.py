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
    curvature_postselected,
    distillation_report,
    evolve,
    kraus_from_estimate,
    load_scenario,
    postselect,
    qfim_postselected,
    qfim_pure,
    t_sweep,
    uhlmann_curvature,
)

from qfisher.circuit import STATE_NORM_TOL

from helpers import SIGMA_X, SIGMA_Z, random_circuit, reference_circuit

COMMUTING = Path(__file__).resolve().parent.parent / "scenarios" / "commuting_classical.json"


def test_transmissivity_validation():
    circuit = reference_circuit()
    guess = [0.2, 0.3]
    for bad in (0.0, -0.5, 1.5, float("nan"), True, "0.5"):
        with pytest.raises(ValidationError):
            kraus_from_estimate(circuit, guess, bad)


def test_full_transmissivity_gives_identity_filter():
    circuit = reference_circuit()
    plan = kraus_from_estimate(circuit, [0.2, 0.3], 1.0)
    assert np.max(np.abs(plan.kraus - np.eye(2))) < 1e-14
    assert np.max(np.abs(plan.effect - np.eye(2))) < 1e-14


def test_effect_spectrum_is_t_squared_and_one():
    circuit = reference_circuit()
    t = 0.3
    plan = kraus_from_estimate(circuit, [0.7, -0.4], t)
    eigenvalues = np.sort(np.linalg.eigvalsh(plan.effect))
    assert eigenvalues[0] == pytest.approx(t * t, abs=1e-12)
    assert eigenvalues[-1] == pytest.approx(1.0, abs=1e-12)
    # effect really is K^dag K
    assert np.max(np.abs(plan.kraus.conj().T @ plan.kraus - plan.effect)) < 1e-12


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
            filtered = plan.kraus @ evolve(circuit, theta)
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
    assert report.transmissivity == pytest.approx(t)
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
    assert report.risk_after.value == pytest.approx(report.risk_before.value, rel=0.1)


def test_report_matches_separate_computations():
    rng = np.random.default_rng(77)
    for dim, n_params in ((2, 2), (5, 3), (16, 8), (32, 5)):
        circuit = random_circuit(rng, dim=dim, n_params=n_params)
        theta = rng.uniform(-1.5, 1.5, n_params)
        guess = theta + 0.05 * rng.standard_normal(n_params)
        report = distillation_report(circuit, theta, guess, 0.4)
        plan = kraus_from_estimate(circuit, guess, 0.4)
        qfim_exact, prob = qfim_postselected(circuit, theta, plan.effect)
        curvature_exact, _ = curvature_postselected(circuit, theta, plan.effect)
        assert np.array_equal(report.qfim_undistilled, qfim_pure(circuit, theta))
        assert np.array_equal(report.curvature_undistilled, uhlmann_curvature(circuit, theta))
        # The report filters in split form, the effect route densely: the two
        # agree to roundoff, measured against the postselected tensor's size.
        scale = float(np.max(np.abs(qfim_exact)))
        assert np.max(np.abs(report.qfim_exact - qfim_exact)) <= 1e-12 * scale
        assert np.max(np.abs(report.curvature_exact - curvature_exact)) <= 1e-12 * scale
        assert report.success_prob == pytest.approx(prob, rel=1e-12, abs=0.0)


def test_exact_guess_distils_losslessly_at_small_t():
    rng = np.random.default_rng(78)
    for dim in (4, 32, 128):
        circuit = random_circuit(rng, dim=dim, n_params=4)
        theta = rng.uniform(-1.5, 1.5, circuit.n_params)
        for t in (1e-1, 1e-3, 1e-5):
            report = distillation_report(circuit, theta, theta, t)
            assert abs(report.success_prob / (t * t) - 1.0) <= 1e-12
            plain = report.qfim_undistilled
            gap = np.max(np.abs(report.success_prob * report.qfim_exact - plain))
            assert gap <= 1e-12 * np.max(np.abs(plain))


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
    t_sweep(circuit, theta, [0.8, 0.7], [1.0, 0.5, 0.2])
    assert len(calls) == 4


def test_report_risk_is_none_for_singular_qfim():
    circuit = reference_circuit()
    # theta1 = 0 makes the reference QFIM singular
    report = distillation_report(circuit, [0.0, math.pi / 4.0], [0.1, math.pi / 4.0], 0.5)
    assert report.risk_before is None
    assert report.risk_after is None
    assert report.lossless_residual >= 0.0


def test_sweep_collects_per_point_failures():
    circuit = reference_circuit()
    theta = [math.pi / 4.0, math.pi / 4.0]
    points = t_sweep(circuit, theta, theta, [0.5, 2.0, 1e-7])
    assert points[0].report is not None and points[0].error is None
    # out-of-range transmissivity fails validation
    assert points[1].report is None and "transmissivity" in points[1].error
    # tiny t with a perfect guess drives success probability under the floor
    assert points[2].report is None and "probability" in points[2].error


def test_sweep_orders_match_input():
    circuit = reference_circuit()
    theta = [0.6, 0.2]
    guess = [0.65, 0.15]
    values = [1.0, 0.7, 0.4]
    points = t_sweep(circuit, theta, guess, values)
    assert [p.transmissivity for p in points] == values
    for point in points:
        assert point.report is not None
