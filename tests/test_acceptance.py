"""Acceptance suite: one test per shipped guarantee, tolerances pinned.

Each test prints a one-line verdict with its measured figure of merit and
asserts both the numerical claim and a wall-clock budget. Random inputs
are always generated from fixed seeds, so the whole suite is
deterministic.
"""

import math
import time

import numpy as np

from qfisher import (
    EncodingCircuit,
    analyze_pair,
    distillation_report,
    geometric_quantumness,
    kraus_from_estimate,
    postselected_geometric_tensor,
    qfim_postselected,
    qfim_pure,
    run_crb_study,
    tangent_frame,
    uhlmann_curvature,
)

from qfisher.fisher import curvature_from_tensor, qfim_from_tensor

from helpers import (
    fd_qfim,
    fd_tangents,
    random_circuit,
    random_smeared_effect,
    random_state,
    random_unitary,
    reference_circuit,
    reference_qfim,
)


def _report(number, detail):
    print(f"criterion {number}: PASS ({detail})")


def test_criterion_1_closed_form_qfim_grid():
    start = time.perf_counter()
    circuit = reference_circuit()
    worst = 0.0
    axis = np.linspace(0.0, math.pi / 2.0, 5)
    for theta1 in axis:
        for theta2 in axis:
            computed = qfim_pure(circuit, [float(theta1), float(theta2)])
            worst = max(worst, float(np.max(np.abs(computed - reference_qfim(float(theta1))))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 1.0
    _report(1, f"25 grid points, max deviation {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_reference_distillation_boost():
    start = time.perf_counter()
    circuit = reference_circuit()
    theta = np.array([math.pi / 4.0, math.pi / 4.0])
    guess = theta + np.array([0.1, -0.1])
    t = 1.0 / math.sqrt(10.0)
    report = distillation_report(circuit, theta, guess, t)
    predicted = reference_qfim(theta[0]) / (t * t)
    entry_dev = float(np.max(np.abs(report.qfim_exact / predicted - 1.0)))
    elapsed = time.perf_counter() - start
    assert 0.08 <= report.success_prob <= 0.12
    assert entry_dev <= 0.25
    assert elapsed < 1.0
    _report(
        2,
        f"success prob {report.success_prob:.4f}, worst entry deviation "
        f"{entry_dev:.3f}, {elapsed:.2f}s",
    )


def test_criterion_3_perfect_guess_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(300)
    worst_prob = 0.0
    worst_entry = 0.0
    for _ in range(50):
        circuit = random_circuit(rng, max_dim=5, max_params=4)
        theta = rng.uniform(-1.5, 1.5, circuit.n_params)
        plain = qfim_pure(circuit, theta)
        for t in (0.1, 0.3, 1.0):
            plan = kraus_from_estimate(circuit, theta, t)
            boosted, prob = qfim_postselected(circuit, theta, plan.effect)
            worst_prob = max(worst_prob, abs(prob - t * t))
            worst_entry = max(worst_entry, float(np.max(np.abs(boosted - plain / (t * t)))))
    elapsed = time.perf_counter() - start
    assert worst_prob <= 1e-9
    assert worst_entry <= 1e-9
    assert elapsed < 30.0
    _report(
        3,
        f"50 circuits x 3 transmissivities, worst |p - t^2| {worst_prob:.3e}, "
        f"worst matrix deviation {worst_entry:.3e}, {elapsed:.2f}s",
    )


def test_criterion_4_quadratic_error_scaling():
    start = time.perf_counter()
    rng = np.random.default_rng(400)
    t = 0.3
    scales = (0.04, 0.02, 0.01)
    slopes = []
    for _ in range(20):
        circuit = random_circuit(rng, max_dim=5, n_params=int(rng.integers(2, 4)))
        theta = rng.uniform(-1.5, 1.5, circuit.n_params)
        direction = rng.standard_normal(circuit.n_params)
        direction /= np.linalg.norm(direction)
        plain_qfim = qfim_pure(circuit, theta)
        plain_curv = uhlmann_curvature(circuit, theta)
        residuals = {"transform": [], "lossless": [], "curvature": []}
        for scale in scales:
            guess = theta + scale * direction
            plan = kraus_from_estimate(circuit, guess, t)
            tensor, prob = postselected_geometric_tensor(circuit, theta, plan.effect)
            boosted = qfim_from_tensor(tensor)
            curv_ps = curvature_from_tensor(tensor)
            residuals["transform"].append(float(np.max(np.abs(boosted - plain_qfim / (t * t)))))
            residuals["lossless"].append(float(np.max(np.abs(prob * boosted - plain_qfim))))
            residuals["curvature"].append(float(np.max(np.abs(prob * curv_ps - plain_curv))))
        for series in residuals.values():
            for big, small in zip(series, series[1:]):
                if big < 1e-12 or small < 1e-12:
                    continue  # below float noise, slope is meaningless
                slopes.append(math.log(big / small) / math.log(2.0))
    elapsed = time.perf_counter() - start
    assert slopes, "no residuals rose above the noise floor"
    assert min(slopes) >= 1.8
    assert max(slopes) <= 2.2
    assert elapsed < 30.0
    _report(
        4,
        f"{len(slopes)} slopes in [{min(slopes):.2f}, {max(slopes):.2f}], "
        f"target 2 +- 0.2, {elapsed:.2f}s",
    )


def _random_effect_for_pair(rng, circuit, theta):
    """Effect with success probability at least 1e-3 on the evolved state.

    Alternates between full-rank smeared effects and rank-deficient
    projectors; the latter are resampled when the state lands too close
    to the kernel, where roundoff would swamp the comparison.
    """
    from qfisher import evolve

    state = evolve(circuit, theta)
    for _ in range(100):
        if rng.random() < 0.5:
            effect = random_smeared_effect(rng, circuit.dim)
        else:
            rank = int(rng.integers(1, circuit.dim))
            basis = random_unitary(rng, circuit.dim)[:, :rank]
            effect = basis @ basis.conj().T
        prob = float(np.real(state.conj() @ effect @ state))
        if prob >= 1e-3:
            return effect
    raise AssertionError("could not draw an effect with workable success probability")


def test_criterion_5_quasiprob_path_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(500)
    worst = 0.0
    for _ in range(200):
        circuit = random_circuit(rng, max_dim=5, n_params=int(rng.integers(2, 5)))
        theta = rng.uniform(-1.5, 1.5, circuit.n_params)
        effect = _random_effect_for_pair(rng, circuit, theta)
        i = int(rng.integers(0, circuit.n_params))
        j = int(rng.integers(0, circuit.n_params))
        entry = analyze_pair(circuit, theta, (i, j), effect).entry
        direct, _ = qfim_postselected(circuit, theta, effect)
        worst = max(worst, abs(entry - float(direct[i, j])))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 60.0
    _report(5, f"200 scenarios, worst path disagreement {worst:.3e}, {elapsed:.2f}s")


def test_criterion_6_negativity_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(600)
    counterexamples = 0
    anomalous = 0
    for _ in range(500):
        circuit = random_circuit(rng, max_dim=5, n_params=int(rng.integers(2, 5)))
        theta = rng.uniform(-1.5, 1.5, circuit.n_params)
        effect = _random_effect_for_pair(rng, circuit, theta)
        i = int(rng.integers(0, circuit.n_params))
        j = int(rng.integers(0, circuit.n_params))
        analysis = analyze_pair(circuit, theta, (i, j), effect)
        if abs(analysis.entry) > analysis.spread_i * analysis.spread_j:
            anomalous += 1
        if not analysis.consistent:
            counterexamples += 1
    worst_excess = 0.0
    for _ in range(200):
        dim = int(rng.integers(2, 6))
        gens = tuple(
            np.diag(rng.uniform(-2.0, 2.0, dim)).astype(complex) for _ in range(2)
        )
        circuit = EncodingCircuit(gens, random_state(rng, dim))
        theta = rng.uniform(-1.5, 1.5, 2)
        effect = np.diag(rng.uniform(0.05, 1.0, dim)).astype(complex)
        analysis = analyze_pair(circuit, theta, (0, 1), effect)
        assert analysis.classical
        excess = abs(analysis.entry) - analysis.spread_i * analysis.spread_j
        worst_excess = max(worst_excess, excess)
    elapsed = time.perf_counter() - start
    assert counterexamples == 0
    assert worst_excess <= 1e-8
    assert elapsed < 120.0
    _report(
        6,
        f"500 scenarios ({anomalous} anomalous) with 0 counterexamples; 200 "
        f"commuting cases respect the bound (worst excess {worst_excess:.3e}), "
        f"{elapsed:.2f}s",
    )


def test_criterion_7_finite_difference_validation():
    start = time.perf_counter()
    rng = np.random.default_rng(700)
    worst_qfim = 0.0
    worst_tangent = 0.0
    for _ in range(100):
        circuit = random_circuit(rng, max_dim=5, max_params=4)
        theta = rng.uniform(-1.5, 1.5, circuit.n_params)
        worst_qfim = max(
            worst_qfim,
            float(np.max(np.abs(qfim_pure(circuit, theta) - fd_qfim(circuit, theta, 1e-5)))),
        )
        _, analytic = tangent_frame(circuit, theta)
        worst_tangent = max(
            worst_tangent, float(np.max(np.abs(analytic - fd_tangents(circuit, theta, 1e-5))))
        )
    elapsed = time.perf_counter() - start
    assert worst_qfim <= 1e-6
    assert worst_tangent <= 1e-6
    assert elapsed < 30.0
    _report(
        7,
        f"100 circuits, worst deviation: qfim {worst_qfim:.3e}, "
        f"tangents {worst_tangent:.3e}, {elapsed:.2f}s",
    )


def test_criterion_8_crb_monte_carlo():
    start = time.perf_counter()
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    circuit = EncodingCircuit((sigma_x,), np.array([1.0, 0.0], dtype=complex))
    povm = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    trials = 10000
    study = run_crb_study(circuit, [0.3], povm, trials, 200, 20240817)
    variance = float(study.comparison.empirical_cov[0, 0])
    bound = float(study.comparison.bound[0, 0])
    ratio = variance / bound
    again = run_crb_study(circuit, [0.3], povm, trials, 200, 20240817)
    elapsed = time.perf_counter() - start
    assert abs(bound - 1.0 / (4.0 * trials)) < 1e-12
    assert 1.0 <= ratio <= 1.3
    assert np.array_equal(study.estimates, again.estimates)
    assert elapsed < 60.0
    _report(
        8,
        f"200 batches of {trials}, variance/bound {ratio:.4f} in [1.0, 1.3], "
        f"rerun bit-identical, {elapsed:.2f}s",
    )


def test_criterion_9_quantumness_range_and_invariance():
    start = time.perf_counter()
    rng = np.random.default_rng(900)
    t = 0.3
    scales = (0.01, 0.005)
    slopes = []
    checked = 0
    while checked < 50:
        circuit = random_circuit(rng, dim=int(rng.integers(3, 6)), n_params=int(rng.integers(2, 4)))
        theta = rng.uniform(-1.5, 1.5, circuit.n_params)
        plain_qfim = qfim_pure(circuit, theta)
        spectrum = np.linalg.eigvalsh(plain_qfim)
        if spectrum[0] <= 0.0 or spectrum[-1] / spectrum[0] > 1e6:
            continue  # quantumness needs a well-conditioned inverse
        checked += 1
        plain_curv = uhlmann_curvature(circuit, theta)
        base = geometric_quantumness(plain_qfim, plain_curv)
        assert 0.0 <= base <= 1.0 + 1e-9
        direction = rng.standard_normal(circuit.n_params)
        direction /= np.linalg.norm(direction)
        diffs = []
        for scale in scales:
            plan = kraus_from_estimate(circuit, theta + scale * direction, t)
            tensor, _ = postselected_geometric_tensor(circuit, theta, plan.effect)
            boosted = qfim_from_tensor(tensor)
            curv_ps = curvature_from_tensor(tensor)
            value = geometric_quantumness(boosted, curv_ps)
            assert 0.0 <= value <= 1.0 + 1e-9
            diffs.append(abs(value - base))
        if min(diffs) < 1e-12:
            continue  # boundary-pinned or noise-floor case, no usable slope
        slopes.append(math.log(diffs[0] / diffs[1]) / math.log(2.0))
    elapsed = time.perf_counter() - start
    assert slopes, "no quantumness shifts rose above the noise floor"
    assert min(slopes) >= 1.8
    assert max(slopes) <= 2.2
    assert elapsed < 30.0
    _report(
        9,
        f"50 scenarios in range, {len(slopes)} invariance slopes in "
        f"[{min(slopes):.2f}, {max(slopes):.2f}], {elapsed:.2f}s",
    )
