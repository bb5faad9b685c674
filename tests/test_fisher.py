import math
import sys

import numpy as np
import pytest

from qfisher import (
    DivergentInformationWarning,
    NumericError,
    ValidationError,
    classical_fim,
    geometric_quantumness,
    geometric_tensor,
    learnability_interval,
    postselected_geometric_tensor,
    qfim_pure,
    uhlmann_curvature,
    validate_povm,
)
from qfisher.fisher import qfim_from_tensor

from helpers import (
    SIGMA_X,
    fd_qfim,
    random_circuit,
    random_projective_povm,
    random_smeared_effect,
    reference_circuit,
    reference_qfim,
    sic_povm,
)

# Classical FIM of the tetrahedral POVM at theta = (pi/4, pi/4), pinned
# from an independent run built on closed-form states and finite
# differences of the outcome probabilities.
SIC_FIM_PINNED = np.array(
    [[2.0, 1.0448154998368742], [1.0448154998368742, 1.4775922500300114]]
)


def test_qfim_matches_reference_closed_form():
    circuit = reference_circuit()
    for theta1 in (0.0, 0.3, math.pi / 4, 1.2):
        qfim = qfim_pure(circuit, [theta1, math.pi / 4])
        assert np.max(np.abs(qfim - reference_qfim(theta1))) < 1e-12


def test_qfim_matches_finite_differences():
    rng = np.random.default_rng(41)
    for _ in range(10):
        circuit = random_circuit(rng)
        theta = rng.uniform(-1.5, 1.5, circuit.n_params)
        assert np.max(np.abs(qfim_pure(circuit, theta) - fd_qfim(circuit, theta))) < 1e-6


def test_uhlmann_curvature_antisymmetric_with_zero_diagonal():
    rng = np.random.default_rng(42)
    for _ in range(10):
        circuit = random_circuit(rng, n_params=3)
        theta = rng.uniform(-1.5, 1.5, 3)
        curv = uhlmann_curvature(circuit, theta)
        assert np.array_equal(curv, -curv.T)
        assert np.all(np.diag(curv) == 0.0)


def test_reference_curvature_value():
    curv = uhlmann_curvature(reference_circuit(), [math.pi / 4, math.pi / 4])
    assert abs(abs(curv[0, 1]) - 2.0 * math.sqrt(2.0)) < 1e-12


def test_qfim_from_tensor_rejects_asymmetric():
    with pytest.raises(NumericError):
        qfim_from_tensor(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_validate_povm_accepts_sic_and_projective():
    stack = validate_povm(sic_povm())
    assert stack.shape == (4, 2, 2)
    assert np.array_equal(stack, np.array(sic_povm()))
    rng = np.random.default_rng(5)
    assert validate_povm(random_projective_povm(rng, 4)).shape == (4, 4, 4)


def test_validate_povm_rejects_bad_sets():
    eye = np.eye(2, dtype=complex)
    with pytest.raises(ValidationError, match="identity"):
        validate_povm((eye,  eye))
    with pytest.raises(ValidationError, match="positive"):
        validate_povm((2.0 * eye, -eye))
    with pytest.raises(ValidationError):
        validate_povm(())


def test_classical_fim_pinned_sic_values():
    circuit = reference_circuit()
    fim = classical_fim(circuit, [math.pi / 4, math.pi / 4], sic_povm())
    assert np.max(np.abs(fim - SIC_FIM_PINNED)) < 1e-7


def test_classical_fim_never_exceeds_quantum():
    rng = np.random.default_rng(43)
    for _ in range(10):
        circuit = random_circuit(rng)
        theta = rng.uniform(-1.5, 1.5, circuit.n_params)
        gap = qfim_pure(circuit, theta) - classical_fim(
            circuit, theta, random_projective_povm(rng, circuit.dim)
        )
        assert float(np.linalg.eigvalsh(gap)[0]) > -1e-8


def test_classical_fim_warns_on_divergent_outcome():
    # near theta = 0 the excited-state outcome has vanishing probability
    # but non-vanishing slope, so the dropped term hides a divergence
    from qfisher import EncodingCircuit

    single = EncodingCircuit((SIGMA_X,), np.array([1.0, 0.0], dtype=complex))
    basis = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    with pytest.warns(DivergentInformationWarning):
        classical_fim(single, [1e-7], basis)


def test_learnability_interval_identity_weight():
    lower, _ = learnability_interval(np.diag([4.0, 2.0]))
    assert lower == pytest.approx(0.25 + 0.5)
    scaled, _ = learnability_interval(np.diag([4.0, 2.0]), trials=100)
    assert scaled == pytest.approx((0.25 + 0.5) / 100.0)


def test_learnability_interval_validates_weight():
    with pytest.raises(ValidationError):
        learnability_interval(np.eye(2), weight=np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValidationError):
        learnability_interval(np.eye(2), weight=np.diag([1.0, -1.0]))
    with pytest.raises(ValidationError):
        learnability_interval(np.eye(2), trials=0)


def test_learnability_interval_refuses_a_count_too_large_for_a_float():
    largest = int(sys.float_info.max)
    assert learnability_interval(np.eye(2), trials=largest)[0] == 2.0 / sys.float_info.max
    with pytest.raises(ValidationError, match=r"^trials must be at most 1\.79\d*e\+308, got 10*$"):
        learnability_interval(np.eye(2), trials=10**400)


def test_learnability_interval_rejects_singular_fim():
    with pytest.raises(NumericError, match="singular"):
        learnability_interval(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_learnability_interval_upper_is_twice_lower():
    rng = np.random.default_rng(44)
    for _ in range(5):
        circuit = random_circuit(rng, n_params=2)
        theta = rng.uniform(-1.0, 1.0, 2)
        qfim = qfim_pure(circuit, theta)
        if float(np.linalg.eigvalsh(qfim)[0]) < 1e-6:
            continue
        lower, upper = learnability_interval(qfim)
        assert upper == 2.0 * lower
        assert lower > 0.0


def test_geometric_quantumness_reference_is_maximal():
    circuit = reference_circuit()
    theta = [math.pi / 4, math.pi / 4]
    value = geometric_quantumness(qfim_pure(circuit, theta), uhlmann_curvature(circuit, theta))
    assert value == pytest.approx(1.0, abs=1e-9)


def test_geometric_quantumness_zero_for_commuting():
    gens = (np.diag([1.0, 0.0, -1.0]).astype(complex), np.diag([0.5, -0.2, 0.3]).astype(complex))
    from qfisher import EncodingCircuit

    circuit = EncodingCircuit(gens, np.ones(3, dtype=complex) / math.sqrt(3.0))
    theta = [0.4, 0.9]
    value = geometric_quantumness(qfim_pure(circuit, theta), uhlmann_curvature(circuit, theta))
    assert value < 1e-12


def test_postselected_tensor_with_identity_effect_reduces_to_plain():
    rng = np.random.default_rng(45)
    for _ in range(8):
        circuit = random_circuit(rng)
        theta = rng.uniform(-1.5, 1.5, circuit.n_params)
        plain = geometric_tensor(circuit, theta)
        tensor, prob = postselected_geometric_tensor(circuit, theta, np.eye(circuit.dim))
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(tensor - plain)) < 1e-10


def test_postselected_tensor_rejects_vanishing_probability():
    circuit = reference_circuit()
    # at theta = 0 the state is |0>, orthogonal to the |1> projector
    effect = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(NumericError, match="probability"):
        postselected_geometric_tensor(circuit, [0.0, 0.0], effect)


def test_postselected_tensor_requires_valid_effect():
    circuit = reference_circuit()
    with pytest.raises(ValidationError):
        postselected_geometric_tensor(circuit, [0.1, 0.2], -np.eye(2))
    with pytest.raises(ValidationError):
        postselected_geometric_tensor(circuit, [0.1, 0.2], np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_random_effect_probability_and_psd():
    rng = np.random.default_rng(46)
    for _ in range(8):
        circuit = random_circuit(rng)
        theta = rng.uniform(-1.5, 1.5, circuit.n_params)
        effect = random_smeared_effect(rng, circuit.dim)
        tensor, prob = postselected_geometric_tensor(circuit, theta, effect)
        assert 0.0 < prob <= 1.0 + 1e-12
        qfim = qfim_from_tensor(tensor)
        assert float(np.linalg.eigvalsh(qfim)[0]) > -1e-8
