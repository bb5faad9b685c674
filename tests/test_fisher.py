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
from qfisher.estimator import crb_comparison
from qfisher.fisher import curvature_from_tensor, qfim_from_tensor, require_effect
from qfisher.kirkwood import analyze_pair

from helpers import (
    SIGMA_X,
    fd_qfim,
    random_circuit,
    random_projective_povm,
    random_smeared_effect,
    random_unitary,
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
        validate_povm((-eye, 2.0 * eye))
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


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_classical_fim_divergence_warning_ignores_generator_scale(scale):
    # A -> cA, theta -> theta/c gives the same state with p_0 = 9e-14 and
    # slopes c times as large: the dropped outcome must warn at every c.
    from qfisher import EncodingCircuit

    circuit = EncodingCircuit((scale * SIGMA_X,), np.array([1.0, 0.0], dtype=complex))
    basis = (np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex))
    with pytest.warns(DivergentInformationWarning, match="^outcome 0 has probability 9.000e-14"):
        classical_fim(circuit, [(math.pi / 2 - 3e-7) / scale], basis)
    # At theta = 0 the dropped outcome 1 is stationary: no warning at any c.
    assert classical_fim(circuit, [0.0], basis)[0, 0] == 0.0


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


@pytest.mark.parametrize(
    "matrix, message",
    [
        ([[1.0, 0.5], [0.0, 1.0]], "is not Hermitian"),
        ([[1.0, 5.0], [5.0, 1.0]], "is not positive semidefinite: min eigenvalue -4"),
    ],
)
def test_information_matrix_must_be_symmetric_positive(matrix, message):
    curvature = np.array([[0.0, 0.1], [-0.1, 0.0]])
    with pytest.raises(ValidationError, match="^fim " + message):
        learnability_interval(matrix)
    with pytest.raises(ValidationError, match="^qfim " + message):
        geometric_quantumness(matrix, curvature)


def test_geometric_quantumness_requires_antisymmetric_curvature():
    with pytest.raises(ValidationError, match="^curvature is not antisymmetric"):
        geometric_quantumness(np.eye(2), np.array([[0.0, 0.1], [0.1, 0.0]]))
    with pytest.raises(ValidationError, match="^curvature is not antisymmetric"):
        geometric_quantumness(np.eye(2), np.array([[0.2, 0.1], [-0.1, 0.0]]))
    # The tolerance scales with the QFIM: a curvature that is pure roundoff
    # against it passes, however asymmetric relative to its own entries.
    roundoff = np.array([[1e-15, 3e-15], [-2e-15, 0.0]])
    assert geometric_quantumness(4.0 * np.eye(2), roundoff) < 1e-14


def _split_basis_povm(rng, dim, outcomes):
    """A projective POVM whose effects project onto groups of random basis vectors."""
    basis = random_unitary(rng, dim)
    return [group @ group.conj().T for group in np.array_split(basis, outcomes, axis=1)]


@pytest.mark.parametrize("dim, n_params", [(4, 2), (8, 4), (32, 8), (128, 16)])
def test_symmetric_readings_match_general_inverse_and_eigvals(dim, n_params):
    """Risk, quantumness and CRB bound against NumPy's general-matrix inv and
    eigvals on seeded dense circuits: the reference the factorisation replaced."""
    rng = np.random.default_rng(1000 + dim)
    circuit = random_circuit(rng, dim, n_params)
    theta = rng.uniform(-math.pi, math.pi, n_params)
    tensor = geometric_tensor(circuit, theta)
    qfim, curvature = qfim_from_tensor(tensor), curvature_from_tensor(tensor)
    weight = np.diag(rng.uniform(0.5, 2.0, n_params))
    lower, _ = learnability_interval(qfim, weight, trials=7)
    expected = float(np.trace(weight @ np.linalg.inv(qfim))) / 7
    assert lower == pytest.approx(expected, rel=1e-10, abs=0.0)
    value = geometric_quantumness(qfim, curvature)
    reference = float(np.max(np.abs(np.linalg.eigvals(1j * np.linalg.inv(qfim) @ curvature))))
    assert value == pytest.approx(reference, rel=1e-10, abs=1e-14)
    povm = _split_basis_povm(rng, dim, n_params + 2)
    fim = classical_fim(circuit, theta, povm)
    bound = crb_comparison(rng.normal(theta, 0.1, (3, n_params)), circuit, theta, povm, 50).bound
    inverse = np.linalg.inv(50 * fim)
    assert np.max(np.abs(bound - inverse)) <= 1e-10 * np.max(np.abs(inverse))


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


def test_effect_above_the_identity_is_refused():
    circuit = reference_circuit()
    with pytest.raises(ValidationError, match="exceeds the identity: max eigenvalue 3"):
        postselected_geometric_tensor(circuit, [0.1, 0.2], 3.0 * np.eye(2))
    with pytest.raises(ValidationError, match="exceeds the identity: max eigenvalue 2"):
        analyze_pair(circuit, [0.1, 0.2], (0, 1), 2.0 * np.eye(2))
    with pytest.raises(ValidationError, match=r"^povm\[0\] exceeds the identity: max eigenvalue 5"):
        validate_povm([np.diag([5.0, 0.0]), np.zeros((2, 2))])
    # the top of a projector is 1 up to roundoff
    tensor, prob = postselected_geometric_tensor(circuit, [0.1, 0.2], np.diag([1.0 + 1e-12, 0.0]))
    assert 0.0 < prob <= 1.0
    # a 1 x 1 effect has one eigenvalue, both the floor's and the ceiling's
    assert require_effect([[1.0]])[0, 0] == 1.0
    with pytest.raises(ValidationError, match="exceeds the identity"):
        require_effect([[1.5]])


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
