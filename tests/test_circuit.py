import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qfisher import (
    EncodingCircuit,
    ValidationError,
    evolve,
    qfim_pure,
    tangent_frame,
    uhlmann_curvature,
)
from qfisher import circuit as circuit_module
from qfisher import linalg
from qfisher.circuit import _check_int, _check_pair, _check_real

from helpers import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    closed_qubit_state,
    conjugated_generator,
    fd_tangents,
    random_circuit,
    random_problem,
    reference_circuit,
    three_param_problem,
)

# (D, M) cases up to D=32, M=8, checked beside the small random circuits.
LARGE_SIZES = ((16, 3), (16, 8), (32, 5), (32, 8))

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


def test_rejects_non_hermitian_generator():
    with pytest.raises(ValidationError, match=r"generators\[1\] is not Hermitian"):
        EncodingCircuit((SIGMA_X, np.array([[0.0, 1.0], [0.0, 0.0]])), np.array([1.0, 0.0]))


def test_build_checks_each_generator_once(monkeypatch):
    """One Hermiticity check per generator: herm_eig trusts the checked copy."""
    calls = []
    check = linalg.require_hermitian

    def counting(values, name="matrix", **kwargs):
        calls.append(name)
        return check(values, name, **kwargs)

    monkeypatch.setattr(circuit_module, "require_hermitian", counting)
    monkeypatch.setattr(linalg, "require_hermitian", counting)
    random_circuit(np.random.default_rng(12), dim=8, n_params=5)
    assert calls == [f"generators[{m}]" for m in range(5)]


def test_rejects_mismatched_generator_dims():
    with pytest.raises(ValidationError):
        EncodingCircuit((SIGMA_X, np.eye(3)), np.array([1.0, 0.0]))


def test_rejects_empty_generator_list():
    with pytest.raises(ValidationError):
        EncodingCircuit((), np.array([1.0, 0.0]))


def test_rejects_unnormalized_state():
    with pytest.raises(ValidationError, match="normalized"):
        EncodingCircuit((SIGMA_X,), np.array([1.0, 1.0]))


def test_stored_arrays_are_write_locked_copies():
    state = np.array([1.0, 0.0], dtype=complex)
    circuit = EncodingCircuit((SIGMA_X.copy(),), state)
    with pytest.raises(ValueError):
        circuit.initial_state[0] = 5.0
    # the caller's own array stays writable
    state[0] = 3.0


def _held_arrays(value):
    """Every array reachable from ``value`` through attributes and tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _held_arrays(item)
    elif hasattr(value, "__dict__"):
        for item in vars(value).values():
            yield from _held_arrays(item)


def test_every_held_array_is_write_locked():
    circuit = random_circuit(np.random.default_rng(13), dim=6, n_params=3)
    arrays = list(_held_arrays(circuit))
    assert len(arrays) > 2 * circuit.n_params
    assert not any(arr.flags.writeable for arr in arrays)


@pytest.mark.parametrize("dim, n_params", [(32, 1), (32, 6), (64, 3)])
def test_circuit_holds_only_m_complex_dense_arrays(dim, n_params):
    """M complex D x D arrays for the sweep and O(M D) more. Another dense
    D x D array per gate fails, and so does a copy of the generators in any
    form."""
    circuit = random_circuit(np.random.default_rng(14), dim=dim, n_params=n_params)
    owners = {}
    for arr in _held_arrays(circuit):
        while isinstance(arr.base, np.ndarray):
            arr = arr.base
        owners[id(arr)] = arr.nbytes
    assert sum(owners.values()) <= n_params * dim**2 * 16 + 64 * n_params * dim


def test_evolve_single_generator_closed_form():
    circuit = EncodingCircuit((SIGMA_X,), np.array([1.0, 0.0], dtype=complex))
    out = evolve(circuit, [0.7])
    expected = np.array([math.cos(0.7), 1j * math.sin(0.7)])
    assert np.max(np.abs(out - expected)) < 1e-14


def test_evolve_matches_half_turn_product():
    circuit = reference_circuit()
    for theta in ([0.3, 1.1], [0.0, 0.0], [math.pi / 4, math.pi / 4], [-0.8, 2.4]):
        out = evolve(circuit, theta)
        assert np.max(np.abs(out - closed_qubit_state(theta))) < 1e-13


def test_evolve_applies_first_generator_first():
    # order matters: exp(i b B) exp(i a A) psi, not the reverse
    circuit = EncodingCircuit((SIGMA_X, SIGMA_Z), np.array([1.0, 0.0], dtype=complex))
    a, b = 0.4, 0.9
    eye = np.eye(2)
    ua = math.cos(a) * eye + 1j * math.sin(a) * SIGMA_X
    ub = math.cos(b) * eye + 1j * math.sin(b) * SIGMA_Z
    expected = ub @ ua @ np.array([1.0, 0.0])
    assert np.max(np.abs(evolve(circuit, [a, b]) - expected)) < 1e-13
    wrong = ua @ ub @ np.array([1.0, 0.0])
    assert np.max(np.abs(evolve(circuit, [a, b]) - wrong)) > 0.1


def test_evolve_rejects_bad_theta():
    circuit = EncodingCircuit((SIGMA_X,), np.array([1.0, 0.0], dtype=complex))
    with pytest.raises(ValidationError):
        evolve(circuit, [0.1, 0.2])
    with pytest.raises(ValidationError):
        evolve(circuit, [np.nan])


def _derivative_state(generators, circuit, theta, j):
    """Tangent along theta[j] as i * (effective generator j) |psi_theta>."""
    return 1j * conjugated_generator(generators, theta, j) @ evolve(circuit, theta)


# The "tilde generator" is generator m conjugated by every later gate; the
# tests below pin the oracle that the tangent-frame test relies on.
def test_tilde_generator_conjugation_known_case():
    # conjugating sigma_x by exp(i pi/4 sigma_z) rotates it onto -sigma_y
    generators = (SIGMA_X, SIGMA_Z)
    tilde = conjugated_generator(generators, [0.3, math.pi / 4], 0)
    assert np.max(np.abs(tilde + SIGMA_Y)) < 1e-12
    # the last parameter's generator is never conjugated
    assert np.max(np.abs(conjugated_generator(generators, [0.3, math.pi / 4], 1) - SIGMA_Z)) < 1e-14


def test_tilde_generator_preserves_spectrum():
    rng = np.random.default_rng(11)
    for _ in range(10):
        generators, _ = random_problem(rng)
        theta = rng.uniform(-1.5, 1.5, len(generators))
        m = int(rng.integers(0, len(generators)))
        tilde = conjugated_generator(generators, theta, m)
        original = np.linalg.eigvalsh(generators[m])
        assert np.max(np.abs(np.linalg.eigvalsh(tilde) - original)) < 1e-10


def test_index_validation():
    # the KD pair check reads each parameter index through _check_int
    assert _check_int(0, "index", 0, 0) == 0
    assert type(_check_int(np.int64(2), "index", 0, 2)) is int
    for bad in (1, -1, True, 0.0, 10**5000, -(10**5000)):
        with pytest.raises(ValidationError):
            _check_int(bad, "index", 0, 0)
    assert _check_pair(np.array([1, 0]), "pair", 2) == (1, 0)
    for bad in ({1, 0}, "ab", {"a": 1, "b": 0}, [0], (0, 1, 1), np.zeros((2, 2)), np.int64(1)):
        with pytest.raises(ValidationError, match="^pair must"):
            _check_pair(bad, "pair", 2)


# Any value the shared checks might be handed, including integers past
# Python's 4300-digit limit for printing one (built in a map, since Hypothesis
# prints its strategies).
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([1, -1]).map(lambda sign: sign * 10**5000)
    | st.sampled_from([np.int64(-3), np.uint64(2**64 - 1), np.bool_(True)])
    | st.floats()
    | st.complex_numbers()
    | st.text(max_size=3)
)
_ARRAYS = st.sampled_from([np.array([0, 1]), np.array(1), np.zeros((2, 2)), np.array(["a", "b"])])
_VALUES = st.recursive(
    _SCALARS | _ARRAYS,
    lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner, inner)
    | st.frozensets(_SCALARS, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=6,
)


@settings(deadline=None, derandomize=True, max_examples=150)
@given(
    value=_VALUES,
    low=st.integers(-2, 2),
    high=st.none() | st.integers(-2, 2) | st.just(1e308),
    n_params=st.integers(0, 3),
)
def test_shared_checks_raise_only_validation_errors(value, low, high, n_params):
    for check, args, kind in (
        (_check_int, (low, high), int),
        (_check_pair, (n_params,), tuple),
        (_check_real, (), float),
    ):
        try:
            result = check(value, "x", *args)
        except ValidationError:
            continue
        assert type(result) is kind
        if check is _check_pair:
            assert result == (value[0], value[1])  # read in order, never from a set


def _gate_unitary(generator, angle):
    """exp(i angle generator) column by column: evolve of each basis state."""
    eye = np.eye(generator.shape[0], dtype=complex)
    circuits = [EncodingCircuit((generator,), column) for column in eye]
    return np.column_stack([evolve(circuit, [angle]) for circuit in circuits])


# Evolving each basis state through one gate gives a column of its unitary.
# evolve, the tangent frame, the KD blocks and the MLE objective all run
# through the same eigen-coordinate step, so each column also exercises the
# entry coordinates and the last eigenbasis the circuit stores.
@settings(deadline=None, derandomize=True, max_examples=40)
@given(
    arrays(np.float64, (3, 3), elements=finite),
    arrays(np.float64, (3, 3), elements=finite),
    st.floats(min_value=-3.0, max_value=3.0),
)
def test_unitary_is_unitary(real, imag, angle):
    raw = real + 1j * imag
    u = _gate_unitary((raw + raw.conj().T) / 2.0, angle)
    assert np.max(np.abs(u @ u.conj().T - np.eye(3))) < 1e-10


def test_unitary_half_turn_closed_form():
    # The generator squares to the identity, so the expansion terminates.
    angle = 0.7
    expected = np.cos(angle) * np.eye(2) + 1j * np.sin(angle) * SIGMA_X
    assert np.max(np.abs(_gate_unitary(SIGMA_X, angle) - expected)) < 1e-14


def _small_and_large_circuits(rng, n_small):
    """``(generators, circuit)`` pairs: n_small random ones, then LARGE_SIZES."""
    sizes = [(None, None)] * n_small + list(LARGE_SIZES)
    for dim, n_params in sizes:
        generators, state = random_problem(rng, dim=dim, n_params=n_params)
        yield generators, EncodingCircuit(generators, state)


def test_derivative_state_matches_finite_difference():
    rng = np.random.default_rng(21)
    for generators, circuit in _small_and_large_circuits(rng, 15):
        theta = rng.uniform(-1.5, 1.5, circuit.n_params)
        numeric = fd_tangents(circuit, theta)
        for j in range(circuit.n_params):
            analytic = _derivative_state(generators, circuit, theta, j)
            assert np.max(np.abs(analytic - numeric[:, j])) < 1e-7


def test_tangent_frame_matches_per_index_derivatives():
    rng = np.random.default_rng(31)
    for generators, circuit in _small_and_large_circuits(rng, 10):
        theta = rng.uniform(-1.5, 1.5, circuit.n_params)
        state, tangents = tangent_frame(circuit, theta)
        assert tangents.shape == (circuit.dim, circuit.n_params)
        assert np.max(np.abs(state - evolve(circuit, theta))) < 1e-12
        for j in range(circuit.n_params):
            expected = _derivative_state(generators, circuit, theta, j)
            assert np.max(np.abs(tangents[:, j] - expected)) < 1e-11


@settings(deadline=None, derandomize=True, max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-6.0, 6.0),
    pauli=st.booleans(),
)
@example(seed=5, log_scale=-6.0, pauli=False)
@example(seed=5, log_scale=6.0, pauli=False)
@example(seed=6, log_scale=6.0, pauli=True)
def test_tangent_frame_rescaling(seed, log_scale, pauli):
    """A -> cA with theta -> theta/c keeps the state, scales tangents by c and the QFIM by c^2."""
    rng = np.random.default_rng(seed)
    generators, initial = three_param_problem(rng, pauli)
    circuit = EncodingCircuit(generators, initial)
    theta = rng.uniform(-1.5, 1.5, 3)
    scale = 10.0**log_scale
    scaled = EncodingCircuit(tuple(scale * gen for gen in generators), initial)
    state, tangents = tangent_frame(circuit, theta)
    scaled_state, scaled_tangents = tangent_frame(scaled, theta / scale)
    assert np.max(np.abs(scaled_state - state)) < 1e-12
    assert np.max(np.abs(scaled_tangents / scale - tangents)) < 1e-11
    qfim = qfim_pure(circuit, theta)
    bound = 1e-10 * max(1.0, float(np.max(np.abs(qfim))))
    assert np.max(np.abs(qfim_pure(scaled, theta / scale) / scale**2 - qfim)) < bound


@settings(deadline=None, derandomize=True, max_examples=30)
@given(
    seed=st.integers(0, 2**32 - 1),
    phase=st.floats(-math.pi, math.pi),
    pauli=st.booleans(),
)
def test_qfim_and_curvature_ignore_global_phase(seed, phase, pauli):
    rng = np.random.default_rng(seed)
    generators, initial = three_param_problem(rng, pauli)
    circuit = EncodingCircuit(generators, initial)
    theta = rng.uniform(-1.5, 1.5, 3)
    shifted = EncodingCircuit(generators, np.exp(1j * phase) * initial)
    assert np.max(np.abs(qfim_pure(shifted, theta) - qfim_pure(circuit, theta))) < 1e-12
    moved = uhlmann_curvature(shifted, theta) - uhlmann_curvature(circuit, theta)
    assert np.max(np.abs(moved)) < 1e-12
