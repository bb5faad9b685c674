"""Shared test utilities: random problem generators and independent oracles.

The oracles here deliberately avoid the library's fast paths. Finite
differences replace analytic tangents, trace loops replace einsum, and
the qubit reference state is built from the half-angle closed form, so
agreement between library and oracle is meaningful evidence.
"""

import math

import numpy as np

from qfisher import EncodingCircuit, evolve

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def random_hermitian(rng, dim, scale=1.0):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    herm = (raw + raw.conj().T) / 2.0
    norm = float(np.max(np.abs(np.linalg.eigvalsh(herm))))
    if norm == 0.0:
        return herm
    return herm * (scale / norm)


def random_state(rng, dim):
    raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return raw / np.linalg.norm(raw)


def random_unitary(rng, dim):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(raw)
    # Fix the phase freedom so the distribution is Haar.
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_problem(rng, dim=None, n_params=None, max_dim=5, max_params=4, scale=2.0):
    """``(generators, initial_state)`` of a random circuit.

    The circuit keeps no generators, so tests whose oracles need them build
    the circuit from this pair and hold on to the tuple.
    """
    if dim is None:
        dim = int(rng.integers(2, max_dim + 1))
    if n_params is None:
        n_params = int(rng.integers(1, max_params + 1))
    generators = tuple(random_hermitian(rng, dim, scale) for _ in range(n_params))
    return generators, random_state(rng, dim)


def random_circuit(rng, dim=None, n_params=None, max_dim=5, max_params=4, scale=2.0):
    return EncodingCircuit(*random_problem(rng, dim, n_params, max_dim, max_params, scale))


def random_pauli_string(rng, n_qubits):
    """Random non-identity Pauli string: eigenvalues +-1, each D/2-fold degenerate."""
    picks = np.zeros(n_qubits, dtype=int)
    while not picks.any():
        picks = rng.integers(0, 4, n_qubits)
    paulis = (np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z)
    out = np.ones((1, 1), dtype=complex)
    for k in picks:
        out = np.kron(out, paulis[k])
    return out


def pauli_problem(rng, n_qubits, n_params):
    """``(generators, initial_state)`` of a random Pauli-string circuit."""
    generators = tuple(random_pauli_string(rng, n_qubits) for _ in range(n_params))
    return generators, random_state(rng, 2**n_qubits)


def pauli_circuit(rng, n_qubits, n_params):
    return EncodingCircuit(*pauli_problem(rng, n_qubits, n_params))


def three_param_problem(rng, pauli):
    """Three generators and a state: Pauli strings on 2-3 qubits or dense D = 2-6.

    Pauli strings have D/2-fold degenerate spectra, so eigh may pick other
    bases for rescaled copies; dense generators are nondegenerate.
    """
    if pauli:
        return pauli_problem(rng, int(rng.integers(2, 4)), 3)
    return random_problem(rng, n_params=3, max_dim=6)


def random_projective_povm(rng, dim):
    basis = random_unitary(rng, dim)
    return tuple(np.outer(basis[:, k], basis[:, k].conj()) for k in range(dim))


def random_smeared_effect(rng, dim):
    """Random effect with eigenvalues drawn from [0.05, 1]."""
    basis = random_unitary(rng, dim)
    levels = rng.uniform(0.05, 1.0, size=dim)
    return (basis * levels) @ basis.conj().T


def fd_tangents(circuit, theta, step=1e-5):
    """Central-difference tangent vectors of the evolved state."""
    theta = np.asarray(theta, dtype=float)
    columns = []
    for j in range(circuit.n_params):
        up = theta.copy()
        up[j] += step
        down = theta.copy()
        down[j] -= step
        columns.append((evolve(circuit, up) - evolve(circuit, down)) / (2.0 * step))
    return np.column_stack(columns)


def fd_geometric_tensor(circuit, theta, step=1e-5):
    """Geometric tensor from finite differences only; gauge-invariant."""
    state = evolve(circuit, theta)
    tangents = fd_tangents(circuit, theta, step)
    overlaps = state.conj() @ tangents
    return tangents.conj().T @ tangents - np.outer(overlaps.conj(), overlaps)


def fd_qfim(circuit, theta, step=1e-5):
    return 4.0 * np.real(fd_geometric_tensor(circuit, theta, step))


def dense_unitary(generators, theta, start=0):
    """Gates start..M-1 of a circuit with these generators, multiplied out
    as dense matrix exponentials.

    Independent of the library's eigen-coordinate sweep: each unitary comes
    from a fresh eigendecomposition of its generator here.
    """
    theta = np.asarray(theta, dtype=float)
    product = np.eye(generators[0].shape[0], dtype=complex)
    for k in range(start, len(generators)):
        vals, vecs = np.linalg.eigh(generators[k])
        product = (vecs * np.exp(1j * theta[k] * vals)) @ vecs.conj().T @ product
    return product


def conjugated_generator(generators, theta, m):
    """Effective generator: generator m conjugated by the dense later gates."""
    suffix = dense_unitary(generators, theta, m + 1)
    return suffix @ generators[m] @ suffix.conj().T


def kd_table_oracle(stack_i, effect, stack_j, rho):
    """Quasiprobability table entry by entry via plain trace products."""
    table = np.empty((len(stack_i), len(stack_j)), dtype=complex)
    for k, proj_i in enumerate(stack_i):
        for l, proj_j in enumerate(stack_j):
            table[k, l] = np.trace(proj_i @ effect @ proj_j @ rho)
    return table


def closed_qubit_state(theta):
    """Reference two-parameter qubit state from the half-turn closed form.

    Both generators square to the identity, so each exponential is
    cos(theta) 1 + i sin(theta) A with no eigendecomposition involved.
    """
    a1 = SIGMA_X
    a2 = (SIGMA_X + SIGMA_Z) / math.sqrt(2.0)
    eye = np.eye(2, dtype=complex)
    u1 = math.cos(theta[0]) * eye + 1j * math.sin(theta[0]) * a1
    u2 = math.cos(theta[1]) * eye + 1j * math.sin(theta[1]) * a2
    return u2 @ u1 @ np.array([1.0, 0.0], dtype=complex)


REFERENCE_GENERATORS = (SIGMA_X, (SIGMA_X + SIGMA_Z) / math.sqrt(2.0))


def reference_circuit():
    return EncodingCircuit(REFERENCE_GENERATORS, np.array([1.0, 0.0], dtype=complex))


def reference_qfim(theta1):
    """Closed-form QFIM of the reference circuit; depends only on theta1."""
    off = 2.0 * math.sqrt(2.0)
    return np.array([[4.0, off], [off, 3.0 - math.cos(4.0 * theta1)]])


def sic_povm():
    s = math.sqrt(2.0)
    eye = np.eye(2, dtype=complex)
    directions = [
        (0.0, 0.0, 1.0),
        (2.0 * s / 3.0, 0.0, -1.0 / 3.0),
        (-s / 3.0, math.sqrt(2.0 / 3.0), -1.0 / 3.0),
        (-s / 3.0, -math.sqrt(2.0 / 3.0), -1.0 / 3.0),
    ]
    return tuple(
        0.25 * (eye + nx * SIGMA_X + ny * SIGMA_Y + nz * SIGMA_Z) for nx, ny, nz in directions
    )
