"""Sequential one-parameter unitary encodings of a pure state.

A circuit applies exp(i*theta[0]*A_0) to the initial state first, then
exp(i*theta[1]*A_1), and so on: generators are stored in application
order. Parameter indices are 0-based throughout the package.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .linalg import EigenDecomposition, herm_eig, require_hermitian

STATE_NORM_TOL = 1e-10


def as_pure_state(values, dim: int | None = None, name: str = "state") -> np.ndarray:
    """Coerce input to a normalized complex vector."""
    vec = np.asarray(values, dtype=complex)
    if vec.ndim != 1 or vec.size == 0:
        raise ValidationError(f"{name} must be a nonempty vector, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ValidationError(f"{name} contains non-finite entries")
    if dim is not None and vec.size != dim:
        raise ValidationError(f"{name} has dimension {vec.size}, expected {dim}")
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > STATE_NORM_TOL:
        raise ValidationError(f"{name} is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
    return vec


class EncodingCircuit:
    """Ordered Hermitian generators acting on an initial pure state.

    ``generators[0]`` acts first; parameter m enters through
    exp(i*theta[m]*generators[m]). Generator eigendecompositions are cached
    at construction because every downstream quantity reuses them. Stored
    arrays are write-locked; instances are safe to share.
    """

    def __init__(self, generators, initial_state):
        gens = [require_hermitian(g, f"generators[{m}]") for m, g in enumerate(generators)]
        if not gens:
            raise ValidationError("at least one generator is required")
        dim = gens[0].shape[0]
        for m, gen in enumerate(gens):
            if gen.shape[0] != dim:
                raise ValidationError(
                    f"generators[{m}] has dimension {gen.shape[0]}, expected {dim}"
                )
        state = as_pure_state(initial_state, dim, "initial_state").copy()
        self.dim = int(dim)
        self.generators = tuple(gens)
        self.initial_state = state
        self._eigs = tuple(herm_eig(gen, f"generators[{m}]") for m, gen in enumerate(gens))
        for arr in self.generators + (self.initial_state,):
            arr.setflags(write=False)

    @property
    def n_params(self) -> int:
        return len(self.generators)

    def generator_eig(self, m: int) -> EigenDecomposition:
        return self._eigs[m]


def as_param_vector(circuit: EncodingCircuit, theta, name: str = "theta") -> np.ndarray:
    """Coerce to a finite real vector of the circuit's parameter count."""
    values = np.asarray(theta, dtype=float)
    if values.ndim != 1 or values.size != circuit.n_params:
        raise ValidationError(
            f"{name} must be a vector of length {circuit.n_params}, got shape {values.shape}"
        )
    if not np.all(np.isfinite(values)):
        raise ValidationError(f"{name} contains non-finite entries")
    return values


def _check_index(index, n_params: int) -> int:
    if isinstance(index, bool) or not isinstance(index, (int, np.integer)):
        raise ValidationError(f"parameter index must be an integer, got {index!r}")
    if not 0 <= index < n_params:
        raise ValidationError(f"parameter index {index} out of range [0, {n_params})")
    return int(index)


def _rotate(eig: EigenDecomposition, angle: float, block: np.ndarray) -> np.ndarray:
    """The gate V diag(exp(i angle a)) V^dag on a vector or a D x k block.

    V^dag b is taken as conj(V^T conj(b)), so V is never copied or scaled:
    every temporary is the size of the block, and a gate costs two products
    of V with a D x k block.
    """
    coeffs = np.conj(eig.eigenvectors.T @ np.conj(block))
    phases = np.exp(1j * angle * eig.eigenvalues)
    coeffs *= phases if coeffs.ndim == 1 else phases[:, None]
    return eig.eigenvectors @ coeffs


def _apply_gates(circuit: EncodingCircuit, values, block: np.ndarray, start: int) -> np.ndarray:
    """Apply gates start..M-1 at validated angles to a vector or a D x k block."""
    for angle, eig in zip(values[start:], circuit._eigs[start:]):
        block = _rotate(eig, angle, block)
    return block


def evolve(circuit: EncodingCircuit, theta) -> np.ndarray:
    """Apply the full parametrized unitary product to the initial state."""
    return _apply_gates(circuit, as_param_vector(circuit, theta), circuit.initial_state, 0)


def tangent_frame(circuit: EncodingCircuit, theta) -> tuple[np.ndarray, np.ndarray]:
    """Evolved state plus all tangent vectors in one forward vector sweep.

    Returns ``(state, tangents)`` with ``tangents[:, j]`` the derivative of
    the state along theta[j]: i times generator j conjugated by every later
    gate, applied to the state. A D x (M+1) block holds the state and the
    tangents built so far. At gate m the sweep writes i A_m psi into column
    m+1, with psi the state before the gate, and then turns columns 0..m+1
    with the same gate step as ``evolve``. A_m commutes with its own gate,
    so the gate takes i A_m psi to i A_m times the state after it; later
    gates rotate each tangent like the state. No D x D product is formed,
    so the sweep costs O(M^2 D^2).
    """
    values = as_param_vector(circuit, theta)
    size = circuit.n_params
    block = np.empty((circuit.dim, size + 1), dtype=complex, order="F")
    block[:, 0] = circuit.initial_state
    for m in range(size):
        block[:, m + 1] = 1j * (circuit.generators[m] @ block[:, 0])
        block[:, : m + 2] = _rotate(circuit.generator_eig(m), values[m], block[:, : m + 2])
    return block[:, 0], block[:, 1:]
