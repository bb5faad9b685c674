"""Sequential one-parameter unitary encodings of a pure state.

A circuit applies exp(i*theta[0]*A_0) to the initial state first, then
exp(i*theta[1]*A_1), and so on: generators are given in application
order. Parameter indices are 0-based throughout the package.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .linalg import herm_eig, require_hermitian

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
    exp(i*theta[m]*generators[m]) = V_m diag(exp(i*theta[m]*a_m)) V_m^dag.
    Every sweep runs in the generators' eigen-coordinates, so construction
    keeps the chain of basis changes instead of the eigenbases: each
    spectrum a_m, the entry coordinates V_0^dag psi_0, the transfers
    T_m = V_{m+1}^dag V_m and the last eigenbasis V_{M-1}, M complex D x D
    arrays in all. The generators themselves are not kept: a caller who
    needs them keeps the ones it passed in. Stored arrays are write-locked;
    instances are safe to share.
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
        self.initial_state = state
        # Each complex generator is freed once diagonalised, and each eigenbasis
        # once its transfer is formed; the last eigenbasis is kept.
        values, basis = herm_eig(gens.pop(0), "generators[0]")
        self._entry = basis.conj().T @ state
        eigenvalues, transfers = [values], []
        for m in range(1, len(gens) + 1):
            values, nxt = herm_eig(gens.pop(0), f"generators[{m}]")
            transfers.append(nxt.conj().T @ basis)
            eigenvalues.append(values)
            basis = nxt
        self._eigenvalues, self._transfers = tuple(eigenvalues), (*transfers, basis)
        for arr in self._eigenvalues + self._transfers + (state, self._entry):
            arr.setflags(write=False)

    @property
    def n_params(self) -> int:
        return len(self._eigenvalues)


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


def _sweep(circuit: EncodingCircuit, values, coords: np.ndarray, start: int, stop: int):
    """Gates start..stop-1 at validated angles on eigen-coordinates of generator start.

    ``coords`` is a vector or a D x k block. Gate m scales it by
    exp(i theta[m] a_m) and multiplies by T_m, which gives coordinates of
    generator m+1, or by V_{M-1} after the last gate, which gives the
    computational basis. A gate costs one product of a D x D array with the
    block.
    """
    for m in range(start, stop):
        phases = np.exp(1j * values[m] * circuit._eigenvalues[m])
        scaled = coords * (phases if coords.ndim == 1 else phases[:, None])
        coords = circuit._transfers[m] @ scaled
    return coords


def evolve(circuit: EncodingCircuit, theta) -> np.ndarray:
    """Apply the full parametrized unitary product to the initial state."""
    return _sweep(circuit, as_param_vector(circuit, theta), circuit._entry, 0, circuit.n_params)


def tangent_frame(circuit: EncodingCircuit, theta) -> tuple[np.ndarray, np.ndarray]:
    """Evolved state plus all tangent vectors in one forward vector sweep.

    Returns ``(state, tangents)`` with ``tangents[:, j]`` the derivative of
    the state along theta[j]: i times generator j conjugated by every later
    gate, applied to the state. A D x (M+1) block holds the state and the
    tangents built so far, in eigen-coordinates of the next generator. At
    gate m the sweep writes i a_m times the state's coordinates into column
    m+1, which is i A_m psi in A_m's eigenbasis, and then carries columns
    0..m+1 through the gate with the same step as ``evolve``. A_m commutes
    with its own gate, so the gate takes i A_m psi to i A_m times the state
    after it; later gates rotate each tangent like the state. No D x D
    product is formed, so the sweep costs O(M^2 D^2).
    """
    values = as_param_vector(circuit, theta)
    size = circuit.n_params
    block = np.empty((circuit.dim, size + 1), dtype=complex, order="F")
    block[:, 0] = circuit._entry
    for m in range(size):
        block[:, m + 1] = 1j * circuit._eigenvalues[m] * block[:, 0]
        block[:, : m + 2] = _sweep(circuit, values, block[:, : m + 2], m, m + 1)
    return block[:, 0], block[:, 1:]
