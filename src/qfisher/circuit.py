"""Sequential one-parameter unitary encodings of a pure state.

A circuit applies exp(i*theta[0]*A_0) to the initial state first, then
exp(i*theta[1]*A_1), and so on: generators are given in application
order. Parameter indices are 0-based throughout the package. The checks
of integer, parameter-pair and real-number inputs live here too, and array
inputs go through ``linalg.as_array``, so every module and the scenario
loader apply one rule to each kind of input.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .linalg import as_array, herm_eig, require_hermitian

STATE_NORM_TOL = 1e-10


def as_pure_state(values, dim: int | None = None, name: str = "state") -> np.ndarray:
    """Coerce input to a normalized complex vector."""
    vec = as_array(values, name, (dim,), complex)
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
        if not np.iterable(generators):
            raise ValidationError(
                f"generators must be a sequence of matrices, got {_shown(generators)}"
            )
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
    return as_array(theta, name, (circuit.n_params,))


def _shown(value) -> str:
    """``repr(value)``, or a stand-in when it holds an integer too long to print."""
    try:
        return repr(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _check_int(value, name: str, low: int, high: float | None = None) -> int:
    """An integer, not a bool, in [low, high], or at least ``low`` when ``high`` is None."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {_shown(value)}")
    if high is not None and value > high:
        raise ValidationError(f"{name} must be at most {high}, got {_shown(int(value))}")
    return int(value)


def _check_pair(pair, name: str, n_params: int) -> tuple[int, int]:
    """Two parameter indices, each an integer in [0, n_params), as a list, tuple or array."""
    if not isinstance(pair, (list, tuple, np.ndarray)):
        raise ValidationError(
            f"{name} must be a list, tuple or array of two parameter indices, got {_shown(pair)}"
        )
    shape = pair.shape if isinstance(pair, np.ndarray) else (len(pair),)
    if shape != (2,):
        raise ValidationError(f"{name} must hold two parameter indices, got shape {shape}")
    last = n_params - 1
    return _check_int(pair[0], f"{name}[0]", 0, last), _check_int(pair[1], f"{name}[1]", 0, last)


def _check_real(value, name: str) -> float:
    """A real number, not a bool, as a float; an integer too large for one is +-inf."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{name} must be a real number, got {_shown(value)}")
    try:
        return float(value)
    except OverflowError:
        return np.inf if value > 0 else -np.inf


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
