"""Fisher-information measures for pure-state encoding circuits.

Classical Fisher information of a POVM, the pure-state quantum Fisher
information matrix (QFIM), risk brackets, the Uhlmann curvature, and
the geometric-quantumness measure built from the last two. The complex
"geometric tensor" is the common core: its real part carries the QFIM,
its imaginary part the curvature, and an effect-weighted variant covers
postselected states.
"""

from __future__ import annotations

import warnings

import numpy as np

from .circuit import EncodingCircuit, _check_int, tangent_frame
from .errors import NumericError, ValidationError
from .linalg import DEFAULT_TOL, as_square_matrix, invert, require_hermitian, spectral_radius

# Outcomes with probability below this floor are dropped from Fisher sums.
PROBABILITY_FLOOR = 1e-12
# Probability slope above which a dropped outcome signals a divergent FIM.
DIVERGENT_SLOPE_TOL = 1e-8
# Success probability below this floor aborts postselected quantities.
POSTSELECTION_PROB_FLOOR = 1e-12
# Asymmetry allowed in a computed QFIM before symmetrization.
QFIM_SYMMETRY_TOL = 1e-9
# Most negative eigenvalue (relative) tolerated in a QFIM.
QFIM_PSD_RTOL = 1e-9
# Slack allowed above 1 for the geometric quantumness.
QUANTUMNESS_TOL = 1e-9
# Largest trial count: risk brackets divide by it as a float.
MAX_FLOAT_TRIALS = float(np.finfo(float).max)


class DivergentInformationWarning(RuntimeWarning):
    """A zero-probability outcome with non-vanishing probability slope was
    dropped from a Fisher-information sum; the true FIM diverges there."""


def require_effect(effect, dim: int | None = None, name: str = "effect") -> np.ndarray:
    """Validate a single effect: Hermitian, PSD and, if given, of dimension dim.

    Returns the symmetrized copy.
    """
    mat = require_hermitian(effect, name, rtol=DEFAULT_TOL)
    if dim is not None and mat.shape[0] != _check_int(dim, "dim", 1):
        raise ValidationError(f"{name} has dimension {mat.shape[0]}, expected {dim}")
    lowest = float(np.linalg.eigvalsh(mat)[0])
    scale = max(1.0, float(np.max(np.abs(mat))))
    if lowest < -DEFAULT_TOL * scale:
        raise ValidationError(f"{name} is not positive semidefinite: min eigenvalue {lowest:.3e}")
    return mat


def validate_povm(effects, dim: int | None = None) -> np.ndarray:
    """Check that effects are PSD and resolve the identity; return the
    validated copies stacked as a K x D x D array. Without ``dim`` the first
    effect sets the dimension."""
    elements = []
    for k, effect in enumerate(effects):
        mat = require_effect(effect, dim, f"povm[{k}]")
        dim = mat.shape[0]
        elements.append(mat)
    if not elements:
        raise ValidationError("povm must contain at least one effect")
    stack = np.array(elements)
    if float(np.max(np.abs(stack.sum(axis=0) - np.eye(dim)))) > DEFAULT_TOL:
        raise ValidationError("povm effects do not sum to the identity")
    return stack


class _CheckedPovm(np.ndarray):
    """An effect stack validate_povm accepted, handed on without a second check."""


def _effects(povm, dim: int) -> np.ndarray:
    return povm.view(np.ndarray) if isinstance(povm, _CheckedPovm) else validate_povm(povm, dim)


def _outcome_slopes(effects: np.ndarray, circuit: EncodingCircuit, theta):
    """Outcome probabilities <psi|F_k|psi> and their theta-slopes from one tangent frame."""
    state, tangents = tangent_frame(circuit, theta)
    weighted = effects @ state
    return np.real(weighted @ state.conj()), 2.0 * np.real(weighted.conj() @ tangents)


def geometric_tensor(circuit: EncodingCircuit, theta) -> np.ndarray:
    """Complex M x M tensor whose real part is QFIM/4 and imaginary part
    is the Uhlmann curvature / 4.

    Entry (i, j) is <d_i psi|d_j psi> - <d_i psi|psi><psi|d_j psi> built
    from the tangent vectors of the evolved state.
    """
    return _tensor_from_frame(*tangent_frame(circuit, theta))


def _tensor_from_frame(state: np.ndarray, tangents: np.ndarray) -> np.ndarray:
    # Gram of the tangents projected off the unit state: no O(1) terms cancel.
    projected = tangents - np.outer(state, state.conj() @ tangents)
    return projected.conj().T @ projected


def postselected_geometric_tensor(
    circuit: EncodingCircuit, theta, effect
) -> tuple[np.ndarray, float]:
    """Geometric tensor of the state conditioned on a postselection effect.

    Returns ``(tensor, success_prob)``. The tensor is the exact
    effect-weighted expression, no small-error expansion:
    (1/p) <d_i psi|F|d_j psi> - (1/p^2) <d_i psi|F|psi><psi|F|d_j psi>.
    """
    mat = require_effect(effect, circuit.dim)
    state, tangents = tangent_frame(circuit, theta)
    success_prob = float(np.real(state.conj() @ mat @ state))
    _check_success_prob(success_prob)
    gram = tangents.conj().T @ (mat @ tangents)
    overlaps = tangents.conj().T @ (mat @ state)
    tensor = gram / success_prob - np.outer(overlaps, overlaps.conj()) / success_prob**2
    return tensor, success_prob


def _check_success_prob(success_prob: float) -> None:
    """Abort postselected quantities whose success probability is below the floor."""
    if success_prob < POSTSELECTION_PROB_FLOOR:
        raise NumericError(
            f"postselection probability {success_prob:.6e} is below the "
            f"{POSTSELECTION_PROB_FLOOR:g} floor"
        )


def qfim_from_tensor(tensor) -> np.ndarray:
    """Extract the QFIM (4x real part) and enforce its invariants.

    The computed matrix must be symmetric to 1e-9 and PSD to 1e-9 relative
    slack; violations signal an implementation bug, not bad user input.
    """
    qfim = 4.0 * np.real(np.asarray(tensor))
    scale = max(1.0, float(np.max(np.abs(qfim))))
    asym = float(np.max(np.abs(qfim - qfim.T)))
    if asym > QFIM_SYMMETRY_TOL * scale:
        raise NumericError(f"computed QFIM asymmetry {asym:.3e} exceeds tolerance")
    qfim = (qfim + qfim.T) / 2.0
    eigenvalues = np.linalg.eigvalsh(qfim)
    bound = max(1.0, float(np.max(np.abs(eigenvalues))))
    if float(eigenvalues[0]) < -QFIM_PSD_RTOL * bound:
        raise NumericError(
            f"computed QFIM is not positive semidefinite: min eigenvalue {eigenvalues[0]:.3e}"
        )
    return qfim


def curvature_from_tensor(tensor) -> np.ndarray:
    """Extract the Uhlmann curvature (4x imaginary part), exactly antisymmetric."""
    tensor = np.asarray(tensor)
    curvature = 4.0 * np.imag(tensor)
    # Roundoff in the imaginary part scales with the whole tensor, not the curvature.
    scale = max(1.0, 4.0 * float(np.max(np.abs(tensor))))
    drift = float(np.max(np.abs(curvature + curvature.T)))
    if drift > QFIM_SYMMETRY_TOL * scale:
        raise NumericError(f"computed curvature symmetry drift {drift:.3e} exceeds tolerance")
    # Structural antisymmetrization zeroes the diagonal exactly.
    return (curvature - curvature.T) / 2.0


def qfim_pure(circuit: EncodingCircuit, theta) -> np.ndarray:
    """Pure-state quantum Fisher information matrix at theta."""
    return qfim_from_tensor(geometric_tensor(circuit, theta))


def uhlmann_curvature(circuit: EncodingCircuit, theta) -> np.ndarray:
    """Uhlmann curvature at theta: the antisymmetric partner of the QFIM."""
    return curvature_from_tensor(geometric_tensor(circuit, theta))


def classical_fim(circuit: EncodingCircuit, theta, povm) -> np.ndarray:
    """Classical Fisher information matrix of the POVM outcome statistics.

    Probabilities are p(k|theta) = <psi|F_k|psi> with analytic slopes from
    the tangent vectors. Outcomes below PROBABILITY_FLOOR are dropped; if a
    dropped outcome still has slope above DIVERGENT_SLOPE_TOL the true FIM
    diverges there and a DivergentInformationWarning is emitted.
    """
    probs, slopes = _outcome_slopes(_effects(povm, circuit.dim), circuit, theta)
    kept = probs >= PROBABILITY_FLOOR
    for k in np.flatnonzero(~kept):
        steepest = float(np.max(np.abs(slopes[k])))
        if steepest > DIVERGENT_SLOPE_TOL:
            warnings.warn(
                f"outcome {k} has probability {probs[k]:.3e} but slope "
                f"{steepest:.3e}; Fisher information diverges",
                DivergentInformationWarning,
                stacklevel=2,
            )
    return (slopes[kept].T / probs[kept]) @ slopes[kept]


def _validate_weight(weight, size: int) -> np.ndarray:
    if weight is None:
        return np.eye(size)
    mat = np.asarray(weight, dtype=float)
    if mat.shape != (size, size):
        raise ValidationError(f"weight must be {size}x{size}, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise ValidationError("weight contains non-finite entries")
    scale = max(1.0, float(np.max(np.abs(mat))))
    if float(np.max(np.abs(mat - mat.T))) > DEFAULT_TOL * scale:
        raise ValidationError("weight must be symmetric")
    if float(np.linalg.eigvalsh(mat)[0]) <= 0.0:
        raise ValidationError("weight must be positive definite")
    return (mat + mat.T) / 2.0


def learnability_interval(fim, weight=None, trials: int = 1) -> tuple[float, float]:
    """Two-sided bracket on the best achievable risk for a pure state.

    The lower edge is the Cramér-Rao bound Tr[W fim^-1] / trials for a
    positive weight W; the upper edge is exactly twice the lower: the
    most-informative measurement lands inside this factor-2 sandwich.
    Fails on a singular information matrix: the singular parameters must be
    removed by the caller, not papered over.
    """
    mat = np.real(as_square_matrix(fim, "fim"))
    weight_mat = _validate_weight(weight, mat.shape[0])
    trials = _check_int(trials, "trials", 1, MAX_FLOAT_TRIALS)
    lower = float(np.trace(weight_mat @ np.real(invert(mat)))) / trials
    return (lower, 2.0 * lower)


def geometric_quantumness(qfim, curvature) -> float:
    """Norm measure of the QFIM/curvature incompatibility, in [0, 1].

    Computed as the spectral radius of i * qfim^-1 * curvature. Values
    outside [0, 1] beyond tolerance signal an implementation bug and raise.
    """
    qfim_mat = np.real(as_square_matrix(qfim, "qfim"))
    curv_mat = np.real(as_square_matrix(curvature, "curvature"))
    if curv_mat.shape != qfim_mat.shape:
        raise ValidationError("qfim and curvature dimensions differ")
    value = spectral_radius(1j * invert(qfim_mat) @ curv_mat)
    if value > 1.0 + QUANTUMNESS_TOL:
        raise NumericError(f"geometric quantumness {value:.6e} exceeds 1 beyond tolerance")
    return value
