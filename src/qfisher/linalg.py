"""Dense complex-matrix primitives shared by every other module.

The one check of array inputs, the Hermiticity check, Hermitian
eigendecomposition, guarded inversion and the spectral radius. All
functions are pure: inputs are never mutated, and identical inputs give
identical outputs.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ValidationError

# Relative tolerance (against the max-norm) for accepting a matrix as Hermitian.
HERMITICITY_RTOL = 1e-12
# Default absolute tolerance for matrix comparisons, scaled by max-norm.
DEFAULT_TOL = 1e-10
# Singular-value ratio below which inversion refuses to proceed.
INVERT_RTOL = 1e-12


def as_array(values, name: str, shape: tuple, dtype=float) -> np.ndarray:
    """The one rule for array inputs: a finite ``dtype`` array of ``shape``.

    A None in ``shape`` takes any nonzero length. Input that numpy reads as
    bools, text or objects, ragged nesting and, where ``dtype`` is float,
    complex entries are refused, not converted. An array of ``dtype`` is
    returned as it is, without a copy.
    """
    numbers = "real numbers" if dtype is float else "numbers"
    try:
        raw = np.asarray(values)
    except ValueError:
        raise ValidationError(f"{name} must be a rectangular array of {numbers}") from None
    if raw.dtype.kind not in ("iuf" if dtype is float else "iufc"):
        raise ValidationError(f"{name} must be an array of {numbers}, got dtype {raw.dtype}")
    if raw.ndim != len(shape) or not all(
        size > 0 if want is None else size == want for size, want in zip(raw.shape, shape)
    ):
        wanted = str(tuple("n" if want is None else want for want in shape)).replace("'", "")
        raise ValidationError(f"{name} must have shape {wanted}, got shape {raw.shape}")
    array = raw.astype(dtype, copy=False)
    if not np.isfinite(array).all():
        raise ValidationError(f"{name} contains non-finite entries")
    return array


def as_square_matrix(values, name: str = "matrix", dtype=complex) -> np.ndarray:
    mat = as_array(values, name, (None, None), dtype)
    if mat.shape[0] != mat.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {mat.shape}")
    return mat


def require_hermitian(values, name: str = "matrix", rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """Validate Hermiticity to ``rtol`` relative to the max-norm.

    Returns the symmetrized copy (H + H^dag)/2. Input beyond tolerance is
    rejected rather than silently symmetrized: gross asymmetry is a user
    error that averaging would hide.
    """
    mat = as_square_matrix(values, name)
    scale = float(np.max(np.abs(mat)))
    asym = float(np.max(np.abs(mat - mat.conj().T)))
    if asym > rtol * scale:
        raise ValidationError(
            f"{name} is not Hermitian: max|H - H^dag| = {asym:.3e} "
            f"exceeds {rtol:g} x max-norm ({scale:.3e})"
        )
    return (mat + mat.conj().T) / 2.0


def herm_eig(matrix: np.ndarray, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """``(a, V)`` with H = V diag(a) V^dag: eigenvalues real and ascending,
    eigenvector columns orthonormal and paired with them by position.

    The input must come validated, e.g. from ``require_hermitian``: it is
    not checked again.
    """
    try:
        return np.linalg.eigh(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition of {name} failed: {exc}") from exc


def invert(matrix) -> np.ndarray:
    """Invert a square matrix, refusing near-singular input.

    Fails when the smallest singular value is below ``INVERT_RTOL`` times
    the largest. No pseudo-inverse is substituted: singular directions mean
    the caller must drop or reparametrize, which is not this function's call.
    """
    mat = as_square_matrix(matrix)
    try:
        singulars = np.linalg.svd(mat, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"singular value decomposition failed: {exc}") from exc
    largest = float(singulars[0])
    smallest = float(singulars[-1])
    if largest == 0.0 or smallest < INVERT_RTOL * largest:
        raise NumericError(
            f"matrix is singular to tolerance {INVERT_RTOL:g}: smallest singular value "
            f"{smallest:.6e} vs largest {largest:.6e}"
        )
    try:
        return np.linalg.inv(mat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - guarded by the SVD gate
        raise NumericError(f"inversion failed: {exc}") from exc


def spectral_radius(matrix) -> float:
    """Largest eigenvalue modulus of a square matrix. This never exceeds the
    spectral norm and can fall far below it for a non-normal matrix."""
    mat = as_square_matrix(matrix)
    try:
        eigenvalues = np.linalg.eigvals(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigenvalue computation failed: {exc}") from exc
    return float(np.max(np.abs(eigenvalues)))
