import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qfisher import NumericError, QFisherError, ValidationError
from qfisher.linalg import (
    as_complex_matrix,
    as_square_matrix,
    herm_eig,
    invert,
    require_hermitian,
    spectral_radius,
)

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_infinity=False)


def square_complex(dim):
    return st.tuples(
        arrays(np.float64, (dim, dim), elements=finite),
        arrays(np.float64, (dim, dim), elements=finite),
    ).map(lambda pair: pair[0] + 1j * pair[1])


def test_as_complex_matrix_rejects_non_matrix():
    with pytest.raises(ValidationError):
        as_complex_matrix([1.0, 2.0], "thing")
    with pytest.raises(ValidationError):
        as_complex_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]), "thing")


def test_as_square_matrix_rejects_rectangular():
    with pytest.raises(ValidationError):
        as_square_matrix(np.zeros((2, 3)), "thing")


def test_require_hermitian_rejects_asymmetric():
    with pytest.raises(ValidationError, match="Hermitian"):
        require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), "gen")


def test_require_hermitian_accepts_zero_matrix():
    out = require_hermitian(np.zeros((3, 3)), "zero")
    assert np.array_equal(out, np.zeros((3, 3)))


@settings(deadline=None, derandomize=True, max_examples=40)
@given(square_complex(3))
def test_require_hermitian_output_is_exactly_hermitian(raw):
    herm = (raw + raw.conj().T) / 2.0
    out = require_hermitian(herm, "h")
    assert np.array_equal(out, out.conj().T)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(square_complex(4))
def test_herm_eig_sorted_and_reconstructs(raw):
    herm = (raw + raw.conj().T) / 2.0
    values, vectors = herm_eig(herm, "h")
    assert np.all(np.diff(values) >= 0.0)
    rebuilt = (vectors * values) @ vectors.conj().T
    assert np.max(np.abs(rebuilt - herm)) < 1e-10


@settings(deadline=None, derandomize=True, max_examples=40)
@given(square_complex(3))
def test_invert_round_trip(raw):
    mat = raw + 10.0 * np.eye(3)  # push well away from singular
    inv = invert(mat)
    assert np.max(np.abs(mat @ inv - np.eye(3))) < 1e-8


def test_invert_rejects_singular():
    with pytest.raises(NumericError, match="singular"):
        invert(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_spectral_radius_known_values():
    assert spectral_radius(np.diag([3.0, -7.0])) == pytest.approx(7.0)
    rot = np.array([[0.0, -2.0], [2.0, 0.0]])  # eigenvalues +-2i
    assert spectral_radius(rot) == pytest.approx(2.0)
    # Non-normal: both eigenvalues are 1, while the spectral norm is about 10.1.
    shear = np.array([[1.0, 10.0], [0.0, 1.0]])
    assert spectral_radius(shear) == pytest.approx(1.0)
    assert np.linalg.norm(shear, 2) > 10.0


def test_errors_share_the_package_base():
    assert issubclass(ValidationError, ValueError)
    assert issubclass(NumericError, ArithmeticError)
    with pytest.raises(QFisherError):
        as_square_matrix(np.zeros((2, 3)), "thing")
    with pytest.raises(QFisherError):
        invert(np.array([[1.0, 1.0], [1.0, 1.0]]))
