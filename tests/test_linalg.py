"""Core linear algebra: SVD, eigenvalues, JSON wire format."""

import json

import numpy as np
import pytest

from aluthgelab import (
    NoConvergenceError,
    NonFiniteEntryError,
    SizeMismatchError,
    eigenvalues,
    load_matrix,
    matrix_from_json,
    matrix_to_json,
    multiset_match,
    operator_norm,
    save_matrix,
    svd,
)
from aluthgelab.linalg_core import KAPPA_SVD

EPS = np.finfo(float).eps


def random_matrix(seed, n):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def test_svd_identity():
    parts = svd(np.eye(2))
    np.testing.assert_allclose(parts.singular_values, [1.0, 1.0], atol=1e-14)


def test_svd_zero():
    parts = svd(np.zeros((2, 2)))
    np.testing.assert_allclose(parts.singular_values, [0.0, 0.0], atol=0.0)


def test_svd_monomial_oracle():
    # T*T = diag(1, 16), so the singular values are exactly (4, 1)
    parts = svd([[0, 4], [1, 0]])
    np.testing.assert_allclose(parts.singular_values, [4.0, 1.0], atol=1e-14)


@pytest.mark.parametrize("seed,n", [(0, 2), (1, 5), (2, 9), (3, 16)])
def test_svd_reconstruction(seed, n):
    T = random_matrix(seed, n)
    parts = svd(T)
    rebuilt = parts.left @ np.diag(parts.singular_values) @ parts.right.conj().T
    assert operator_norm(rebuilt - T) <= KAPPA_SVD * EPS * operator_norm(T) * n
    s = parts.singular_values
    assert np.all(s[:-1] >= s[1:])
    assert np.all(s >= 0)
    for Q in (parts.left, parts.right):
        assert operator_norm(Q.conj().T @ Q - np.eye(n)) <= 1e-13


def test_svd_rejects_nonfinite():
    with pytest.raises(NonFiniteEntryError):
        svd([[np.nan, 0], [0, 1]])
    with pytest.raises(NonFiniteEntryError):
        svd([[np.inf, 0], [0, 1]])


def test_rejects_nonsquare():
    with pytest.raises(SizeMismatchError):
        svd(np.ones((2, 3)))
    with pytest.raises(SizeMismatchError):
        eigenvalues(np.ones(4))


def test_eigenvalues_oracles():
    assert multiset_match(eigenvalues(np.diag([2.0, 0.5])), [2, 0.5], 1e-12).matched
    # characteristic polynomial x^2 - 4
    assert multiset_match(eigenvalues([[0, 2], [2, 0]]), [2, -2], 1e-12).matched
    # characteristic polynomial x^2 + 1
    assert multiset_match(eigenvalues([[0, -1], [1, 0]]), [1j, -1j], 1e-12).matched


@pytest.mark.parametrize("seed,n", [(10, 3), (11, 6), (12, 12)])
def test_eigenvalues_unitary_conjugation_invariant(seed, n):
    T = random_matrix(seed, n)
    Q = np.linalg.qr(random_matrix(seed + 100, n))[0]
    result = multiset_match(
        eigenvalues(T), eigenvalues(Q @ T @ Q.conj().T), 1e-8 * operator_norm(T)
    )
    assert result.matched


def test_eigenvalues_failure_is_typed(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvals", fail)
    with pytest.raises(NoConvergenceError):
        eigenvalues(np.diag([2.0, 0.5]))


def test_matrix_json_round_trip():
    T = np.array([[1 + 2j, 0], [3, -4j]])
    obj = matrix_to_json(T)
    assert obj["rows"] == 2 and obj["cols"] == 2
    assert obj["data"][0] == [1.0, 2.0]
    np.testing.assert_allclose(matrix_from_json(obj), T, atol=0.0)


def test_matrix_json_round_trip_is_bitwise():
    # signed zeros and extreme magnitudes survive the [re, im] pairs
    T = np.array([[complex(-0.0, -0.0), 1e-310 - 2.5e300j], [np.pi, complex(0.1, -0.0)]])
    again = matrix_from_json(json.loads(json.dumps(matrix_to_json(T))))
    assert again.tobytes() == T.tobytes()


def test_matrix_file_round_trip(tmp_path):
    T = np.array([[0, 4], [1, 0]], dtype=complex)
    path = tmp_path / "T.json"
    save_matrix(T, path)
    loaded = load_matrix(path)
    np.testing.assert_allclose(loaded, T, atol=0.0)
    raw = json.loads(path.read_text())
    assert set(raw) == {"rows", "cols", "data"}


def test_matrix_from_json_rejects_malformed():
    with pytest.raises(SizeMismatchError):
        matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})
    with pytest.raises(SizeMismatchError):
        matrix_from_json({"rows": 1, "cols": 1, "data": [[1, 0, 0]]})
    for bad in ([["a", 0]], [[None, 0]]):
        with pytest.raises(SizeMismatchError):
            matrix_from_json({"rows": 1, "cols": 1, "data": bad})
