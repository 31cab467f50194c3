"""Dense complex-matrix kernel: SVD, eigenvalues, PSD fractional powers,
and the polar decomposition.

All higher modules consume square complex matrices through this module.
Matrices are plain ``numpy.ndarray`` objects with dtype ``complex128``;
:func:`as_matrix` is the single validation gate.  Factorizations delegate
to LAPACK through numpy, wrapped so that failures surface as typed errors
and so that kernel conventions (kernel control in the polar factor,
eigenvalue clamping before fractional powers) are applied uniformly.

The JSON wire format for matrices is::

    {"rows": n, "cols": n, "data": [[re, im], ...]}

with ``data`` row-major and one ``[re, im]`` pair per entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    NegativeSpectrumError,
    NoConvergenceError,
    NonFiniteEntryError,
    NotHermitianError,
    SizeMismatchError,
)

__all__ = [
    "SvdParts",
    "PolarParts",
    "as_matrix",
    "operator_norm",
    "svd",
    "eigenvalues",
    "psd_power",
    "polar_decompose",
    "rank_tolerance",
    "matrix_to_json",
    "matrix_from_json",
    "load_matrix",
    "save_matrix",
]

#: Reconstruction constant for svd(): ||W diag(S) V* - T|| <= KAPPA_SVD * n * eps * ||T||.
KAPPA_SVD = 10.0


@dataclass(frozen=True)
class SvdParts:
    """Singular value decomposition T = left @ diag(singular_values) @ right*.

    ``left`` and ``right`` are unitary; ``singular_values`` is a real
    nonincreasing nonnegative vector.
    """

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray


@dataclass(frozen=True)
class PolarParts:
    """Polar decomposition T = isometry_part @ modulus.

    ``modulus`` is the Hermitian PSD factor (T*T)^(1/2).  ``isometry_part``
    is a partial isometry whose kernel equals the kernel of ``modulus``,
    which equals the kernel of T.  For invertible T it is unitary.
    """

    isometry_part: np.ndarray
    modulus: np.ndarray


def as_matrix(a) -> np.ndarray:
    """Validate and coerce ``a`` to a square complex128 matrix.

    Raises
    ------
    SizeMismatchError
        If ``a`` is not a square 2-d array.
    NonFiniteEntryError
        If any entry is NaN or infinite.
    """
    T = np.asarray(a, dtype=complex)
    if T.ndim != 2 or T.shape[0] != T.shape[1]:
        raise SizeMismatchError(f"expected a square matrix, got shape {T.shape}")
    if not np.all(np.isfinite(T.real)) or not np.all(np.isfinite(T.imag)):
        raise NonFiniteEntryError("matrix contains NaN or infinite entries")
    return T


def operator_norm(T) -> float:
    """Spectral norm (largest singular value)."""
    return float(np.linalg.norm(np.asarray(T, dtype=complex), 2))


def rank_tolerance(singular_values: np.ndarray, dim: int) -> float:
    """Threshold below which a singular value counts as zero.

    Standard numerical rank cutoff: dim * machine epsilon * sigma_max.
    """
    smax = float(singular_values[0]) if len(singular_values) else 0.0
    return dim * np.finfo(float).eps * smax


def svd(T) -> SvdParts:
    """Singular value decomposition of a square complex matrix.

    Reconstruction error is bounded by ``KAPPA_SVD * n * eps * ||T||``.

    Raises
    ------
    NonFiniteEntryError, SizeMismatchError
        Propagated from input validation.
    NoConvergenceError
        If the underlying iteration fails to converge.
    """
    T = as_matrix(T)
    try:
        W, s, Vh = np.linalg.svd(T)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"SVD did not converge: {exc}") from exc
    return SvdParts(left=W, singular_values=s, right=Vh.conj().T)


def eigenvalues(T) -> np.ndarray:
    """Eigenvalues of T with multiplicity, as a complex vector.

    Order follows the underlying solver and is deterministic for a fixed
    input but otherwise unspecified; use spectral.multiset_match to compare
    spectra.
    """
    T = as_matrix(T)
    try:
        return np.linalg.eigvals(T)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigenvalue iteration did not converge: {exc}") from exc


def _psd_eigh(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian PSD matrix with clamping.

    Eigenvalues in [-tau, 0] with tau = dim * eps * ||P|| are clamped to
    zero; an eigenvalue below -tau raises NegativeSpectrumError.
    """
    n = P.shape[0]
    herm_defect = operator_norm(P - P.conj().T)
    if herm_defect > 1e-10 * (1.0 + operator_norm(P)):
        raise NotHermitianError(
            f"matrix is not Hermitian: ||P - P*|| = {herm_defect:.3e}"
        )
    try:
        w, Q = np.linalg.eigh(P)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"Hermitian eigensolver did not converge: {exc}") from exc
    tau = n * np.finfo(float).eps * (abs(w).max() if n else 0.0)
    if w.min(initial=0.0) < -tau:
        raise NegativeSpectrumError(
            f"eigenvalue {w.min():.3e} below clamp threshold {-tau:.3e}"
        )
    w = np.clip(w, 0.0, None)
    return w, Q


def psd_power(P, t: float) -> np.ndarray:
    """Fractional power P^t of a Hermitian PSD matrix, t in [0, 1].

    Computed through the Hermitian eigendecomposition; eigenvalues within
    roundoff below zero are clamped to zero first.  ``t = 0`` returns the
    identity matrix (not the range projection): the supported exponent
    interval for transforms is open, so t = 0 only arises in diagnostics
    where the identity convention keeps power-addition laws simple.

    Raises
    ------
    NotHermitianError
        If P is not Hermitian within tolerance.
    NegativeSpectrumError
        If P has an eigenvalue below the clamp threshold.
    """
    P = as_matrix(P)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"exponent must lie in [0, 1], got {t}")
    if t == 0.0:
        return np.eye(P.shape[0], dtype=complex)
    w, Q = _psd_eigh(P)
    return (Q * w**t) @ Q.conj().T


def polar_decompose(T) -> PolarParts:
    """Polar decomposition T = U P with P = (T*T)^(1/2).

    Computed through the SVD: U = W V*, P = V diag(S) V*.  When T is
    singular the columns of W paired with zero singular values are dropped,
    which zeroes U on the kernel of P so that ker(U) = ker(P) = ker(T) up
    to the rank tolerance.
    """
    T = as_matrix(T)
    n = T.shape[0]
    parts = svd(T)
    W, s, V = parts.left, parts.singular_values, parts.right
    tol = rank_tolerance(s, n)
    r = int(np.count_nonzero(s > tol))
    U = W[:, :r] @ V[:, :r].conj().T
    P = (V * s) @ V.conj().T
    P = 0.5 * (P + P.conj().T)  # exact Hermitian symmetry for downstream eigh
    return PolarParts(isometry_part=U, modulus=P)


def _complex_to_json(z: np.ndarray) -> list:
    """Complex array as nested lists with one ``[re, im]`` pair per entry."""
    return np.stack((z.real, z.imag), -1).tolist()


def _complex_from_json(pairs, ndim: int) -> np.ndarray:
    """Parse nested ``[re, im]`` number pairs into a complex array with
    ``ndim`` axes; anything else raises SizeMismatchError."""
    try:
        parts = np.array(pairs)
    except ValueError as exc:  # ragged nesting
        raise SizeMismatchError(f"malformed [re, im] data: {exc}") from exc
    if parts.dtype.kind not in "biuf" or parts.shape[ndim:] != (2,):
        raise SizeMismatchError(f"expected {ndim}-d [re, im] numbers, got {parts.dtype} {parts.shape}")
    return parts.astype(float).view(complex)[..., 0]


def matrix_to_json(T) -> dict:
    """Matrix as a JSON-ready dict in the {"rows", "cols", "data"} format."""
    T = as_matrix(T)
    n, m = T.shape
    return {"rows": int(n), "cols": int(m), "data": _complex_to_json(T.ravel())}


def matrix_from_json(obj: dict) -> np.ndarray:
    """Parse a matrix from the {"rows", "cols", "data"} JSON format."""
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError) as exc:
        raise SizeMismatchError(f"malformed matrix object: {exc}") from exc
    if rows <= 0 or cols <= 0 or len(data) != rows * cols:
        raise SizeMismatchError(
            f"data length {len(data)} does not match {rows}x{cols}"
        )
    return as_matrix(_complex_from_json(data, ndim=1).reshape(rows, cols))


def load_matrix(path) -> np.ndarray:
    """Read a matrix from a JSON file in the wire format."""
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_json(json.load(fh))


def save_matrix(T, path) -> None:
    """Write a matrix to a JSON file in the wire format."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(T), fh, indent=2, sort_keys=True)
        fh.write("\n")
