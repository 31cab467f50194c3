"""Dense complex-matrix kernel: validated SVD and eigenvalues, and the
matrix JSON wire format.

All higher modules consume square complex matrices through this module.
Matrices are plain ``numpy.ndarray`` objects with dtype ``complex128``;
:func:`as_matrix` is the single validation gate, member by member for a
stack, and integer arguments are read here too.  Factorizations delegate
to LAPACK through numpy, wrapped so that failures surface as typed errors.

The JSON wire format for matrices is::

    {"rows": n, "cols": n, "data": [[re, im], ...]}

with ``data`` row-major and one ``[re, im]`` pair per entry.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergenceError, NonFiniteEntryError, SizeMismatchError

__all__ = [
    "SvdParts",
    "as_matrix",
    "operator_norm",
    "svd",
    "eigenvalues",
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
    nonincreasing nonnegative vector.  For a stack of matrices each field
    carries the same leading axis.
    """

    left: np.ndarray
    singular_values: np.ndarray
    right: np.ndarray


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


def _as_stack(T) -> tuple[np.ndarray, bool]:
    """``(stack, single)``: a matrix as a stack of one (``single``), or a
    stack of k matrices, validated by :func:`as_matrix` member by member."""
    try:
        stack = np.asarray(T, dtype=complex)
    except ValueError as exc:  # ragged nesting
        raise SizeMismatchError(f"expected a square matrix or a stack of them: {exc}") from exc
    if stack.ndim != 3:
        return as_matrix(stack)[None], True
    for member in stack:
        as_matrix(member)
    return stack, False


def _integer(value, name: str) -> int:
    """``value`` as a Python int, read with ``operator.index``; anything
    that is not an integer raises ValueError naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def operator_norm(T) -> float:
    """Spectral norm (largest singular value)."""
    return float(np.linalg.norm(np.asarray(T, dtype=complex), 2))


def _norms(T: np.ndarray) -> np.ndarray:
    """Spectral norm ||T|| of each member of a stack, from one batched SVD."""
    return np.linalg.norm(T, 2, axis=(-2, -1))


def rank_tolerance(singular_values: np.ndarray, dim: int) -> float | np.ndarray:
    """Threshold below which a singular value counts as zero.

    Standard numerical rank cutoff: dim * machine epsilon * sigma_max.
    For a stack of singular-value vectors, one threshold per member.
    """
    s = np.asarray(singular_values)
    smax = s[..., 0] if s.shape[-1] else np.zeros(s.shape[:-1])
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
    return _svd(as_matrix(T))


def _svd(T: np.ndarray) -> SvdParts:
    """:func:`svd` of a validated matrix, or of a stack of them."""
    try:
        W, s, Vh = np.linalg.svd(T)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"SVD did not converge: {exc}") from exc
    return SvdParts(left=W, singular_values=s, right=Vh.conj().swapaxes(-1, -2))


def _singular_values(T: np.ndarray) -> np.ndarray:
    """The singular values alone of a validated matrix, or of each member
    of a stack, nonincreasing."""
    try:
        return np.linalg.svd(T, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"SVD did not converge: {exc}") from exc


def eigenvalues(T) -> np.ndarray:
    """Eigenvalues of T with multiplicity, as a complex vector.

    Order follows the underlying solver and is deterministic for a fixed
    input but otherwise unspecified; use spectral.multiset_match to compare
    spectra.
    """
    return _eigenvalues(as_matrix(T))


def _eigenvalues(T: np.ndarray) -> np.ndarray:
    """:func:`eigenvalues` of a validated matrix, or of a stack of them."""
    try:
        return np.linalg.eigvals(T)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(f"eigenvalue iteration did not converge: {exc}") from exc


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
