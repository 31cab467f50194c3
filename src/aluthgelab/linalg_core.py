"""Dense complex-matrix kernel: validated SVD and eigenvalues, the
package's input gates, and the JSON wire formats.

All higher modules consume square complex matrices through this module.
Matrices are plain ``numpy.ndarray`` objects with dtype ``complex128``;
:func:`as_matrix` is the single validation gate, member by member for a
stack.  :func:`_integer` and :func:`_real` are the single gates for integer
and real-number arguments: they read a value as a Python int or float and
refuse anything else (a string too), an int below its bound, and NaN or an
int beyond the float range; infinities pass, for the caller's range test.
Every LAPACK call in the package that can fail goes through
:func:`_lapack`, which decides which typed error a failure raises.

The full SVD and the eigenvalues of one matrix are memoized, so the
transforms, the conjugator, the first iterate and the spectrum of one
operator share one factorization of each kind.  The memo holds one entry
per kind, the last matrix factored, keyed by that matrix's exact bytes
and shape: equal bits hit, anything else (-0.0 against 0.0 too) factors
anew and replaces the entry.  A stack of one is served from the same
entry with a leading axis; larger stacks bypass the memo.  The stored
arrays are read-only, so a caller cannot change a later result, and a
factorization that raises stores nothing.

The JSON wire format for matrices is::

    {"rows": n, "cols": n, "data": [[re, im], ...]}

with ``data`` row-major and one ``[re, im]`` pair per entry.  Result
records are encoded here too, by one rule (:func:`_record_to_json`): one
key per field, complex arrays as nested ``[re, im]`` pairs, tuples as
lists, ``None`` as ``null``, and nested values copied as
``dataclasses.asdict`` copies them.
"""

from __future__ import annotations

import json
import operator
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NoConvergenceError, NonFiniteEntryError, NotInvertibleError, SizeMismatchError

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


def _integer(value, name: str, least: int) -> int:
    """``value`` as a Python int, read with ``operator.index``, of at least
    ``least`` (0 or 1); anything else raises ValueError naming ``name``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be a {'positive' if least else 'nonnegative'} integer, got {value!r}")
    return value


def _real(value, name: str) -> float:
    """``value`` as a Python float, read from a real scalar (a Python or
    numpy number, a 0-d array, a Fraction or a bool); anything else, NaN
    and an int beyond the float range raise ValueError naming ``name``."""
    try:
        # numpy orders complex numbers, so they are refused by type; NaN fails the comparison
        if getattr(value, "ndim", 0) == 0 and not np.iscomplexobj(value) and value <= np.inf:
            return float(value)
    except (TypeError, ValueError, ArithmeticError):  # None, a string, a sequence; an int past the float range
        pass
    raise ValueError(f"{name} must be a real number, got {value!r}")


def operator_norm(T) -> float:
    """Spectral norm (largest singular value).

    Raises
    ------
    NonFiniteEntryError, SizeMismatchError
        Propagated from input validation.
    """
    return float(_norms(as_matrix(T)))


def _norms(T: np.ndarray) -> np.ndarray:
    """Spectral norm ||T|| of a validated matrix, or of each member of a
    stack from one batched values-only SVD."""
    return _singular_values(T).max(axis=-1, initial=0.0)


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
    The arrays are read-only: they are shared with later calls on the
    same matrix (see the module docstring).

    Raises
    ------
    NonFiniteEntryError, SizeMismatchError
        Propagated from input validation.
    NoConvergenceError
        If the underlying iteration fails to converge.
    """
    return _svd(as_matrix(T))


#: The last result of each memoized factorization: ``factor -> (key,
#: arrays)``, with ``key`` the shape and bytes of the one matrix factored.
_LAST: dict = {}


def _factored(factor, T: np.ndarray) -> tuple:
    """``factor(T)``, a tuple of arrays, for a validated matrix or stack,
    served from the memo described in the module docstring."""
    if T.ndim == 3:
        if len(T) != 1:
            return factor(T)
        return tuple(a[None] for a in _factored(factor, T[0]))
    key = (T.shape, T.tobytes())
    entry = _LAST.get(factor)
    if entry is None or entry[0] != key:
        arrays = factor(T)
        for a in arrays:
            a.flags.writeable = False
        # one tuple, stored at once, so a reader never pairs a key with
        # another matrix's arrays
        entry = _LAST[factor] = (key, arrays)
    return entry[1]


def _svd(T: np.ndarray) -> SvdParts:
    """:func:`svd` of a validated matrix, or of a stack of them."""
    return SvdParts(*_factored(_full_svd, T))


def _full_svd(T: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(left, singular_values, right)`` from one LAPACK SVD of a matrix,
    or of each member of a stack."""
    W, s, Vh = _lapack("svd", T)
    return W, s, Vh.conj().swapaxes(-1, -2)


def _singular_values(T: np.ndarray) -> np.ndarray:
    """The singular values alone of a validated matrix, or of each member
    of a stack, nonincreasing."""
    return _lapack("svd", T, compute_uv=False)


def _lapack(routine: str, *args, **kwargs):
    """``numpy.linalg.<routine>(*args, **kwargs)``, with a LAPACK failure
    raised as a package error: NotInvertibleError from ``solve`` and
    ``inv``, which fail only on a singular matrix, and NoConvergenceError
    from every other routine, which fails only when its iteration does not
    converge."""
    try:
        return getattr(np.linalg, routine)(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        if routine in ("solve", "inv"):
            raise NotInvertibleError(f"matrix is numerically singular ({routine}: {exc})") from exc
        raise NoConvergenceError(f"{routine} did not converge: {exc}") from exc


def eigenvalues(T) -> np.ndarray:
    """Eigenvalues of T with multiplicity, as a complex vector.

    Order follows the underlying solver and is deterministic for a fixed
    input but otherwise unspecified; use spectral.multiset_match to compare
    spectra.  The vector is read-only: it is shared with later calls on the
    same matrix (see the module docstring).
    """
    return _eigenvalues(as_matrix(T))


def _eigenvalues(T: np.ndarray) -> np.ndarray:
    """:func:`eigenvalues` of a validated matrix, or of a stack of them."""
    return _factored(_eigvals, T)[0]


def _eigvals(T: np.ndarray) -> tuple[np.ndarray]:
    """``(eigenvalues,)`` from one LAPACK eigenvalue solve."""
    return (_lapack("eigvals", T),)


def _complex_to_json(z: np.ndarray) -> list:
    """Complex array as nested lists with one ``[re, im]`` pair per entry."""
    return np.stack((z.real, z.imag), -1).tolist()


def _record_to_json(record) -> dict:
    """A dataclass record as a JSON-ready dict, by the payload rule in the
    module docstring."""
    return asdict(record, dict_factory=lambda fields: {name: _json_value(value) for name, value in fields})


def _json_value(value):
    """One record field as a payload holds it: an array as ``[re, im]``
    pairs, a tuple as a list, anything else as ``asdict`` copied it."""
    if isinstance(value, np.ndarray):
        return _complex_to_json(value)
    return list(value) if isinstance(value, tuple) else value


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
        rows, cols, size = _integer(obj["rows"], "rows", 1), _integer(obj["cols"], "cols", 1), len(obj["data"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SizeMismatchError(f"malformed matrix object: {exc}") from exc
    if size != rows * cols:
        raise SizeMismatchError(f"data length {size} does not match {rows}x{cols}")
    return as_matrix(_complex_from_json(obj["data"], ndim=1).reshape(rows, cols))


def load_matrix(path) -> np.ndarray:
    """Read a matrix from a JSON file in the wire format."""
    with open(path, "r", encoding="utf-8") as fh:
        return matrix_from_json(json.load(fh))


def save_matrix(T, path) -> None:
    """Write a matrix to a JSON file in the wire format."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(T), fh, indent=2, sort_keys=True)
        fh.write("\n")
