"""Lambda-Aluthge transforms, iterates, normality diagnostics, and the
similarity conjugator for invertible operators.

For T = U|T| (polar decomposition) and lambda in (0, 1), the transform is

    D_lam(T) = |T|^lam U |T|^(1-lam).

Everything is read off one singular value decomposition T = W S V*.  Let
r be the number of singular values above ``rank_tolerance``; then
|T|^t = V_r S_r^t V_r* and U = W_r V_r*, so

    D_lam(T) = V_r S_r^lam (V_r* W_r) S_r^(1-lam) V_r*.

Both fractional powers are truncated to rank r, which keeps the kernel
convention ker U = ker |T| = ker T of the polar factor: singular values
at roundoff level are zero, not raised to a small power (for T = x y*
the result is exactly (y*x / ||y||^2) y y*).  See Higham, *Functions of
Matrices* (SIAM 2008), ch. 8.

Iterating the transform drives a finite-dimensional operator toward a
normal one while the operator norm decreases to the spectral radius; the
iterate trace records both diagnostics per step, read off the eigenvalues
of the Hermitian matrices S*S and S*S - SS*.  For invertible T the
transform is a similarity: with H = |T|^lam = V S^lam V*,

    D_lam(T) = H T H^(-1),   H^(-1) = V S^(-lam) V*,

and H together with its inverse provides the bi-Lipschitz conjugacy used
by the shadowing transfer in :mod:`aluthgelab.shadowing`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import NotInvertibleError
from .linalg_core import SvdParts, as_matrix, eigenvalues, operator_norm, rank_tolerance, svd

__all__ = [
    "IterateTrace",
    "Conjugator",
    "check_lambda",
    "aluthge_transform",
    "scale_homogeneity_check",
    "normality_defect",
    "aluthge_iterates",
    "write_trace_csv",
    "conjugator",
    "conjugacy",
]

#: Iterate early-stop: a normality defect below this multiple of the input's
#: squared norm is roundoff floor, so further iterates are noise.
EARLY_STOP_FACTOR = 1e-12


def check_lambda(lam: float) -> float:
    """Validate a transform exponent; must lie strictly in (0, 1)."""
    lam = float(lam)
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie strictly in (0, 1), got {lam}")
    return lam


def _numerical_rank(parts: SvdParts) -> int:
    s = parts.singular_values
    return int(np.count_nonzero(s > rank_tolerance(s, s.size)))


def _transform(parts: SvdParts, rank: int, lam: float) -> np.ndarray:
    """V_r S_r^lam (V_r* W_r) S_r^(1-lam) V_r* from the SVD of T."""
    s = parts.singular_values[:rank]
    V = parts.right[:, :rank]
    Vh = V.conj().T
    return (V * s**lam) @ (Vh @ parts.left[:, :rank]) @ (s[:, None] ** (1.0 - lam) * Vh)


def _modulus_power(parts: SvdParts, t: float) -> np.ndarray:
    """|T|^t = V S^t V*; for a negative t, T must be invertible."""
    V = parts.right
    return (V * parts.singular_values**t) @ V.conj().T


def aluthge_transform(T, lam: float = 0.5) -> np.ndarray:
    """Lambda-Aluthge transform |T|^lam U |T|^(1-lam), from one SVD of T."""
    lam = check_lambda(lam)
    parts = svd(T)
    return _transform(parts, _numerical_rank(parts), lam)


def _hermitian_norm(A: np.ndarray) -> float:
    """Operator norm of a Hermitian matrix: its largest |eigenvalue|."""
    return float(np.abs(np.linalg.eigvalsh(A)).max(initial=0.0))


def _norm_and_defect(S: np.ndarray) -> tuple[float, float]:
    """||S|| = sqrt(lambda_max(S*S)) and ||S*S - SS*||.

    S is first scaled by a power of two, which is exact, so that its
    squares neither overflow nor underflow while ||S|| is a normal float.
    """
    peak = float(np.abs(S).max(initial=0.0))
    if peak == 0.0:
        return 0.0, 0.0
    # the floor keeps 2**-exponent finite when the entries are subnormal
    exponent = max(int(np.frexp(peak)[1]), -1000)
    A = S * np.ldexp(1.0, -exponent)
    gram = A.conj().T @ A
    norm = np.sqrt(_hermitian_norm(gram))
    defect = _hermitian_norm(gram - A @ A.conj().T)
    return float(np.ldexp(norm, exponent)), float(np.ldexp(defect, 2 * exponent))


def normality_defect(T) -> float:
    """Operator norm of the self-commutator, ||T*T - TT*||.

    Zero exactly for normal matrices; the scale is ||T||^2.  The
    commutator is Hermitian, so its norm is its largest |eigenvalue|.
    """
    return _norm_and_defect(as_matrix(T))[1]


def scale_homogeneity_check(T, alpha: complex, lam: float = 0.5) -> float:
    """Discrepancy ||D_lam(alpha T) - alpha D_lam(T)||.

    The transform is homogeneous of degree one: scaling T by any complex
    alpha scales the transform by the same alpha, since |alpha T| =
    |alpha| |T| while the phase of alpha travels with the isometry factor
    of the polar decomposition.  (For alpha >= 0 this is the familiar
    |alpha| form; stating it with |alpha| for general complex alpha drops
    the phase and is off by exactly that phase.)  The returned value is
    roundoff only: at most 1e-10 * (1 + |alpha| ||T||).
    """
    T = as_matrix(T)
    alpha = complex(alpha)
    scaled = aluthge_transform(alpha * T, lam)
    reference = alpha * aluthge_transform(T, lam)
    return operator_norm(scaled - reference)


@dataclass(frozen=True)
class IterateTrace:
    """Trace of Aluthge iterates D_lam^(0)(T) .. D_lam^(N)(T).

    ``operator_norms`` is nonincreasing within 1e-10 slack;
    ``normality_defects`` records ||S*S - SS*|| per iterate;
    ``spectral_radius`` is r(T) of the starting operator, the limit of the
    norm sequence.  All sequences share one length, which may be shorter
    than requested when the defect reaches the early-stop floor.
    """

    iterates: list[np.ndarray]
    operator_norms: np.ndarray
    normality_defects: np.ndarray
    spectral_radius: float

    def __len__(self) -> int:
        return len(self.iterates)


def aluthge_iterates(T, lam: float = 0.5, n_max: int = 500) -> IterateTrace:
    """Iterate the lambda-Aluthge transform up to ``n_max`` times.

    Stops early once an iterate's normality defect falls below
    ``EARLY_STOP_FACTOR * ||T||^2``; one further iterate is appended past
    that point so a trace always exhibits the fixed point it reached.
    """
    lam = check_lambda(lam)
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    T = as_matrix(T)
    norm, defect = _norm_and_defect(T)
    threshold = EARLY_STOP_FACTOR * norm**2
    iterates = [T]
    norms = [norm]
    defects = [defect]
    at_floor = defect < threshold
    for _ in range(n_max):
        S = aluthge_transform(iterates[-1], lam)
        norm, defect = _norm_and_defect(S)
        iterates.append(S)
        norms.append(norm)
        defects.append(defect)
        if at_floor:
            break  # this iterate confirms the fixed point
        at_floor = defects[-1] < threshold
    radius = float(np.abs(eigenvalues(T)).max()) if T.shape[0] else 0.0
    return IterateTrace(
        iterates=iterates,
        operator_norms=np.array(norms),
        normality_defects=np.array(defects),
        spectral_radius=radius,
    )


def write_trace_csv(trace: IterateTrace, path_or_file) -> None:
    """Write an iterate trace as CSV with columns step, operator_norm,
    normality_defect (header row included).  Accepts a path or an open
    text stream."""

    def _write(fh):
        writer = csv.writer(fh)
        writer.writerow(["step", "operator_norm", "normality_defect"])
        for k in range(len(trace)):
            writer.writerow(
                [k, repr(float(trace.operator_norms[k])), repr(float(trace.normality_defects[k]))]
            )

    if hasattr(path_or_file, "write"):
        _write(path_or_file)
        return
    with open(path_or_file, "w", newline="", encoding="utf-8") as fh:
        _write(fh)


@dataclass(frozen=True)
class Conjugator:
    """Similarity H = |T|^lam with D_lam(T) = H T H^(-1).

    ``norm`` and ``inverse_norm`` are the Lipschitz constants of the
    conjugation and its inverse (computed exactly from the singular values
    of T: sigma_max^lam and sigma_min^(-lam)).
    """

    matrix: np.ndarray
    norm: float
    inverse_norm: float


def _conjugator(parts: SvdParts, rank: int, lam: float) -> Conjugator:
    s = parts.singular_values
    if rank == 0 or rank < s.size:
        raise NotInvertibleError(
            f"operator is numerically singular (min singular value {s[-1] if s.size else 0.0:.3e})"
        )
    return Conjugator(
        matrix=_modulus_power(parts, lam),
        norm=float(s[0] ** lam),
        inverse_norm=float(s[-1] ** (-lam)),
    )


def conjugator(T, lam: float = 0.5) -> Conjugator:
    """Conjugating similarity H = |T|^lam for invertible T.

    Raises
    ------
    NotInvertibleError
        If the smallest singular value of T is within the rank tolerance.
    """
    lam = check_lambda(lam)
    parts = svd(T)
    return _conjugator(parts, _numerical_rank(parts), lam)


def conjugacy(T, lam: float) -> tuple[np.ndarray, Conjugator, np.ndarray]:
    """D_lam(T), the conjugator H = |T|^lam and H^(-1), from one SVD of T.

    Raises
    ------
    NotInvertibleError
        If the smallest singular value of T is within the rank tolerance.
    """
    lam = check_lambda(lam)
    parts = svd(T)
    rank = _numerical_rank(parts)
    conj = _conjugator(parts, rank, lam)
    return _transform(parts, rank, lam), conj, _modulus_power(parts, -lam)
