"""Lambda-Aluthge transforms, iterates, normality diagnostics, and the
similarity conjugator for invertible operators.

For T = U|T| (polar decomposition) and lambda in (0, 1), the transform is

    D_lam(T) = |T|^lam U |T|^(1-lam).

Everything is read off one singular value decomposition T = W S V*.  Let
S_r be S with the singular values at or below ``rank_tolerance`` set to
zero; then |T|^t = V S_r^t V* and U = W_r V_r*, so

    D_lam(T) = V S_r^lam (V* W) S_r^(1-lam) V*.

Both fractional powers are truncated to the numerical rank r, which keeps
the kernel convention ker U = ker |T| = ker T of the polar factor:
singular values at roundoff level are zero, not raised to a small power
(for T = x y* the result is exactly (y*x / ||y||^2) y y*).  See Higham,
*Functions of Matrices* (SIAM 2008), ch. 8.

Iterating the transform drives a finite-dimensional operator toward a
normal one while the operator norm decreases to the spectral radius; the
iterate trace records both diagnostics per step.  An iterate's norm is
the largest singular value of the SVD that the next transform takes (the
last iterates' norms come from one values-only SVD), and its defect is
the largest |eigenvalue| of the Hermitian S*S - SS*, so a step takes one
SVD and one ``eigvalsh``.  :func:`aluthge_iterates` also takes a stack of
k matrices of one size and iterates them in lockstep: each step is one
batched SVD, transform and defect over the members still running, and
each member stops early on its own.  The early stop compares the defect
and the starting norm (from the eigenvalues of T*T) scaled by powers of
two, so it does not depend on the scale of T.  The verify suite runs the
same core without keeping the iterates.  For invertible T the
transform is a similarity: with H = |T|^lam = V S^lam V*,

    D_lam(T) = H T H^(-1),   H^(-1) = V S^(-lam) V*,

and H together with its inverse provides the bi-Lipschitz conjugacy used
by the shadowing transfer in :mod:`aluthgelab.shadowing`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteEntryError, NotInvertibleError
from .linalg_core import (
    SvdParts,
    _as_stack,
    _eigenvalues,
    _integer,
    _singular_values,
    _svd,
    as_matrix,
    operator_norm,
    rank_tolerance,
    svd,
)

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


def _truncated(s: np.ndarray) -> np.ndarray:
    """Singular values with those at or below ``rank_tolerance`` set to
    zero; ``s`` may carry a leading stack axis."""
    return np.where(s > rank_tolerance(s, s.shape[-1])[..., None], s, 0.0)


def _transform(parts: SvdParts, lam: float) -> np.ndarray:
    """V S_r^lam (V* W) S_r^(1-lam) V* from the SVD of T, or of a stack."""
    s = _truncated(parts.singular_values)
    V = parts.right
    Vh = V.conj().swapaxes(-1, -2)
    return (V * s[..., None, :] ** lam) @ (Vh @ parts.left) @ (s[..., :, None] ** (1.0 - lam) * Vh)


def _modulus_power(parts: SvdParts, t: float) -> np.ndarray:
    """|T|^t = V S^t V*; for a negative t, T must be invertible."""
    V = parts.right
    return (V * parts.singular_values**t) @ V.conj().T


def aluthge_transform(T, lam: float = 0.5) -> np.ndarray:
    """Lambda-Aluthge transform |T|^lam U |T|^(1-lam), from one SVD of T."""
    lam = check_lambda(lam)
    return _transform(svd(T), lam)


def _hermitian_norm(A: np.ndarray) -> np.ndarray:
    """Operator norm of a Hermitian matrix (or of each in a stack): its
    largest |eigenvalue|."""
    return np.abs(np.linalg.eigvalsh(A)).max(axis=-1, initial=0.0)


def _scaled(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(A, exponent)`` with A = S * 2**-exponent, or each member of a
    stack so scaled, with its largest entry in [1/2, 1).

    The scaling is exact, and it keeps the squares of A from overflowing
    or underflowing.
    """
    peak = np.abs(S).max(axis=(-2, -1), initial=0.0)
    # the floor keeps 2**-exponent finite when the entries are subnormal
    exponent = np.maximum(np.frexp(peak)[1], -1000)
    return S * np.ldexp(1.0, -exponent)[..., None, None], exponent


def _defect(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(defect, exponent)`` of S, or of each member of a stack, with
    ||S*S - SS*|| = ``defect * 4**exponent``, from one ``eigvalsh`` of the
    commutator of S scaled by :func:`_scaled`."""
    A, exponent = _scaled(S)
    Ah = A.conj().swapaxes(-1, -2)
    return _hermitian_norm(Ah @ A - A @ Ah), exponent


def _norm_and_defect(S: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_defect` and ||S|| = sqrt(lambda_max(S*S)) = ``norm *
    2**exponent`` as ``(norm, defect, exponent)``; the start of an
    iteration sets its stop threshold from this norm."""
    A, exponent = _scaled(S)
    Ah = A.conj().swapaxes(-1, -2)
    gram = Ah @ A
    return np.sqrt(_hermitian_norm(gram)), _hermitian_norm(gram - A @ Ah), exponent


def _unscaled(value: np.ndarray, exponent) -> np.ndarray:
    """``value * 2**exponent``, the true norm or defect of a scaled one.

    Raises
    ------
    NonFiniteEntryError
        If it is beyond the float range (the defect scales as ||T||^2).
    """
    with np.errstate(over="ignore"):
        value = np.ldexp(value, exponent)
    if not np.isfinite(value).all():
        raise NonFiniteEntryError(
            f"operator norm or normality defect beyond the float range (near 2**{int(np.max(exponent))})"
        )
    return value


def normality_defect(T) -> float:
    """Operator norm of the self-commutator, ||T*T - TT*||.

    Zero exactly for normal matrices; the scale is ||T||^2.  The
    commutator is Hermitian, so its norm is its largest |eigenvalue|.

    Raises
    ------
    NonFiniteEntryError
        If the defect is beyond the float range.
    """
    defect, exponent = _defect(as_matrix(T))
    return float(_unscaled(defect, 2 * exponent))


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


def _by_member(members: list[np.ndarray], values: np.ndarray, k: int) -> list[np.ndarray]:
    """Split ``values``, recorded for the concatenated ``members``, into
    one array per member i = 0..k-1, each in recording order."""
    members = np.concatenate(members)
    values = values[np.argsort(members, kind="stable")]
    return np.split(values, np.cumsum(np.bincount(members, minlength=k))[:-1])


def _step(S: np.ndarray, lam: float) -> tuple[np.ndarray, np.ndarray]:
    """``(||S||, D_lam(S))`` of each member of a stack, from one SVD."""
    parts = _svd(S)
    return parts.singular_values.max(axis=-1, initial=0.0), _transform(parts, lam)


def _iterate(stack: np.ndarray, lam: float, n_max: int, keep: bool = False):
    """Iterate a validated stack in lockstep; ``(norms, defects, radii,
    iterates)`` with one entry per member, in input order, and
    ``iterates`` None unless ``keep``.

    Iterate j's norm is the largest singular value of the SVD that forms
    iterate j + 1; the last iterates' norms come from one values-only SVD
    at the end.  Each step takes one ``eigvalsh``, for the defect.
    """
    k = len(stack)
    norm, defect, start = _norm_and_defect(stack)
    threshold = EARLY_STOP_FACTOR * norm**2  # in units of 4**start
    # a norm of T beyond the float range is refused before any step; the
    # defects are unscaled, and checked, at the end
    _unscaled(norm, start)
    at_floor = (defect < threshold) | (norm == 0)  # the zero matrix is at its floor
    live = np.arange(k)  # members still iterating
    # per step: the members live, the norms of their iterates and the
    # scaled defects and exponents of the iterates the step forms
    steps, norms, defects, exponents = [], [], [defect], [2 * start]
    last = []  # (members, their last iterates)
    iterates = [[M] for M in stack] if keep else None
    S = stack
    for _ in range(n_max):
        norm, S = _step(S, lam)
        defect, exponent = _defect(S)
        steps.append(live)
        norms.append(norm)
        defects.append(defect)
        exponents.append(2 * exponent)
        if keep:
            for i, M in zip(live.tolist(), S):
                iterates[i].append(M)
        going = ~at_floor  # a member at the floor stops: this iterate confirms it
        at_floor = np.ldexp(defect, 2 * (exponent - start)) < threshold
        if not going.all():
            last.append((live[~going], S[~going]))
            live, S, at_floor = live[going], S[going], at_floor[going]
            start, threshold = start[going], threshold[going]
        if not live.size:
            break
    else:
        last.append((live, S))
    norms.append(_singular_values(np.concatenate([S for _, S in last])).max(axis=-1, initial=0.0))
    radii = np.abs(_eigenvalues(stack)).max(axis=-1, initial=0.0)
    return (
        _by_member(steps + [members for members, _ in last], np.concatenate(norms), k),
        _by_member([np.arange(k), *steps], _unscaled(np.concatenate(defects), np.concatenate(exponents)), k),
        radii.tolist(),
        iterates,
    )


def aluthge_iterates(T, lam: float = 0.5, n_max: int = 500) -> IterateTrace | list[IterateTrace]:
    """Iterate the lambda-Aluthge transform up to ``n_max`` times.

    Stops early once an iterate's normality defect falls below
    ``EARLY_STOP_FACTOR * ||T||^2``, or at once for the zero matrix; one
    further iterate is appended past that point so a trace always exhibits
    the fixed point it reached.
    Both sides are compared scaled by powers of two, so the stop is the
    same at every scale of T.

    ``T`` may also be a stack of k matrices of one size, shape (k, n, n);
    the members are iterated in lockstep, each stopping on its own, and
    one :class:`IterateTrace` per member is returned, in input order.
    Each trace equals the one for that member alone.

    Raises
    ------
    ValueError
        If ``n_max`` is not an integer of at least 1.
    NonFiniteEntryError
        If an entry is not finite, or a norm or defect overflows.
    SizeMismatchError
        If a member is not square, or the members differ in size.
    """
    lam = check_lambda(lam)
    n_max = _integer(n_max, "n_max")
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    stack, single = _as_stack(T)
    if not len(stack):
        return []
    norms, defects, radii, iterates = _iterate(stack, lam, n_max, keep=True)
    traces = [IterateTrace(*member) for member in zip(iterates, norms, defects, radii)]
    return traces[0] if single else traces


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


def _conjugator(parts: SvdParts, lam: float) -> Conjugator:
    s = parts.singular_values
    if not s.size or not _truncated(s)[-1]:
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
    return _conjugator(svd(T), lam)


def conjugacy(T, lam: float) -> tuple[np.ndarray, Conjugator, np.ndarray]:
    """D_lam(T), the conjugator H = |T|^lam and H^(-1), from one SVD of T.

    Raises
    ------
    NotInvertibleError
        If the smallest singular value of T is within the rank tolerance.
    """
    lam = check_lambda(lam)
    parts = svd(T)
    conj = _conjugator(parts, lam)
    return _transform(parts, lam), conj, _modulus_power(parts, -lam)
