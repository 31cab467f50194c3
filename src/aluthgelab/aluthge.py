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
iterate trace records both per step.  A step takes one SVD, whose largest
singular value is the norm of the iterate it transforms, and one
``eigvalsh``, for the defect: the largest |eigenvalue| of the Hermitian
S*S - SS*.  :func:`aluthge_iterates` also iterates a stack of k matrices
of one size in lockstep, each member stopping on its own.  A defect is
stored unscaled; the floor stop compares it with the starting norm, both
scaled by powers of two, so it does not depend on the scale of T.  The
CLI and the verify suite run the same core without keeping the iterates;
the suite also passes its convergence rule, a function that
:mod:`aluthgelab.suites` states, and each member stops where it first
holds, so the suite's traces are prefixes of these.  For invertible T the
transform is a similarity: with H = |T|^lam = V S^lam V*,

    D_lam(T) = H T H^(-1),   H^(-1) = V S^(-lam) V*,

and H together with its inverse provides the bi-Lipschitz conjugacy used
by the shadowing transfer in :mod:`aluthgelab.shadowing`.  One private
core, ``_conjugacy``, forms D_lam(T), H, H^(-1) and the cost
||H|| ||H^(-1)|| of a stack from its SVD, and is the only place H^(-1)
is formed; :func:`conjugator` forms H alone.
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
    _lapack,
    _norms,
    _real,
    _singular_values,
    _svd,
    _within_range,
    as_matrix,
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
]

#: Iterate early-stop: a normality defect below this multiple of the input's
#: squared norm is roundoff floor, so further iterates are noise.
EARLY_STOP_FACTOR = 1e-12


def check_lambda(lam: float) -> float:
    """Validate a transform exponent; must be a real number (not a string)
    strictly in (0, 1), else ValueError."""
    lam = _real(lam, "lambda")
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
    """|T|^t = V S^t V* from the SVD of T, or of a stack; for t < 0, T must be invertible."""
    V = parts.right
    return (V * parts.singular_values[..., None, :] ** t) @ V.conj().swapaxes(-1, -2)


def aluthge_transform(T, lam: float = 0.5) -> np.ndarray:
    """Lambda-Aluthge transform |T|^lam U |T|^(1-lam), from one SVD of T; a
    singular value beyond the float range raises NonFiniteEntryError."""
    lam = check_lambda(lam)
    return _transform(svd(T), lam)


def _scaled(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(A, exponent)`` with A = S * 2**-exponent, or each member of a
    stack so scaled, with its largest entry in [1/2, 1) ([1/2, sqrt 2) if its modulus overflows).

    The scaling is exact, and it keeps the squares of A from overflowing
    or underflowing.
    """
    peak = np.abs(S).max(axis=(-2, -1))
    if not np.isfinite(peak).all():  # where a modulus overflows, the larger parts set the peak
        peak = np.where(np.isfinite(peak), peak, np.maximum(np.abs(S.real), np.abs(S.imag)).max(axis=(-2, -1)))
    # the floor keeps 2**-exponent finite when the entries are subnormal
    exponent = np.maximum(np.frexp(peak)[1], -1000)
    return S * np.ldexp(1.0, -exponent)[..., None, None], exponent


def _defect(S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(defect, exponent)`` of S, or of each member of a stack, with
    ||S*S - SS*|| = ``defect * 4**exponent``: the largest |eigenvalue| of
    the Hermitian commutator of S scaled by :func:`_scaled`."""
    A, exponent = _scaled(S)
    Ah = A.conj().swapaxes(-1, -2)
    return np.abs(_lapack("eigvalsh", Ah @ A - A @ Ah)).max(axis=-1), exponent


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
    with np.errstate(over="ignore"):
        return float(_within_range(np.ldexp(defect, 2 * exponent), "normality defect"))


def scale_homogeneity_check(T, alpha: complex, lam: float = 0.5) -> float:
    """Discrepancy ||D_lam(alpha T) - alpha D_lam(T)||.

    The transform is homogeneous of degree one: scaling T by any complex
    alpha scales the transform by the same alpha, since |alpha T| =
    |alpha| |T| while the phase of alpha travels with the isometry factor
    of the polar decomposition.  (For alpha >= 0 this is the familiar
    |alpha| form; stating it with |alpha| for general complex alpha drops
    the phase and is off by exactly that phase.)  The returned value is
    roundoff only: at most 1e-10 * (1 + |alpha| ||T||).  An ``alpha`` that
    is not a finite complex number (a string included) raises ValueError.
    """
    T = as_matrix(T)
    try:  # the real-number gate, part by part
        value = complex(_real(np.real(alpha), "alpha"), _real(np.imag(alpha), "alpha"))
    except ValueError:
        value = complex(np.nan)  # refused with the infinite alphas
    if not abs(value) < np.inf:
        raise ValueError(f"alpha must be a complex number, got {alpha!r}")
    with np.errstate(over="ignore", invalid="ignore"):  # as_matrix refuses an overflowing alpha T
        scaled = value * T
    return float(_norms(aluthge_transform(scaled, lam) - value * aluthge_transform(T, lam)))


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


def _iterate(stack: np.ndarray, lam: float, n_max: int, converged=None, keep: bool = False):
    """Iterate a validated stack in lockstep; ``(norms, defects, radii,
    iterates)`` with one entry per member, in input order, and
    ``iterates`` None unless ``keep``.

    Each member records into its own row: iterate j's norm is the largest
    singular value of the SVD that forms iterate j + 1, and a member's
    last iterate takes a values-only SVD in the step where it stops.  Each
    step takes one ``eigvalsh``, for the defect, and the start norm is read
    off the SVD that step 1 takes.  A defect is stored unscaled in the
    step that forms it, one beyond the float range as inf, refused once
    the loop ends.  The rows double when full, so memory follows the
    steps taken, not ``n_max``.

    A member stops one iterate past the roundoff floor (read off the
    scaled defect), at the budget, or at the first iterate that meets the
    rule ``converged(norm, defect, start, radius)``, if given (the
    iterates suite passes its own): it takes arrays of the live members'
    norms, read off the SVD that would form the next iterate, stored
    defects, start norms and spectral radii, and returns which meet it.
    Each row under a rule is a prefix, bit for bit, of the row without.
    """
    k = len(stack)
    parts = _svd(stack)
    defect, start = _defect(stack)
    norm = np.ldexp(parts.singular_values.max(axis=-1), -start)  # ||T|| of each member
    threshold = EARLY_STOP_FACTOR * norm**2  # in units of 4**start
    radii = np.abs(_eigenvalues(stack)).max(axis=-1)
    at_floor = (defect < threshold) | (norm == 0)  # the zero matrix is at its floor
    live = np.arange(k)  # members still iterating
    norms, defects = np.zeros((k, 16)), np.zeros((k, 16))  # per member and iterate
    length = np.zeros(k, dtype=int)  # each member's trace length, set when it stops
    iterates = [[M] for M in stack] if keep else None
    with np.errstate(over="ignore"):  # a defect beyond the float range is stored as inf, refused below
        defects[:, 0] = np.ldexp(defect, 2 * start)
        for j in range(1, n_max + 1):
            if j == norms.shape[1]:  # the rows are full: double them
                norms, defects = (np.pad(a, ((0, 0), (0, j))) for a in (norms, defects))
            norms[live, j - 1] = parts.singular_values.max(axis=-1)
            if converged is not None:  # a member meeting the rule at iterate j - 1 stops there
                met = converged(norms[live, j - 1], defects[live, j - 1], norms[live, 0], radii[live])
                if met.any():  # if none is left, the step below runs on an empty stack and the loop ends
                    length[live[met]] = j
                    kept = ~met
                    live, parts = live[kept], SvdParts(parts.left[kept], parts.singular_values[kept], parts.right[kept])
            S = _transform(parts, lam)
            defect, exponent = _defect(S)
            defects[live, j] = np.ldexp(defect, 2 * exponent)
            if keep:
                for i, M in zip(live.tolist(), S):
                    iterates[i].append(M)
            # a member at the floor stops, this iterate confirming it, and at
            # the budget every member stops
            going = ~at_floor[live] & (j < n_max)
            at_floor[live] = np.ldexp(defect, 2 * (exponent - start[live])) < threshold[live]
            if not going.all():
                stop = live[~going]
                norms[stop, j] = _singular_values(S[~going]).max(axis=-1)
                length[stop] = j + 1
                live, S = live[going], S[going]
            if not live.size:
                break
            parts = _svd(S)
    if not np.isfinite(defects).all():  # the defect scales as ||T||^2
        member, j = np.argwhere(~np.isfinite(defects))[0].tolist()
        raise NonFiniteEntryError(f"normality defect beyond the float range (member {member}, iterate {j})")
    return (
        [row[:m] for row, m in zip(norms, length.tolist())],
        [row[:m] for row, m in zip(defects, length.tolist())],
        radii.tolist(),
        iterates,
    )


def _budget(lam: float, n_max: int) -> tuple[float, int]:
    """``(lam, n_max)`` checked as :func:`aluthge_iterates` checks them."""
    return check_lambda(lam), _integer(n_max, "n_max", 1)


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
        If an entry is not finite, or a norm, defect or eigenvalue overflows.
    SizeMismatchError
        If a member is not square or has no rows, or the members differ in size.
    """
    lam, n_max = _budget(lam, n_max)
    stack, single = _as_stack(T)
    norms, defects, radii, iterates = _iterate(stack, lam, n_max, keep=True)
    traces = [IterateTrace(*member) for member in zip(iterates, norms, defects, radii)]
    return traces[0] if single else traces


def write_trace_csv(trace: IterateTrace, path_or_file) -> None:
    """Write an iterate trace as CSV with columns step, operator_norm,
    normality_defect (header row included).  Accepts a path or an open
    text stream."""
    _write_trace(trace.operator_norms, trace.normality_defects, path_or_file)


def _write_trace(norms, defects, path_or_file) -> None:
    """:func:`write_trace_csv` of a trace with these norms and defects."""

    def _write(fh):
        writer = csv.writer(fh)
        writer.writerow(["step", "operator_norm", "normality_defect"])
        for k, (norm, defect) in enumerate(zip(norms, defects)):
            writer.writerow([k, repr(float(norm)), repr(float(defect))])

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


def _lipschitz(s: np.ndarray, lam: float) -> tuple[float, float]:
    """``(||H||, ||H^(-1)||)`` = (sigma_max^lam, sigma_min^(-lam)) of H =
    |T|^lam, from the singular values ``s`` of one T; a numerically
    singular T raises NotInvertibleError."""
    if not _truncated(s)[-1]:
        raise NotInvertibleError(f"operator is numerically singular (min singular value {s[-1]:.3e})")
    with np.errstate(over="ignore"):  # sigma_min^(-lam) of a subnormal sigma_min can overflow
        return tuple(map(float, _within_range((s[0] ** lam, s[-1] ** (-lam)), "conjugator norm")))


def conjugator(T, lam: float = 0.5) -> Conjugator:
    """Conjugating similarity H = |T|^lam for invertible T.

    Raises
    ------
    NotInvertibleError
        If the smallest singular value of T is within the rank tolerance.
    NonFiniteEntryError
        If a singular value or sigma_min^(-lam) is beyond the float range.
    """
    lam = check_lambda(lam)
    parts = svd(T)
    norm, inverse_norm = _lipschitz(parts.singular_values, lam)
    return Conjugator(matrix=_modulus_power(parts, lam), norm=norm, inverse_norm=inverse_norm)


def _conjugacy(parts: SvdParts, lam: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(D, H, H_inv, factor)`` of a stack from its SVD: the transforms
    D_lam(T), the conjugators H = |T|^lam and their inverses, and
    ||H|| ||H^(-1)|| of each member.

    Raises
    ------
    NotInvertibleError
        If a member is numerically singular; the factors are formed member
        by member, before anything else.
    """
    factor = np.array([norm * inverse for norm, inverse in (_lipschitz(s, lam) for s in parts.singular_values)])
    return _transform(parts, lam), _modulus_power(parts, lam), _modulus_power(parts, -lam), factor
