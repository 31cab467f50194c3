"""Spectrum reports, eigenvalue-multiset matching, and the two
quasi-hyperbolicity verdicts.

In finite dimension the approximate point spectrum, the point spectrum,
and the spectrum coincide, so one eigenvalue report answers all three.
Two multisets are compared by their bottleneck distance, the least
largest paired distance over all pairings, computed exactly with
augmenting paths in numpy and plain Python.

An operator is hyperbolic when its spectrum avoids the unit circle, and
quasi-hyperbolic when for some exponent n

    max(||T^(2n) x||, ||x||) >= 2 ||T^n x||   for every vector x.

Two verdict routes are provided and kept deliberately independent:

* ``is_quasi_hyperbolic_spectral`` reads the criterion off the spectrum
  (no eigenvalue modulus equal to one), which is exact in finite
  dimension.
* ``quasi_hyperbolic_definitional`` decides the displayed inequality
  itself, exponent by exponent, from the matrix powers alone.  The two
  Hermitian forms it compares have a convex joint numerical range
  (Toeplitz-Hausdorff), so a one-dimensional search over a separating
  line settles each exponent exactly (the S-lemma; Polik & Terlaky,
  SIAM Review 2007): either a certificate that the inequality holds for
  every vector, or a unit vector that violates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import SizeMismatchError
from .linalg_core import (
    _as_stack, _full_svd, _integer, _lapack, _real, _record_to_json, _singular_values, _within_range, as_matrix,
    eigenvalues,
)

__all__ = [
    "SpectrumReport",
    "MatchResult",
    "QuasiHyperbolicVerdict",
    "spectrum_report",
    "multiset_match",
    "is_quasi_hyperbolic_spectral",
    "quasi_hyperbolic_definitional",
]

#: An eigenvalue lambda of an n x n matrix counts as "on the unit circle"
#: when ||lambda| - 1| is at most this factor times (1 + |lambda|), plus
#: n * eps * spectral radius, the roundoff a largest eigenvalue brings into
#: every eigenvalue.  Each eigenvalue is held to its own scale, so a large
#: one does not hide a small one's distance to the circle.
HYPERBOLICITY_TOL_FACTOR = 1e-8

#: An exponent n is left undecided when an entry of T^1..T^(2n) exceeds
#: this modulus.
OVERFLOW_LIMIT = 1e150

#: Witness margins within this factor times (1 + |m|) of the most negative
#: margin m are tied.  A margin is formed from at most 2 n_max products of
#: n x n matrices and three vector norms, each off by a few ulps relative
#: to the terms it compares; at n_max = 20 and n = 8 that is about 1e-13.
#: On a unitary every margin is -1 up to such roundoff.
_MARGIN_TIE_FACTOR = 1e-12


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalue multiset with derived hyperbolicity diagnostics.

    ``eigenvalues`` is sorted by (real, imaginary) part for determinism;
    ``circle_distance`` is min over eigenvalues of ||lambda| - 1|;
    ``hyperbolic`` is true when every eigenvalue clears its own tolerance
    HYPERBOLICITY_TOL_FACTOR * (1 + |lambda|) + n * eps * spectral_radius.
    """

    eigenvalues: np.ndarray
    spectral_radius: float
    circle_distance: float
    hyperbolic: bool

    def to_json(self) -> dict:
        return _record_to_json(self)


def spectrum_report(T) -> SpectrumReport:
    """Eigenvalues, spectral radius, distance to the unit circle, and the
    hyperbolic flag for a square matrix; an eigenvalue beyond the float
    range raises NonFiniteEntryError, as a non-finite entry does."""
    T = as_matrix(T)
    ev = eigenvalues(T)
    order = np.lexsort((ev.imag, ev.real))
    ev = ev[order]
    return SpectrumReport(ev, *_hyperbolicity(ev))


def _hyperbolicity(ev: np.ndarray) -> tuple[float, float, bool]:
    """Spectral radius, distance to the unit circle and the hyperbolic
    flag of an eigenvalue multiset (see :class:`SpectrumReport`)."""
    moduli = np.abs(ev)
    radius = float(moduli.max())
    distances = np.abs(moduli - 1.0)
    circle = float(distances.min())
    tolerances = HYPERBOLICITY_TOL_FACTOR * (1.0 + moduli) + ev.size * np.finfo(float).eps * radius
    return radius, circle, not (distances <= tolerances).any()


class MatchResult(NamedTuple):
    matched: bool
    max_distance: float


def multiset_match(a, b, tol: float) -> MatchResult:
    """Compare two eigenvalue multisets up to tolerance.

    ``max_distance`` is the bottleneck distance: the least, over all
    pairings of ``a`` with ``b``, of the largest paired distance.  The
    multisets match when it is at most ``tol``.  Pairing, not modulus
    sorting: near-ties in modulus make sorted comparisons unstable.

    Raises
    ------
    ValueError
        If ``tol`` is not a real number (a string is not), or is negative
        or NaN.
    SizeMismatchError
        If the multisets have different cardinality.
    NonFiniteEntryError
        If an entry is NaN or infinite, or a pairwise distance overflows.
    """
    tol = _real(tol, "tol")
    if not tol >= 0:
        raise ValueError(f"tol must be a nonnegative number, got {tol!r}")
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size != b.size:
        raise SizeMismatchError(f"multiset sizes differ: {a.size} vs {b.size}")
    if a.size == 0:
        return MatchResult(True, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        cost = _within_range(np.abs(a[:, None] - b[None, :]), "multiset distance")
    max_distance = _bottleneck(cost)
    return MatchResult(bool(max_distance <= tol), max_distance)


def _bottleneck(cost: np.ndarray) -> float:
    """The least d at which some permutation pairs every row of ``cost``
    with a column at distance at most d (Gabow & Tarjan 1988).

    Every row and every column needs a partner within d, so d is at least
    max(largest row minimum, largest column minimum).  That bound is tried
    first, and when the multisets agree up to small perturbations it is
    almost always the answer; otherwise a binary search runs over the
    sorted distinct distances above it.
    """
    ranked = np.argsort(cost, axis=1, kind="stable").tolist()
    nearest = np.sort(cost, axis=1)

    def perfect(d) -> bool:
        counts = (nearest <= d).sum(axis=1).tolist()
        return _perfect_matching([cols[:k] for cols, k in zip(ranked, counts)])

    lower = max(nearest[:, 0].max(), cost.min(axis=0).max())
    if perfect(lower):
        return float(lower)
    levels = np.unique(cost)
    lo, hi = int(np.searchsorted(levels, lower, side="right")), len(levels) - 1
    while lo < hi:  # levels[hi], the largest distance, always admits one
        mid = (lo + hi) // 2
        if perfect(levels[mid]):
            hi = mid
        else:
            lo = mid + 1
    return float(levels[lo])


def _perfect_matching(neighbours: list[list[int]]) -> bool:
    """Whether the bipartite graph in which row i may take the columns
    ``neighbours[i]`` (nearest first) pairs every row with a column of its own.

    Kuhn's augmenting paths (1955) from a greedy matching, each searched
    depth first with an explicit stack.  A row with no augmenting path
    never gains one later, so the first such row settles the answer.
    """
    owner = [-1] * len(neighbours)  # the row holding each column
    free = []
    for row, cols in enumerate(neighbours):
        col = next((c for c in cols if owner[c] < 0), None)
        if col is None:
            free.append(row)
        else:
            owner[col] = row
    for root in free:
        seen = [False] * len(neighbours)
        frames, path = [(root, iter(neighbours[root]))], []
        while frames:
            col = next((c for c in frames[-1][1] if not seen[c]), None)
            if col is None:  # dead end: back up to the previous row
                frames.pop()
                if path:
                    path.pop()
                continue
            seen[col] = True
            path.append(col)
            if owner[col] < 0:  # augment: each row on the path takes its column
                for (row, _), c in zip(frames, path):
                    owner[c] = row
                break
            frames.append((owner[col], iter(neighbours[owner[col]])))
        else:
            return False
    return True


@dataclass(frozen=True)
class QuasiHyperbolicVerdict:
    """Outcome of a quasi-hyperbolicity check.

    ``method`` is "spectral" or "definitional".  For a definitional true
    verdict, ``exponent`` is the smallest n at which the inequality holds
    and ``margin`` >= 0 is the inequality margin at the vector x* that
    settled it (see :func:`quasi_hyperbolic_definitional`).  For a
    definitional false verdict, ``witness`` is a unit vector violating the
    inequality by |margin| at exponent ``exponent``.  For the spectral
    method, ``margin`` is the distance of the spectrum to the unit circle.
    ``budget_exhausted`` marks a true verdict reached without a deciding
    exponent: none held, and ``exponent`` is the smallest one left
    undecided, because its powers passed OVERFLOW_LIMIT or because neither
    a certificate nor a violating vector could be resolved in floating
    point.  Its margin is reported as 0.
    """

    verdict: bool
    method: str
    exponent: Optional[int]
    witness: Optional[np.ndarray]
    margin: float
    budget_exhausted: bool = False

    def to_json(self) -> dict:
        return _record_to_json(self)


def is_quasi_hyperbolic_spectral(T) -> QuasiHyperbolicVerdict:
    """Spectral route: quasi-hyperbolic iff the spectrum (equal to the
    approximate point spectrum in finite dimension) avoids the unit
    circle; it raises as :func:`spectrum_report` does."""
    report = spectrum_report(T)
    return QuasiHyperbolicVerdict(
        verdict=report.hyperbolic,
        method="spectral",
        exponent=None,
        witness=None,
        margin=report.circle_distance,
    )


def _powers(T: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The powers T^1..T^count of each member of a stack (k, count, n, n),
    by successive batched products, and how many of them each member
    keeps: its powers are cut before the first one with an entry of
    modulus above OVERFLOW_LIMIT, and those past the cut are left 0.

    The largest entry modulus squares nothing, so the check itself cannot
    overflow, and products of the kept powers stay finite; a member stops
    multiplying at its cut.
    """
    powers = np.zeros((len(T), count) + T.shape[1:], dtype=complex)
    kept = np.full(len(T), count)
    live, power = np.arange(len(T)), T
    for i in range(count):
        over = ~(np.abs(power).max(axis=(-2, -1)) <= OVERFLOW_LIMIT)
        kept[live[over]] = i
        live, power = live[~over], power[~over]
        powers[live, i] = power
        if i + 1 < count:
            power = power @ T[live]
    return powers, kept


def _lowest(K: np.ndarray, h: np.ndarray, t: np.ndarray):
    """Minimal eigenvalue and unit eigenvector y of each K + t diag(h) in a
    stack, and the slope y* diag(h) y of that eigenvalue in t."""
    w, V = _lapack("eigh", K + (t[:, None] * h)[..., None] * np.eye(K.shape[-1]))
    y = V[..., 0]
    return w[..., 0], y, (h * np.abs(y) ** 2).sum(axis=-1)


def _isotropic(u, w, huu, hww, h):
    """Unit vectors x in span{u, w} with x* diag(h) x = 0, for stacked unit
    vectors with huu = u* diag(h) u > 0 > hww = w* diag(h) w."""
    huw = (u.conj() * h * w).sum(axis=-1)
    # x = a u + b e^(i theta) w, with e^(i theta) huw real and positive, has
    # x* diag(h) x = a^2 huu + 2ab |huw| + b^2 hww, zero at these a, b > 0;
    # dividing by the larger keeps tiny a and b from underflowing
    a = -hww
    b = np.abs(huw) + np.sqrt(np.abs(huw) ** 2 - huu * hww)
    scale = np.maximum(a, b)
    x = (a / scale)[:, None] * u + (b / scale * np.exp(-1j * np.angle(huw)))[:, None] * w
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _witness_margin(Tn: np.ndarray, T2n: np.ndarray, x: np.ndarray):
    """Exact inequality margin max(||T^(2n) x||, ||x||) - 2 ||T^n x|| at unit
    vectors x, one per matrix of a stack."""

    def norms(A):
        return np.linalg.norm((A @ x[..., None])[..., 0], axis=-1)

    return np.maximum(norms(T2n), np.linalg.norm(x, axis=-1)) - 2.0 * norms(Tn)


def quasi_hyperbolic_definitional(
    T, n_max: int = 20, seed: int = 0
) -> QuasiHyperbolicVerdict | list[QuasiHyperbolicVerdict]:
    """Definitional route: decide the displayed inequality exactly at each
    exponent n = 1..n_max and report the smallest one at which it holds.

    With GA = (T^2n)* T^2n and GB = (T^n)* T^n, exponent n fails iff the
    forms GA - 4 GB and I - 4 GB are negative at one vector.  Their joint
    numerical range is convex (Toeplitz-Hausdorff), so by the S-lemma n
    holds iff phi(t) = lambda_min(X* (t GA + (1 - t) I - 4 GB) X) >= 0 for
    some t in [0, 1], for any invertible X.  X = V (I + S^2)^(-1/2), from
    the SVD T^2n = U S V*, makes the pencil X* (t GA + (1 - t) I) X
    diagonal with entries in [0, 1], read off S without forming GA, and
    leaves 4 X* GB X = W* W with W = 2 T^n X bounded by 2 for normal T.
    phi is concave, with slope y* X* (GA - I) X y at its minimal
    eigenvector y.  All exponents bisect on the sign of that slope in
    lockstep, one batched ``eigh`` per step, and exponents above the
    smallest certified one are dropped.

    Each step, an exponent's minimax vector x* is X y for y the minimal
    eigenvector at t = 0 or t = 1 when phi peaks there, and otherwise for y
    the vector of the span of the two bracketing eigenvectors on which
    X* (GA - I) X vanishes (scaled to unit length).  The exponent is
    settled by a certificate (some phi(t) >= 0) with a nonnegative margin
    at x*, or, without one, by a negative margin at x*, which makes x* a
    witness.  An exponent that is neither when its bracket can no longer
    move is undecided.  Exponents whose powers pass OVERFLOW_LIMIT count
    as undecided too.

    The verdict is true at the smallest settled exponent that holds.
    Failing that, an undecided exponent makes it true with
    ``budget_exhausted`` set, at the smallest such exponent.  Otherwise it
    is false with the most negative witness; margins tied with it up to
    roundoff (``_MARGIN_TIE_FACTOR``) go to the smallest exponent, so the
    report does not change under a unitary change of basis.  An operator
    with a singular value beyond the float range raises
    NonFiniteEntryError, as the spectral route does, before any exponent
    is tried.  ``seed`` is accepted for compatibility and ignored: the
    decision is deterministic.

    ``T`` may also be a stack of k matrices of one size, shape (k, n, n).
    One verdict per member is then returned, in input order, equal to the
    verdict of that member alone: the exponents of every member bisect in
    one lockstep, and a hold drops only its own member's higher exponents.
    """
    stack, single = _as_stack(T)
    n_max = _integer(n_max, "n_max", 1)
    _singular_values(stack)  # an operator beyond the float range is refused, as by the spectral route
    verdicts = _decide(stack, n_max)
    return verdicts[0] if single else verdicts


def _decide(stack: np.ndarray, n_max: int) -> list[QuasiHyperbolicVerdict]:
    """The definitional verdict of each member of a stack; the exponents of
    all members run as one set of rows."""
    powers, kept = _powers(stack, 2 * n_max)
    # one row per (member, exponent) pair, members in order, exponents rising
    owner = np.repeat(np.arange(len(stack)), kept // 2)
    exponent = np.array([n for c in kept.tolist() for n in range(1, c // 2 + 1)], dtype=int)
    m = len(owner)
    # T^n and T^2n of each row are gathered from the powers where used, so
    # that no second copy of them stays alive
    sigma, V = _full_svd(powers[owner, 2 * exponent - 1])[1:]
    # cos and sin of arctan(sigma): X* GA X = diag(cos^2), X* X = diag(sin^2)
    cos, sin = sigma / np.hypot(1.0, sigma), 1.0 / np.hypot(1.0, sigma)
    X = V * sin[:, None, :]
    W = 2.0 * (powers[owner, exponent - 1] @ X)
    # phi(t) is lambda_min(K + t diag(h))
    K = sin[..., None] ** 2 * np.eye(stack.shape[-1]) - W.conj().swapaxes(-1, -2) @ W
    del V, W
    h = cos**2 - sin**2
    # the brackets: t, the minimal eigenvector y and the slope at each end
    t = np.tile([0.0, 1.0], (m, 1))
    ends = [_lowest(K, h, np.full(m, end)) for end in (0.0, 1.0)]
    v = np.stack([y for _, y, _ in ends], axis=1)
    s = np.stack([slope for _, _, slope in ends], axis=1)
    certified = (ends[0][0] >= 0) | (ends[1][0] >= 0)
    del ends
    live = np.arange(m)
    held = [None] * len(stack)
    fails = [[] for _ in stack]
    undecided = [list(range(c // 2 + 1, n_max + 1)) for c in kept.tolist()]
    while live.size:
        inner = (s[:, 0] > 0) & (s[:, 1] < 0)
        y = np.where((s[:, 0] <= 0)[:, None], v[:, 0], v[:, 1])
        y[inner] = _isotropic(v[inner, 0], v[inner, 1], s[inner, 0], s[inner, 1], h[live[inner]])
        x = (X[live] @ y[..., None])[..., 0]
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        member, n = owner[live], exponent[live]
        margin = _witness_margin(powers[member, n - 1], powers[member, 2 * n - 1], x)
        mid = t.mean(axis=1)
        holds = certified & (margin >= 0)
        fails_now = ~certified & (margin < 0)
        stuck = ~(holds | fails_now) & (certified | ~inner | (mid <= t[:, 0]) | (mid >= t[:, 1]))
        for i in np.flatnonzero(fails_now):
            fails[member[i]].append((float(margin[i]), int(n[i]), x[i]))
        for i in np.flatnonzero(stuck):
            undecided[member[i]].append(int(n[i]))
        keep = ~(holds | fails_now | stuck)
        if holds.any():  # each member's smallest hold drops its higher exponents
            cut = np.full(len(stack), n_max + 1)
            np.minimum.at(cut, member[holds], n[holds])
            for i in np.flatnonzero(holds & (n == cut[member])):
                held[member[i]] = (int(n[i]), float(margin[i]))
            keep &= n < cut[member]
        live, t, v, s, certified, mid = (a[keep] for a in (live, t, v, s, certified, mid))
        if not live.size:
            break
        phi, y, slope = _lowest(K[live], h[live], mid)
        certified |= phi >= 0
        # the bisection point replaces the bracket end on its side of the peak
        rows, end = np.arange(live.size), (slope <= 0).astype(int)
        t[rows, end], v[rows, end], s[rows, end] = mid, y, slope
    return [_verdict(*outcome) for outcome in zip(held, undecided, fails)]


def _verdict(held, undecided, fails) -> QuasiHyperbolicVerdict:
    """One member's verdict from its smallest held exponent and margin (or
    None), its undecided exponents and its failing ``(margin, exponent,
    witness)`` triples."""
    if held is not None:
        return QuasiHyperbolicVerdict(
            verdict=True, method="definitional", exponent=held[0], witness=None, margin=held[1]
        )
    if undecided:
        return QuasiHyperbolicVerdict(
            verdict=True,
            method="definitional",
            exponent=min(undecided),
            witness=None,
            margin=0.0,
            budget_exhausted=True,
        )
    lowest = min(margin for margin, _, _ in fails)
    tied = lowest + _MARGIN_TIE_FACTOR * (1.0 + abs(lowest))
    margin, exponent, witness = min((f for f in fails if f[0] <= tied), key=lambda f: f[1])
    return QuasiHyperbolicVerdict(
        verdict=False, method="definitional", exponent=exponent, witness=witness, margin=margin
    )
