"""Spectrum reports, eigenvalue-multiset matching, and the two
quasi-hyperbolicity verdicts.

In finite dimension the approximate point spectrum, the point spectrum,
and the spectrum coincide, so one eigenvalue report answers all three.
An operator is hyperbolic when its spectrum avoids the unit circle, and
quasi-hyperbolic when for some exponent n

    max(||T^(2n) x||, ||x||) >= 2 ||T^n x||   for every vector x.

Two verdict routes are provided and kept deliberately independent:

* ``is_quasi_hyperbolic_spectral`` reads the criterion off the spectrum
  (no eigenvalue modulus equal to one), which is exact in finite
  dimension.
* ``quasi_hyperbolic_definitional`` attacks the displayed inequality
  directly, searching the unit sphere for a counterexample with a seeded
  multistart projected-gradient descent.  It is a falsifier: a positive
  verdict means "no counterexample found under the stated budget".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import SizeMismatchError
from .linalg_core import as_matrix, eigenvalues

__all__ = [
    "SpectrumReport",
    "MatchResult",
    "QuasiHyperbolicVerdict",
    "SearchBudget",
    "spectrum_report",
    "multiset_match",
    "is_quasi_hyperbolic_spectral",
    "quasi_hyperbolic_definitional",
]

#: An eigenvalue counts as "on the unit circle" when ||lambda| - 1| is at
#: most this factor times (1 + spectral radius).
HYPERBOLICITY_TOL_FACTOR = 1e-8

#: Matrix powers abort for a given exponent once any repeated-squaring
#: stage exceeds this norm.
OVERFLOW_LIMIT = 1e150


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalue multiset with derived hyperbolicity diagnostics.

    ``eigenvalues`` is sorted by (real, imaginary) part for determinism;
    ``circle_distance`` is min over eigenvalues of ||lambda| - 1|;
    ``hyperbolic`` is true when that distance clears the scale-aware
    tolerance HYPERBOLICITY_TOL_FACTOR * (1 + spectral_radius).
    """

    eigenvalues: np.ndarray
    spectral_radius: float
    circle_distance: float
    hyperbolic: bool

    def to_json(self) -> dict:
        return {
            "eigenvalues": [[float(z.real), float(z.imag)] for z in self.eigenvalues],
            "spectral_radius": self.spectral_radius,
            "circle_distance": self.circle_distance,
            "hyperbolic": self.hyperbolic,
        }


def spectrum_report(T) -> SpectrumReport:
    """Eigenvalues, spectral radius, distance to the unit circle, and the
    hyperbolic flag for a square matrix."""
    T = as_matrix(T)
    ev = eigenvalues(T)
    order = np.lexsort((ev.imag, ev.real))
    ev = ev[order]
    return SpectrumReport(ev, *_hyperbolicity(ev))


def _hyperbolicity(ev: np.ndarray) -> tuple[float, float, bool]:
    """Spectral radius, distance to the unit circle and the hyperbolic
    flag of an eigenvalue multiset (see :class:`SpectrumReport`)."""
    moduli = np.abs(ev)
    radius = float(moduli.max()) if ev.size else 0.0
    circle = float(np.abs(moduli - 1.0).min()) if ev.size else 1.0
    return radius, circle, bool(circle > HYPERBOLICITY_TOL_FACTOR * (1.0 + radius))


class MatchResult(NamedTuple):
    matched: bool
    max_distance: float


def multiset_match(a, b, tol: float) -> MatchResult:
    """Compare two eigenvalue multisets up to tolerance.

    Builds the pairwise distance matrix and solves the optimal assignment
    problem (minimal total distance); the multisets match when the largest
    paired distance is at most ``tol``.  Assignment, not modulus sorting:
    near-ties in modulus make sorted comparisons unstable.

    Raises
    ------
    SizeMismatchError
        If the multisets have different cardinality.
    """
    a = np.asarray(a, dtype=complex).ravel()
    b = np.asarray(b, dtype=complex).ravel()
    if a.size != b.size:
        raise SizeMismatchError(f"multiset sizes differ: {a.size} vs {b.size}")
    if a.size == 0:
        return MatchResult(True, 0.0)
    # imported here: scipy.optimize dominates the package's import time
    from scipy.optimize import linear_sum_assignment

    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    max_distance = float(cost[rows, cols].max())
    return MatchResult(bool(max_distance <= tol), max_distance)


@dataclass(frozen=True)
class QuasiHyperbolicVerdict:
    """Outcome of a quasi-hyperbolicity check.

    ``method`` is "spectral" or "definitional".  For a definitional true
    verdict, ``exponent`` is the smallest n not falsified.  For a
    definitional false verdict, ``witness`` is a unit vector violating the
    inequality by |margin| at exponent ``exponent``.  For the spectral
    method, ``margin`` is the distance of the spectrum to the unit circle.
    ``budget_exhausted`` marks a true verdict whose deciding exponent was
    aborted (power overflow) rather than searched to completion; its
    margin is reported as 0.
    """

    verdict: bool
    method: str
    exponent: Optional[int]
    witness: Optional[np.ndarray]
    margin: float
    budget_exhausted: bool = False

    def to_json(self) -> dict:
        witness = None
        if self.witness is not None:
            witness = [[float(z.real), float(z.imag)] for z in self.witness]
        return {
            "verdict": self.verdict,
            "method": self.method,
            "exponent": self.exponent,
            "witness": witness,
            "margin": self.margin,
            "budget_exhausted": self.budget_exhausted,
        }


def is_quasi_hyperbolic_spectral(T) -> QuasiHyperbolicVerdict:
    """Spectral route: quasi-hyperbolic iff the spectrum (equal to the
    approximate point spectrum in finite dimension) avoids the unit
    circle."""
    report = spectrum_report(T)
    return QuasiHyperbolicVerdict(
        verdict=report.hyperbolic,
        method="spectral",
        exponent=None,
        witness=None,
        margin=report.circle_distance,
    )


@dataclass(frozen=True)
class SearchBudget:
    """Multistart budget for the definitional falsifier."""

    starts: int = 12
    iters: int = 160

    def __post_init__(self):
        if self.starts < 1 or self.iters < 1:
            raise ValueError("search budget must allow at least one start and one iteration")


class _PowerOverflow(Exception):
    """Internal: repeated squaring exceeded OVERFLOW_LIMIT."""


def _matrix_power_monitored(T: np.ndarray, n: int) -> np.ndarray:
    """T^n by repeated squaring; aborts when any stage norm passes
    OVERFLOW_LIMIT."""
    result = np.eye(T.shape[0], dtype=complex)
    base = T
    k = n
    while k:
        if k & 1:
            result = result @ base
            if not np.isfinite(result).all() or np.linalg.norm(result) > OVERFLOW_LIMIT:
                raise _PowerOverflow(f"norm exceeded {OVERFLOW_LIMIT:g} at exponent {n}")
        k >>= 1
        if k:
            base = base @ base
            if not np.isfinite(base).all() or np.linalg.norm(base) > OVERFLOW_LIMIT:
                raise _PowerOverflow(f"norm exceeded {OVERFLOW_LIMIT:g} at exponent {n}")
    return result


def _realify(G: np.ndarray) -> np.ndarray:
    """Real symmetric form of a Hermitian G: quadratic values agree under
    the identification x = v[:d] + i v[d:]."""
    A, B = G.real, G.imag
    R = np.block([[A, -B], [B, A]])
    return 0.5 * (R + R.T)


def _sphere_descent(GA, GB, v0, iters):
    """Minimize f(v) = max(sqrt(v GA v), 1) - 2 sqrt(v GB v) on the unit
    sphere by projected subgradient descent with Armijo backtracking."""

    def value(v):
        a = np.sqrt(max(float(v @ GA @ v), 0.0))
        b = np.sqrt(max(float(v @ GB @ v), 0.0))
        return max(a, 1.0) - 2.0 * b, a, b

    v = v0 / np.linalg.norm(v0)
    fv, a, b = value(v)
    step = 1.0
    for _ in range(iters):
        grad = np.zeros_like(v)
        if a > 1.0:
            grad += (GA @ v) / a
        if b > 1e-300:
            grad -= 2.0 * (GB @ v) / b
        grad -= (grad @ v) * v  # tangent to the sphere
        gnorm = np.linalg.norm(grad)
        if gnorm < 1e-14:
            break
        moved = False
        while step > 1e-18:
            w = v - step * grad
            w /= np.linalg.norm(w)
            fw, aw, bw = value(w)
            if fw < fv - 1e-4 * step * gnorm * gnorm:
                v, fv, a, b = w, fw, aw, bw
                moved = True
                break
            step *= 0.5
        if not moved:
            break
        step = min(step * 2.0, 1.0)
    return v, fv


def _witness_margin(Tn: np.ndarray, T2n: np.ndarray, x: np.ndarray) -> float:
    """Exact inequality margin max(||T^(2n) x||, ||x||) - 2 ||T^n x|| at a
    unit vector x."""
    return float(
        max(np.linalg.norm(T2n @ x), np.linalg.norm(x)) - 2.0 * np.linalg.norm(Tn @ x)
    )


def quasi_hyperbolic_definitional(
    T,
    n_max: int = 20,
    budget: SearchBudget | None = None,
    seed: int = 0,
) -> QuasiHyperbolicVerdict:
    """Definitional route: search for a counterexample to the displayed
    inequality at each exponent n = 1..n_max.

    For each n the inequality margin is minimized over the unit sphere by
    seeded multistart projected-gradient descent on the equivalent real
    quadratic forms.  The first exponent where no violation is found
    yields a true verdict (with the minimum margin located); if every
    exponent is falsified the verdict is false, reporting the worst
    witness found and its exponent.  Exponents whose matrix powers
    overflow are skipped; if only such exponents remain un-falsified, the
    verdict is true with ``budget_exhausted`` set.
    """
    T = as_matrix(T)
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    budget = budget or SearchBudget()
    rng = np.random.Generator(np.random.Philox(seed))
    d = T.shape[0]
    worst_margin = np.inf
    worst_witness = None
    worst_exponent = None
    first_aborted = None
    for n in range(1, n_max + 1):
        try:
            Tn = _matrix_power_monitored(T, n)
            T2n = Tn @ Tn
            if not np.isfinite(T2n).all() or np.linalg.norm(T2n) > OVERFLOW_LIMIT:
                raise _PowerOverflow(f"norm exceeded {OVERFLOW_LIMIT:g} at exponent {2 * n}")
        except _PowerOverflow:
            if first_aborted is None:
                first_aborted = n
            continue
        GA = _realify(T2n.conj().T @ T2n)
        GB = _realify(Tn.conj().T @ Tn)
        best_margin = np.inf
        best_vector = None
        for _ in range(budget.starts):
            v0 = rng.standard_normal(2 * d)
            v, fv = _sphere_descent(GA, GB, v0, budget.iters)
            if fv < best_margin:
                best_margin = fv
                best_vector = v
            if best_margin < -1e-8:
                break  # a clear violation settles this exponent
        x = best_vector[:d] + 1j * best_vector[d:]
        margin = _witness_margin(Tn, T2n, x)
        if margin < 0.0:
            if margin < worst_margin:
                worst_margin = margin
                worst_witness = x
                worst_exponent = n
            continue
        return QuasiHyperbolicVerdict(
            verdict=True,
            method="definitional",
            exponent=n,
            witness=None,
            margin=margin,
        )
    if first_aborted is not None:
        return QuasiHyperbolicVerdict(
            verdict=True,
            method="definitional",
            exponent=first_aborted,
            witness=None,
            margin=0.0,
            budget_exhausted=True,
        )
    return QuasiHyperbolicVerdict(
        verdict=False,
        method="definitional",
        exponent=worst_exponent,
        witness=worst_witness,
        margin=worst_margin,
    )
