"""Seeded random-matrix ensembles for the property suites.

Sampling is driven by the counter-based Philox generator so that a spec
is a complete, portable description of its matrix: identical specs yield
bit-identical samples, and per-trial seeds are derived by adding the
trial index to the base seed.  The generator identifier recorded in
reports is :data:`RNG_IDENTIFIER`.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import InvalidSpecError
from .linalg_core import _integer, _lapack, _record_to_json, _singular_values, rank_tolerance

__all__ = ["EnsembleSpec", "sample_matrix", "trial_seed", "RNG_IDENTIFIER", "ENSEMBLE_KINDS"]

#: Algorithm identifier for the counter-based generator behind every draw.
RNG_IDENTIFIER = "philox4x64"

ENSEMBLE_KINDS = ("invertible", "hyperbolic", "normal", "unitary", "shift")

# resampling cap for the condition-number rejection loop
_MAX_RESAMPLES = 1000


@dataclass(frozen=True)
class EnsembleSpec:
    """Description of one random matrix draw.

    ``gap`` (hyperbolic only) is the minimum distance of eigenvalue moduli
    from 1 (a gap so large that the draw overflows is refused when
    sampled); ``cond_cap`` caps the condition number of the similarity or of
    the sample itself; ``weights`` (shift only) fills the subdiagonal and
    is stored as a tuple, so a spec compares and hashes by value.
    """

    kind: str
    dim: int
    seed: int
    gap: float | None = None
    cond_cap: float = 1e4
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise InvalidSpecError(f"unknown ensemble kind {self.kind!r}")
        try:
            # Python ints, so that a spec serializes and compares by value
            object.__setattr__(self, "dim", _integer(self.dim, "dim", 1))
            object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))
        except ValueError as exc:
            raise InvalidSpecError(str(exc)) from None
        # inf is no cap; nan fails the comparison
        if not isinstance(self.cond_cap, Real) or not self.cond_cap > 1.0:
            raise InvalidSpecError(f"cond_cap must be a real number above 1, got {self.cond_cap!r}")
        if self.kind == "hyperbolic":
            if not isinstance(self.gap, Real) or not 0.0 < self.gap < np.inf:
                raise InvalidSpecError(f"hyperbolic ensembles require a finite real gap > 0, got {self.gap!r}")
        elif self.gap is not None:
            raise InvalidSpecError(f"gap is only meaningful for hyperbolic, not {self.kind}")
        if self.kind == "shift":
            weights = self.weights
            vector = isinstance(weights, Sequence) or (isinstance(weights, np.ndarray) and weights.ndim == 1)
            if not vector or len(weights) != self.dim - 1:
                raise InvalidSpecError(
                    f"shift ensembles require a sequence of dim - 1 = {self.dim - 1} weights, got {weights!r}"
                )
            # abs(w) of nan, inf or an int beyond the float range fails the comparison
            if not all(isinstance(w, Real) and abs(w) <= sys.float_info.max for w in weights):
                raise InvalidSpecError(f"shift weights must be finite real numbers, got {weights!r}")
            object.__setattr__(self, "weights", tuple(weights))
        elif self.weights is not None:
            raise InvalidSpecError(f"weights are only meaningful for shift, not {self.kind}")

    def to_json(self) -> dict:
        return _record_to_json(self)


def trial_seed(base_seed: int, index: int) -> int:
    """Per-trial seed: the base seed advanced by the trial counter."""
    return base_seed + index


def _complex_gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    return (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-style unitary: QR of a complex Gaussian with phases fixed so
    the factorization is unique."""
    Q, R = _lapack("qr", _complex_gaussian(rng, dim))
    diag = np.diag(R)
    return Q * (diag / np.abs(diag))


def _conditioned_gaussian(rng: np.random.Generator, dim: int, cond_cap: float) -> np.ndarray:
    """A complex Gaussian from ``rng``, drawn again, at most _MAX_RESAMPLES
    times, until it is clear of singularity (smallest singular value above
    the rank tolerance) with condition number at most ``cond_cap``."""
    for _ in range(_MAX_RESAMPLES):
        S = _complex_gaussian(rng, dim)
        sing = _singular_values(S)
        if sing[-1] > rank_tolerance(sing, dim) and sing[0] / sing[-1] <= cond_cap:
            return S
    raise InvalidSpecError(f"could not draw an invertible matrix under cond_cap {cond_cap:g}")


def sample_matrix(spec: EnsembleSpec) -> np.ndarray:
    """Draw the matrix described by ``spec``; deterministic per spec."""
    rng = np.random.Generator(np.random.Philox(spec.seed))
    d = spec.dim
    if spec.kind == "shift":
        T = np.zeros((d, d), dtype=complex)
        if d > 1:
            T += np.diag(np.asarray(spec.weights, dtype=float), -1)
        return T
    if spec.kind == "unitary":
        return _random_unitary(rng, d)
    if spec.kind == "normal":
        diag = (rng.standard_normal(d) + 1j * rng.standard_normal(d)) / np.sqrt(2.0)
        U = _random_unitary(rng, d)
        return (U * diag) @ U.conj().T
    if spec.kind == "hyperbolic":
        gap = float(spec.gap)
        inside = rng.random(d) < 0.5 if gap < 1.0 else np.zeros(d, dtype=bool)
        moduli = np.where(
            inside,
            rng.uniform((1.0 - gap) / 2.0, max(1.0 - gap, 1e-12), d),
            rng.uniform(1.0 + gap, 2.0 + gap, d),
        )
        phases = np.exp(2j * np.pi * rng.random(d))
        S = _conditioned_gaussian(rng, d, spec.cond_cap)
        S_inv = _lapack("inv", S)
        with np.errstate(over="ignore", invalid="ignore"):
            T = (S * (moduli * phases)) @ S_inv
        if not np.isfinite(T).all():  # the moduli of a gap near the float limit overflow
            raise InvalidSpecError(f"a hyperbolic draw at gap {gap:g} overflows the float range")
        return T
    return _conditioned_gaussian(rng, d, spec.cond_cap)  # invertible
