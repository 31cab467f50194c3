"""Seeded random-matrix ensembles for the property suites.

Sampling is driven by the counter-based Philox generator so that a spec
is a complete, portable description of its matrix: identical specs yield
bit-identical samples, and per-trial seeds are derived by adding the
trial index to the base seed.  The generator identifier recorded in
reports is :data:`RNG_IDENTIFIER`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError
from .linalg_core import _integer, rank_tolerance

__all__ = ["EnsembleSpec", "sample_matrix", "trial_seed", "RNG_IDENTIFIER", "ENSEMBLE_KINDS"]

#: Algorithm identifier for the counter-based generator behind every draw.
RNG_IDENTIFIER = "philox4x64"

ENSEMBLE_KINDS = ("invertible", "hyperbolic", "normal", "unitary", "shift")

# resampling cap for the condition-number rejection loops
_MAX_RESAMPLES = 1000


@dataclass(frozen=True)
class EnsembleSpec:
    """Description of one random matrix draw.

    ``gap`` (hyperbolic only) is the minimum distance of eigenvalue moduli
    from 1; ``cond_cap`` caps the condition number of the similarity or of
    the sample itself; ``weights`` (shift only) fills the subdiagonal.
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
            dim, seed = _integer(self.dim, "dim"), _integer(self.seed, "seed")
        except ValueError as exc:
            raise InvalidSpecError(str(exc)) from None
        if dim < 1:
            raise InvalidSpecError(f"dim must be a positive integer, got {dim!r}")
        if seed < 0:
            raise InvalidSpecError(f"seed must be a nonnegative integer, got {seed!r}")
        # Python ints, so that a spec serializes and compares by value
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "seed", seed)
        if self.cond_cap <= 1.0:
            raise InvalidSpecError(f"cond_cap must exceed 1, got {self.cond_cap}")
        if self.kind == "hyperbolic":
            if self.gap is None or not self.gap > 0.0:
                raise InvalidSpecError("hyperbolic ensembles require gap > 0")
        elif self.gap is not None:
            raise InvalidSpecError(f"gap is only meaningful for hyperbolic, not {self.kind}")
        if self.kind == "shift":
            if self.weights is None or len(self.weights) != self.dim - 1:
                raise InvalidSpecError(
                    f"shift ensembles require dim - 1 = {self.dim - 1} weights"
                )
            if not all(np.isfinite(w) for w in self.weights):
                raise InvalidSpecError("shift weights must be finite reals")
        elif self.weights is not None:
            raise InvalidSpecError(f"weights are only meaningful for shift, not {self.kind}")

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.dim,
            "seed": self.seed,
            "gap": self.gap,
            "cond_cap": self.cond_cap,
            "weights": list(self.weights) if self.weights is not None else None,
        }


def trial_seed(base_seed: int, index: int) -> int:
    """Per-trial seed: the base seed advanced by the trial counter."""
    return base_seed + index


def _complex_gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    return (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)


def _random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-style unitary: QR of a complex Gaussian with phases fixed so
    the factorization is unique."""
    Q, R = np.linalg.qr(_complex_gaussian(rng, dim))
    diag = np.diag(R)
    return Q * (diag / np.abs(diag))


def _conditioned_gaussian(rng: np.random.Generator, dim: int, cond_cap: float) -> np.ndarray:
    for _ in range(_MAX_RESAMPLES):
        S = _complex_gaussian(rng, dim)
        sing = np.linalg.svd(S, compute_uv=False)
        if sing[0] / sing[-1] <= cond_cap:
            return S
    raise InvalidSpecError(f"could not draw a matrix with condition <= {cond_cap:g}")


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
        return (S * (moduli * phases)) @ np.linalg.inv(S)
    # invertible: resample until clear of singularity and well conditioned
    for _ in range(_MAX_RESAMPLES):
        T = _complex_gaussian(rng, d)
        sing = np.linalg.svd(T, compute_uv=False)
        if sing[-1] > rank_tolerance(sing, d) and sing[0] / sing[-1] <= spec.cond_cap:
            return T
    raise InvalidSpecError(f"could not draw an invertible matrix under cond_cap {spec.cond_cap:g}")
