"""Seeded random-matrix ensembles for the property suites.

Sampling is driven by the counter-based Philox generator so that a spec
is a complete, portable description of its matrix: identical specs yield
bit-identical samples, and per-trial seeds are derived by adding the
trial index to the base seed.  The generator identifier recorded in
reports is :data:`RNG_IDENTIFIER`.

Every draw happens in one private core, ``_draw``, which takes a spec's
fields as arguments and validates none of them: :func:`sample_matrix`
hands it the fields of a validated :class:`EnsembleSpec`, and the verify
suites (``suites._sample``) the constants of their own specs, so they
build no spec.  ``_draw`` is the one place that knows which fields a kind
reads; the spec refuses a gap or weights on a kind that does not read
them.  ``_stream`` is the one constructor of the seeded generator: the
draws, the suites' shift weights and the pseudo-orbit points of
``shadowing`` all read it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError
from .linalg_core import _integer, _lapack, _real, _record_to_json, _singular_values, rank_tolerance

__all__ = ["EnsembleSpec", "sample_matrix", "trial_seed", "RNG_IDENTIFIER", "ENSEMBLE_KINDS"]

#: Algorithm identifier for the counter-based generator behind every draw.
RNG_IDENTIFIER = "philox4x64"

ENSEMBLE_KINDS = ("invertible", "hyperbolic", "normal", "unitary", "shift")

# resampling cap for the condition-number rejection loop
_MAX_RESAMPLES = 1000


def _stream(seed: int) -> np.random.Generator:
    """The generator named by :data:`RNG_IDENTIFIER`, seeded by ``seed``:
    the one constructor behind every seeded draw of the package."""
    return np.random.Generator(np.random.Philox(seed))


@dataclass(frozen=True)
class EnsembleSpec:
    """Description of one random matrix draw.

    ``gap`` (hyperbolic only) is the minimum distance of eigenvalue moduli
    from 1 (a gap so large that the draw overflows is refused when
    sampled); ``cond_cap`` caps the condition number of the similarity or of
    the sample itself; ``weights`` (shift only) fills the subdiagonal.
    Numbers are stored as Python ints and floats, a string refused, and
    ``weights`` as a tuple, so a spec serializes, compares and hashes by value.
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
        if self.gap is not None and self.kind != "hyperbolic":
            raise InvalidSpecError(f"gap is only meaningful for hyperbolic, not {self.kind}")
        if self.weights is not None and self.kind != "shift":
            raise InvalidSpecError(f"weights are only meaningful for shift, not {self.kind}")
        weights = self.weights
        try:
            object.__setattr__(self, "dim", _integer(self.dim, "dim", 1))
            object.__setattr__(self, "seed", _integer(self.seed, "seed", 0))
            object.__setattr__(self, "cond_cap", _real(self.cond_cap, "cond_cap"))
            if self.kind == "hyperbolic":
                object.__setattr__(self, "gap", _real(self.gap, "gap"))
            if self.kind == "shift":
                if not (isinstance(weights, Sequence) or np.ndim(weights) == 1) or len(weights) != self.dim - 1:
                    raise ValueError(f"shift ensembles require a sequence of dim - 1 weights, got {weights!r}")
                object.__setattr__(self, "weights", tuple(_real(w, "each shift weight") for w in weights))
        except ValueError as exc:
            raise InvalidSpecError(str(exc)) from None
        if not self.cond_cap > 1.0:  # inf is no cap
            raise InvalidSpecError(f"cond_cap must be above 1, got {self.cond_cap!r}")
        if self.kind == "hyperbolic" and not 0.0 < self.gap < np.inf:
            raise InvalidSpecError(f"hyperbolic ensembles require a finite gap > 0, got {self.gap!r}")
        if self.kind == "shift" and not all(abs(w) < np.inf for w in self.weights):
            raise InvalidSpecError(f"shift weights must be finite, got {weights!r}")

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
    return _draw(spec.kind, spec.dim, spec.seed, spec.gap, spec.cond_cap, spec.weights)


def _draw(kind: str, dim: int, seed: int, gap, cond_cap, weights) -> np.ndarray:
    """The draw of :func:`sample_matrix` from the fields of a spec, which
    are not validated again: each argument reads as its field does, and
    only the kind's own fields are read (``gap`` by hyperbolic draws alone,
    ``weights`` by shift draws alone, which draw nothing from a stream)."""
    if kind == "shift":
        T = np.zeros((dim, dim), dtype=complex)
        if dim > 1:
            T += np.diag(np.asarray(weights, dtype=float), -1)
        return T
    rng = _stream(seed)
    if kind == "unitary":
        return _random_unitary(rng, dim)
    if kind == "normal":
        diag = (rng.standard_normal(dim) + 1j * rng.standard_normal(dim)) / np.sqrt(2.0)
        U = _random_unitary(rng, dim)
        return (U * diag) @ U.conj().T
    if kind == "hyperbolic":
        inside = rng.random(dim) < 0.5 if gap < 1.0 else np.zeros(dim, dtype=bool)
        moduli = np.where(
            inside,
            rng.uniform((1.0 - gap) / 2.0, max(1.0 - gap, 1e-12), dim),
            rng.uniform(1.0 + gap, 2.0 + gap, dim),
        )
        phases = np.exp(2j * np.pi * rng.random(dim))
        S = _conditioned_gaussian(rng, dim, cond_cap)
        S_inv = _lapack("inv", S)
        with np.errstate(over="ignore", invalid="ignore"):
            T = (S * (moduli * phases)) @ S_inv
        if not np.isfinite(T).all():  # the moduli of a gap near the float limit overflow
            raise InvalidSpecError(f"a hyperbolic draw at gap {gap:g} overflows the float range")
        return T
    return _conditioned_gaussian(rng, dim, cond_cap)  # invertible
