"""Reference verdict of the ``iterates`` suite, recomputed with plain numpy.

The suite draws 100 invertible matrices, iterates the 0.5-Aluthge
transform up to 500 times and passes a trial if the last iterate's norm
is near the spectral radius and its normality defect is small.  Only if
fewer than 95% of the trials converge does it list the non-converged
ones as failures.  Close eigenvalue moduli make the iterates converge
slowly, so at 100 trials that gate trips on some base seeds (about one
in seven) without any wrong number.  The benchmark therefore does not
expect an all-pass iterates verdict: it expects the one this module
computes, and counts every difference as a failed check.

Only the matrices come from the package (``sample_matrix``, the
workload's input); the transform, norms, defects and spectral radius are
computed here from numpy's SVD, ``eigvalsh`` and ``eigvals``.
"""

from __future__ import annotations

import functools

import numpy as np

from aluthgelab.ensembles import EnsembleSpec, sample_matrix, trial_seed

#: The iterates suite's parameters, as its report's spec and tolerances state them.
LAMBDA = 0.5
BUDGET = 500
NORM_LIMIT_FACTOR = 1e-2
DEFECT_FACTOR = 1e-6
RATE_MIN = 0.95
#: Iteration stops once the defect is below this multiple of ||T||^2.
FLOOR_FACTOR = 1e-12


def _defect(S: np.ndarray) -> float:
    C = S.conj().T @ S - S @ S.conj().T
    return float(np.abs(np.linalg.eigvalsh(C)).max())


def converges(T: np.ndarray) -> bool:
    """Whether the suite's convergence test holds for T."""
    W, s, Vh = np.linalg.svd(T)
    scale = s[0] ** 2
    S, defect = T, _defect(T)
    for _ in range(BUDGET):
        if defect < FLOOR_FACTOR * scale:
            break
        # T = W diag(s) V*, so |T|^a U |T|^(1-a) = V s^a (V* W) s^(1-a) V*.
        V = Vh.conj().T
        S = (V * s**LAMBDA) @ (Vh @ W) @ (s[:, None] ** (1.0 - LAMBDA) * Vh)
        W, s, Vh = np.linalg.svd(S)
        defect = _defect(S)
    radius = float(np.abs(np.linalg.eigvals(T)).max())
    return abs(s[0] - radius) <= NORM_LIMIT_FACTOR * (1.0 + radius) and defect <= DEFECT_FACTOR * scale


@functools.lru_cache(maxsize=None)
def iterates_failures(base_seed: int, trials: int) -> list[int]:
    """Trial seeds the iterates suite must list as failures."""
    stuck = []
    for i in range(trials):
        seed = trial_seed(base_seed, i)
        T = sample_matrix(EnsembleSpec(kind="invertible", dim=2 + i % 5, seed=seed))
        if not converges(T):
            stuck.append(seed)
    return stuck if (trials - len(stuck)) / trials < RATE_MIN else []
