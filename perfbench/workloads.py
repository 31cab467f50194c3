"""The benchmark's workloads: inputs from a seed, one pass, and its checks.

Every workload calls the package through module attributes
(``aluthge.aluthge_transform`` rather than an imported name) so that the
tracer's rebinding sees the calls.

verify-suites
    ``aluthgelab verify --suite all`` over seeded ensembles.  Timed runs
    start the CLI in a fresh process (see ``run.py``); the traced run
    calls ``cli.main`` in-process.
large-operator
    Transforms, conjugator, a short iterate run and a spectrum report on
    seeded invertible matrices at n = 64, 128 and 256.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from typing import Callable, NamedTuple, Optional

import numpy as np

from aluthgelab import aluthge, cli, ensembles, spectral
from aluthgelab.errors import AluthgeLabError

import reference
import verdicts

# -- verify-suites --------------------------------------------------------


def verify_pass(argv: list[str]) -> tuple[int, dict]:
    """Run ``cli.main(argv)`` in this process; return its exit code and report."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, json.loads(out.getvalue())


def verify_check(argv: list[str], results: tuple[int, dict]) -> tuple[int, list[str]]:
    seed = int(argv[argv.index("--seed") + 1])
    return verdicts.check_report(*results, reference.iterates_failures(seed, verdicts.TRIALS))


# -- large-operator -------------------------------------------------------

OPERATOR_SIZES = (64, 128, 256)
OPERATOR_SIZES_QUICK = (8, 16, 32)
TRANSFORM_LAMBDAS = (0.25, 0.5, 0.75)
CONJUGATOR_LAMBDA = 0.5
ITERATE_STEPS = 3
#: ||H T H^-1 - D_lam(T)|| <= factor * n * eps * ||H|| ||H^-1|| ||T||.
SIMILARITY_FACTOR = 10.0


def large_operator_inputs(seed: int, quick: bool) -> list[np.ndarray]:
    sizes = OPERATOR_SIZES_QUICK if quick else OPERATOR_SIZES
    return [
        ensembles.sample_matrix(
            ensembles.EnsembleSpec(kind="invertible", dim=n, seed=ensembles.trial_seed(seed, i))
        )
        for i, n in enumerate(sizes)
    ]


def large_operator_pass(matrices: list[np.ndarray]) -> list:
    """Per matrix: (transforms, conjugator, iterate trace, spectrum report),
    or the error a call raised."""
    results = []
    for T in matrices:
        try:
            transforms = [aluthge.aluthge_transform(T, lam) for lam in TRANSFORM_LAMBDAS]
            conj = aluthge.conjugator(T, CONJUGATOR_LAMBDA)
            trace = aluthge.aluthge_iterates(T, CONJUGATOR_LAMBDA, ITERATE_STEPS)
            report = spectral.spectrum_report(T)
        except AluthgeLabError as exc:
            results.append(exc)
            continue
        results.append((transforms, conj, trace, report))
    return results


def large_operator_check(matrices: list[np.ndarray], results: list) -> tuple[int, list[str]]:
    """Spectra of every transform match spectrum_report(T); the conjugator
    is the similarity to D_0.5(T) within roundoff; iterate norms do not
    increase."""
    attempted, problems = 0, []
    eps = np.finfo(float).eps
    for T, result in zip(matrices, results):
        n = T.shape[0]
        if isinstance(result, AluthgeLabError):
            attempted += 1
            problems.append(f"n={n}: error: {result}")
            continue
        transforms, conj, trace, report = result
        norm = float(np.linalg.norm(T, 2))
        tol = 1e-7 * (1.0 + norm)
        for lam, D in zip(TRANSFORM_LAMBDAS, transforms):
            attempted += 1
            match = spectral.multiset_match(report.eigenvalues, np.linalg.eigvals(D), tol)
            if not match.matched:
                problems.append(f"n={n} lambda={lam}: spectra differ by {match.max_distance:.3e} > {tol:.3e}")
        attempted += 1
        H = conj.matrix
        similar = np.linalg.solve(H.T, (H @ T).T).T
        reference = transforms[TRANSFORM_LAMBDAS.index(CONJUGATOR_LAMBDA)]
        residual = float(np.linalg.norm(similar - reference, 2))
        bound = SIMILARITY_FACTOR * n * eps * conj.norm * conj.inverse_norm * norm
        if not residual <= bound:
            problems.append(f"n={n}: ||H T H^-1 - D(T)|| = {residual:.3e} > {bound:.3e}")
        attempted += 1
        rise = float(np.diff(trace.operator_norms).max())
        if rise > 1e-10 * (1.0 + norm):
            problems.append(f"n={n}: iterate norm increased by {rise:.3e}")
    return attempted, problems


def large_operator_summary(results: list) -> np.ndarray:
    """Numbers a repeated pass must reproduce."""
    values = []
    for result in results:
        if isinstance(result, AluthgeLabError):
            values.append(np.nan)
            continue
        transforms, conj, trace, report = result
        values += [np.linalg.norm(D) for D in transforms]
        values += [conj.norm, conj.inverse_norm, *trace.operator_norms, report.spectral_radius]
    return np.array(values)


# -- registry -------------------------------------------------------------


class Workload(NamedTuple):
    inputs: Callable  # (seed, quick) -> inputs
    run: Callable  # (inputs) -> results of one pass
    check: Callable  # (inputs, results) -> (attempted, problems)
    summary: Optional[Callable]  # (results) -> numbers a repeated pass must reproduce


WORKLOADS = {
    "verify-suites": Workload(
        lambda seed, quick: verdicts.verify_argv(seed),
        verify_pass,
        verify_check,
        None,
    ),
    "large-operator": Workload(large_operator_inputs, large_operator_pass, large_operator_check, large_operator_summary),
}
