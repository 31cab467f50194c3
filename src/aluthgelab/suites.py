"""Ensemble property suites behind the ``verify`` command.

Each suite runs seeded trials of one preservation property and returns an
:class:`ExperimentReport` that embeds every parameter needed to rerun it:
the ensemble sweep, the base seed, the generator identifier, and the
numeric tolerances.  A suite is declared once, as its ``spec``, its
``tolerances`` and a per-trial check; the check reads every number it
uses from those two dicts, so a report states exactly what was run.

Trial ``i`` of a suite is derived from its spec alone:

    seed   = trial_seed(spec["seed"], i)          (base seed + i)
    kind   = kinds[i % len(kinds)]
    dim    = lo + i % (hi - lo + 1)               with [lo, hi] = dims
    lambda = lambdas[i % len(lambdas)]            (none without lambdas)

A trial that throws a package error is recorded as a failure with the
text ``"{kind} dim {dim}: error: {exception}"``, never as a crash of the
runner.

Every suite runs the trials of each dim as one (k, n, n) stack, and each
trial's check reads its own result:

    spectral   one ``_svd`` of the stack, one ``_transform`` per distinct
               lambda on its members, and one ``_eigenvalues`` call on the
               operators and their transforms together; the multiset match
               runs per trial
    fixedpoint one ``_svd`` of the stack feeds the transform of every
               lambda; the bounds and drifts are batched spectral norms
    iterates   one ``aluthge_iterates`` call iterates the stack in lockstep
    shadowing  one ``hyperbolic_splitting`` call splits the stack, one
               orbit draw per trial is scaled to each delta, then one
               batched shadow and check covers every trial and delta
    transfer   the conjugacy of each trial (the lambdas mix in a stack),
               one ``hyperbolic_splitting`` call for the operators and one
               for their transforms, then one batched shadow and check of
               both directions of every trial
    quasihyp   one ``quasi_hyperbolic_definitional`` call decides the
               definitional matrices of the stack; the spectral checks
               run per trial

A stacked result equals the result of the trial alone bit for bit: each
transform takes a scalar lambda, as ``aluthge_transform`` does, and every
batched factorization factors each member on its own.

The orbits of the shadowing and transfer stacks are those of
``generate_pseudo_orbit`` bit for bit: unit-ball points from one Philox
stream per seed, scaled by delta / (1 + ||T||), with ||T|| of every
member from one batched SVD that the check of the shadows reuses.

If a stack raises, each of its trials is run alone, as a stack of one, so
only the failing trial records the error.

:func:`run_all` runs the iterates suite, which takes longer than the
other five together, in one forked worker process while this process runs
the other five, when the process may use at least two CPUs and the
``fork`` start method exists; otherwise it runs the six in turn.  The
reports are the same either way, bit for bit.  ``taskset -c 0`` forces
the serial path.  With the worker, each process should keep to one BLAS
thread (``OPENBLAS_NUM_THREADS=1``), or the two oversubscribe the CPUs.

Suites
------
spectral
    Eigenvalue multisets of T and D_lam(T) match across invertible,
    normal, and shift samples.
fixedpoint
    Normal operators are fixed points of every transform.
iterates
    Iterate norms decrease monotonically; norms approach the spectral
    radius and defects the roundoff floor for a calibrated fraction of
    trials.
shadowing
    Ball-mode pseudo-orbits of hyperbolic samples are shadowed within
    C * delta, the shadow is a true orbit, and epsilon responds linearly
    to delta.
transfer
    Shadowing transfers across the conjugacy in both directions within
    the Lipschitz-inflated bound.
quasihyp
    Spectral quasi-hyperbolicity verdicts of T and D_lam(T) agree, and
    the exact definitional decision agrees with the spectral route away
    from the unit circle.
"""

from __future__ import annotations

import copy
import os
import sys
import time
from dataclasses import asdict, dataclass, replace
from typing import Callable, NamedTuple, Optional

import numpy as np

from .aluthge import _transform, aluthge_iterates, aluthge_transform, conjugacy
from .ensembles import RNG_IDENTIFIER, EnsembleSpec, sample_matrix, trial_seed
from .errors import AluthgeLabError
from .linalg_core import SvdParts, _eigenvalues, _svd
from .shadowing import (
    EPSILON_SLACK,
    RESIDUAL_TOL_FACTOR,
    _ball_orbits,
    _norms,
    _shadow,
    _unit_orbits,
    _verified,
    hyperbolic_splitting,
)
from .spectral import is_quasi_hyperbolic_spectral, multiset_match, quasi_hyperbolic_definitional

__all__ = ["ExperimentReport", "SUITE_NAMES", "LAMBDA_GRID", "run_suite", "run_all"]

SUITE_NAMES = ("spectral", "fixedpoint", "iterates", "shadowing", "transfer", "quasihyp")

LAMBDA_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)

#: Problem recorded by a trial that did not converge (or raised).  It
#: stands only when the suite declares a ``convergence_rate_min`` and the
#: population rate falls below it; otherwise it is dropped.
_UNCONVERGED = "non-converged trial"


@dataclass(frozen=True)
class ExperimentReport:
    """Self-contained record of one suite run."""

    suite: str
    spec: dict
    trials: int
    passes: int
    failures: list
    tolerances: dict
    wall_time: float
    rng: str = RNG_IDENTIFIER

    @property
    def all_passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return asdict(self)


class _Trial(NamedTuple):
    seed: int
    kind: str
    dim: int
    lam: Optional[float]


def _trial(spec: dict, index: int) -> _Trial:
    """Trial ``index`` of a suite, derived from its spec alone."""
    kinds, lambdas = spec["kinds"], spec.get("lambdas")
    lo, hi = spec["dims"]
    return _Trial(
        seed=trial_seed(spec["seed"], index),
        kind=kinds[index % len(kinds)],
        dim=lo + index % (hi - lo + 1),
        lam=lambdas[index % len(lambdas)] if lambdas else None,
    )


def _sample(trial: _Trial, spec: dict, **extra) -> np.ndarray:
    """The trial's matrix, drawn under the spec's condition cap if it has one."""
    if "cond_cap" in spec:
        extra["cond_cap"] = spec["cond_cap"]
    return sample_matrix(EnsembleSpec(kind=trial.kind, dim=trial.dim, seed=trial.seed, **extra))


def _spectral_matrix(trial, spec):
    """The trial's matrix; a shift draw takes its weights from the trial
    seed's own stream."""
    weights = None
    if trial.kind == "shift":
        rng = np.random.Generator(np.random.Philox(trial.seed))
        weights = tuple(rng.uniform(*spec["shift_weights"], trial.dim - 1))
    return _sample(trial, spec, weights=weights)


def _stack_spectral(group, spec, tolerances):
    """Each trial's eigenvalues of T and of D_lam(T) and its match
    tolerance, by seed, for a group of one dim: one ``_svd`` of the stack,
    one ``_transform`` per distinct lambda on its members, then one
    ``_eigenvalues`` call on T and D stacked together."""
    T = np.stack([_spectral_matrix(trial, spec) for trial in group])
    parts = _svd(T)
    lams = np.array([trial.lam for trial in group])
    D = np.empty_like(T)
    for lam in dict.fromkeys(lams.tolist()):
        members = lams == lam
        D[members] = _transform(
            SvdParts(parts.left[members], parts.singular_values[members], parts.right[members]), lam
        )
    tols = tolerances["eigenvalue_match_factor"] * (1.0 + _norms(T))
    spectra = _eigenvalues(np.concatenate([T, D]))
    return {
        trial.seed: (before, after, tol)
        for trial, before, after, tol in zip(group, spectra[: len(group)], spectra[len(group) :], tols.tolist())
    }


def _check_spectral(trial, spec, tolerances, spectra):
    before, after, tol = spectra
    matched, distance = multiset_match(before, after, tol)
    if matched:
        return []
    return [
        f"{trial.kind} dim {trial.dim} lambda {trial.lam}: "
        f"spectra differ by {distance:.3e} > {tol:.3e}"
    ]


def _stack_fixedpoint(group, spec, tolerances):
    """Each trial's drifts ||D_lam(T) - T||, one per lambda, and their
    bound, by seed, for a group of one dim: one ``_svd`` of the stack feeds
    the transform of every lambda, and the bounds and drifts are batched
    spectral norms."""
    T = np.stack([_sample(trial, spec) for trial in group])
    parts = _svd(T)
    scales = tolerances["fixed_point_factor"] * _norms(T)
    drifts = np.stack([_norms(_transform(parts, lam) - T) for lam in spec["lambdas"]], axis=-1)
    return {trial.seed: moved for trial, moved in zip(group, zip(drifts.tolist(), scales.tolist()))}


def _check_fixedpoint(trial, spec, tolerances, moved):
    drifts, scale = moved
    return [
        f"{trial.kind} dim {trial.dim} lambda {lam}: moved by {drift:.3e} > {scale:.3e}"
        for lam, drift in zip(spec["lambdas"], drifts)
        if drift > scale
    ]


def _stack_iterates(group, spec, tolerances):
    """Each trial's iterate trace, by seed, from one stacked
    ``aluthge_iterates`` call for a group of one dim and lambda.

    The check reads the norms, defects and radius but no iterate, so the
    traces keep none, and one stack's iterates are held at a time.
    """
    stack = np.stack([_sample(trial, spec) for trial in group])
    traces = aluthge_iterates(stack, group[0].lam, tolerances["iteration_budget"])
    return {trial.seed: replace(trace, iterates=[]) for trial, trace in zip(group, traces)}


def _check_iterates(trial, spec, tolerances, trace):
    problems = []
    steps = np.diff(trace.operator_norms)
    if steps.size and steps.max() > tolerances["monotonicity_slack"]:
        problems.append(f"{trial.kind} dim {trial.dim}: norm increased by {steps.max():.3e}")
    radius = trace.spectral_radius
    norm_limit = tolerances["norm_limit_factor"] * (1.0 + radius)
    norm_ok = abs(trace.operator_norms[-1] - radius) <= norm_limit
    defect_limit = tolerances["defect_factor"] * trace.operator_norms[0] ** 2
    defect_ok = trace.normality_defects[-1] <= defect_limit
    if not (norm_ok and defect_ok):
        problems.append(_UNCONVERGED)
    return problems


def _stack_shadowing(group, spec, tolerances):
    """Each trial's ``(epsilon, residual, claim, verified)`` per delta,
    by seed, for a group of one dim: one stacked ``hyperbolic_splitting``
    call, one orbit draw per trial scaled to each delta, then one batched
    shadow and check of every trial per delta."""
    T = np.stack([_sample(trial, spec, gap=spec["gap"]) for trial in group])
    splittings = hyperbolic_splitting(T)
    constant = np.array([split.constant_bound for split in splittings])
    norm = _norms(T)
    unit = _unit_orbits([trial.seed for trial in group], tolerances["orbit_length"], T.shape[-1])
    per_delta = []
    for delta in tolerances["deltas"]:
        claim = constant * delta + tolerances["epsilon_slack"]
        per_delta.append(_shadows(T, splittings, *_ball_orbits(unit, norm, delta), claim, norm))
    return {trial.seed: shadows for trial, shadows in zip(group, zip(*per_delta))}


def _shadows(T, splittings, x, bound, claim, norm, **through):
    """``(epsilon, residual, claim, verified)`` of a stack of pseudo-orbits
    shadowed under T, one tuple per member, where ``verified`` is what
    ``verify_shadowing`` answers for the shadow and the claim, with
    ``norm`` the spectral norms of the operators the orbits belong to.  A
    conjugacy (``pull``, ``push``, ``target``) is applied as in
    ``transfer_shadowing``."""
    y, epsilon, residual = _shadow(T, splittings, x, **through)
    verified = _verified(norm, bound, y, epsilon, residual, claim)
    return list(zip(epsilon.tolist(), residual.tolist(), claim.tolist(), verified.tolist()))


def _check_shadowing(trial, spec, tolerances, shadows):
    problems = []
    for delta, (epsilon, residual, claim, verified) in zip(tolerances["deltas"], shadows):
        if not verified:
            problems.append(
                f"{trial.kind} dim {trial.dim} delta {delta}: epsilon {epsilon:.3e} "
                f"or residual {residual:.3e} outside claim {claim:.3e}"
            )
    # linear response: the deltas hold the first one and its half
    epsilons = {delta: shadow[0] for delta, shadow in zip(tolerances["deltas"], shadows)}
    delta = tolerances["deltas"][0]
    ratio = epsilons[delta] / epsilons[delta / 2] if epsilons[delta / 2] else np.inf
    if abs(ratio - 2.0) > 2.0 * tolerances["linear_response_rel"]:
        problems.append(
            f"{trial.kind} dim {trial.dim}: halving delta scaled epsilon by {ratio:.4f}"
        )
    return problems


def _stack_transfer(group, spec, tolerances):
    """Each trial's ``(epsilon, residual, claim, verified)`` forward and in
    reverse, by seed, for a group of one dim and any lambdas: the
    conjugacy of each trial, one stacked ``hyperbolic_splitting`` call for
    the operators and one for their transforms, then one batched shadow
    and check of every trial per direction.
    """
    delta, length = tolerances["delta"], tolerances["orbit_length"]
    T = np.stack([_sample(trial, spec, gap=spec["gap"]) for trial in group])
    conjugacies = [conjugacy(M, trial.lam) for trial, M in zip(group, T)]
    D = np.stack([transform for transform, _, _ in conjugacies])
    H = np.stack([conj.matrix for _, conj, _ in conjugacies])
    H_inv = np.stack([inverse for _, _, inverse in conjugacies])
    factor = np.array([conj.norm * conj.inverse_norm for _, conj, _ in conjugacies])
    directions = (
        # forward: an orbit of D_lam(T) from the trial seed, shadowed under T
        (T, D, H_inv, H, 0),
        # reverse: an orbit of T from the next seed, shadowed under D_lam(T)
        (D, T, H, H_inv, 1),
    )
    per_direction = []
    for base, target, pull, push, offset in directions:
        splittings = hyperbolic_splitting(base)
        norm = _norms(target)
        unit = _unit_orbits([trial.seed + offset for trial in group], length, T.shape[-1])
        claim = factor * [split.constant_bound for split in splittings] * delta + tolerances["epsilon_slack"]
        per_direction.append(
            _shadows(base, splittings, *_ball_orbits(unit, norm, delta), claim, norm, pull=pull, push=push, target=target)
        )
    return {trial.seed: shadows for trial, shadows in zip(group, zip(*per_direction))}


def _check_transfer(trial, spec, tolerances, shadows):
    problems = []
    for direction, (epsilon, _, claim, verified) in zip(("forward", "reverse"), shadows):
        if not verified:
            problems.append(
                f"{direction} dim {trial.dim} lambda {trial.lam}: epsilon {epsilon:.3e} "
                f"outside claim {claim:.3e}"
            )
    return problems


def _definitional_matrix(trial, spec):
    """The trial's matrix for the definitional decision: a hyperbolic
    draw at the definitional gap, or the trial's own unitary."""
    if trial.kind == "hyperbolic":
        return _sample(trial, spec, gap=spec["definitional_gap"])
    return _sample(trial, spec)


def _stack_quasihyp(group, spec, tolerances):
    """Each trial's definitional matrix and its verdict, by seed, for a
    group of one dim: one stacked ``quasi_hyperbolic_definitional`` call."""
    stack = np.stack([_definitional_matrix(trial, spec) for trial in group])
    verdicts = quasi_hyperbolic_definitional(stack, n_max=tolerances["n_max"])
    return {trial.seed: decided for trial, decided in zip(group, zip(stack, verdicts))}


def _check_quasihyp(trial, spec, tolerances, decided):
    where = f"{trial.kind} dim {trial.dim}"
    problems = []
    Tdef, definitional = decided
    if trial.kind == "hyperbolic":
        T = _sample(trial, spec, gap=spec["preservation_gap"])
        before = is_quasi_hyperbolic_spectral(T).verdict
        after = is_quasi_hyperbolic_spectral(aluthge_transform(T, trial.lam)).verdict
        if before != after:
            problems.append(
                f"{where} lambda {trial.lam}: spectral verdict flipped {before} -> {after}"
            )
        spectral = is_quasi_hyperbolic_spectral(Tdef).verdict
        if spectral != definitional.verdict:
            problems.append(
                f"{where}: definitional {definitional.verdict} disagrees with spectral {spectral}"
            )
    else:
        before = is_quasi_hyperbolic_spectral(Tdef).verdict
        after = is_quasi_hyperbolic_spectral(aluthge_transform(Tdef, trial.lam)).verdict
        if before or after:
            problems.append(
                f"{where} lambda {trial.lam}: spectral verdicts {before}/{after}, "
                "expected false/false"
            )
        if definitional.verdict:
            problems.append(f"{where}: definitional verdict true")
    return problems


class _Suite(NamedTuple):
    spec: dict
    tolerances: dict
    check: Callable[..., list]
    #: work done for a group of trials at once, before the trial loop:
    #: maps each trial's seed to a result that its check takes as a fourth
    #: argument
    stack: Callable[[list, dict, dict], dict]
    #: the trials with one key share a stack
    stack_key: Callable[[_Trial], object] = lambda trial: trial.dim


_SUITES = {
    "spectral": _Suite(
        spec={
            "kinds": ["invertible", "normal", "shift"],
            "dims": [2, 12],
            "lambdas": list(LAMBDA_GRID),
            "cond_cap": 1e4,
            "shift_weights": [0.25, 2.25],
        },
        tolerances={"eigenvalue_match_factor": 1e-7},
        check=_check_spectral,
        stack=_stack_spectral,
    ),
    "fixedpoint": _Suite(
        spec={"kinds": ["normal"], "dims": [2, 10], "lambdas": list(LAMBDA_GRID)},
        tolerances={"fixed_point_factor": 1e-9},
        check=_check_fixedpoint,
        stack=_stack_fixedpoint,
    ),
    # the iterates thresholds were calibrated against a brute-force run and
    # frozen; the gate is a population rate, not a per-trial bar
    "iterates": _Suite(
        spec={"kinds": ["invertible"], "dims": [2, 6], "lambdas": [0.5], "cond_cap": 1e4},
        tolerances={
            "monotonicity_slack": 1e-10,
            "norm_limit_factor": 1e-2,
            "defect_factor": 1e-6,
            "convergence_rate_min": 0.95,
            "iteration_budget": 500,
        },
        check=_check_iterates,
        stack=_stack_iterates,
        stack_key=lambda trial: (trial.dim, trial.lam),
    ),
    "shadowing": _Suite(
        spec={"kinds": ["hyperbolic"], "dims": [2, 8], "gap": 0.2, "cond_cap": 1e4},
        tolerances={
            "residual_factor": RESIDUAL_TOL_FACTOR,
            "epsilon_slack": EPSILON_SLACK,
            "linear_response_rel": 0.1,
            "deltas": [1e-2, 1e-3, 5e-3],
            "orbit_length": 200,
        },
        check=_check_shadowing,
        stack=_stack_shadowing,
    ),
    "transfer": _Suite(
        spec={
            "kinds": ["hyperbolic"],
            "dims": [2, 8],
            "gap": 0.2,
            "cond_cap": 1e4,
            "lambdas": list(LAMBDA_GRID),
        },
        tolerances={
            "residual_factor": RESIDUAL_TOL_FACTOR,
            "epsilon_slack": EPSILON_SLACK,
            "delta": 1e-2,
            "orbit_length": 200,
        },
        check=_check_transfer,
        stack=_stack_transfer,
    ),
    "quasihyp": _Suite(
        spec={
            "kinds": ["hyperbolic", "unitary"],
            "dims": [2, 8],
            "preservation_gap": 0.2,
            "definitional_gap": 0.3,
            "cond_cap": 1e4,
            "lambdas": list(LAMBDA_GRID),
        },
        tolerances={"n_max": 20},
        check=_check_quasihyp,
        stack=_stack_quasihyp,
    ),
}


def _stacked(suite: _Suite, runs: list, spec: dict, tolerances: dict) -> dict:
    """The suite's stacked results of all trials, by seed, one stack per key.

    A stack that raises is left out; its trials then run alone, each as a
    stack of one, in the trial loop, so the failing one records its own
    error.
    """
    groups = {}
    for trial in runs:
        groups.setdefault(suite.stack_key(trial), []).append(trial)
    stacked = {}
    for group in groups.values():
        try:
            stacked.update(suite.stack(group, spec, tolerances))
        except AluthgeLabError:
            continue
    return stacked


def _validate_run(trials: int, base_seed: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if not isinstance(base_seed, int) or base_seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {base_seed!r}")


def run_suite(name: str, trials: int, base_seed: int) -> ExperimentReport:
    """Run one named suite and assemble its report."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    _validate_run(trials, base_seed)
    started = time.perf_counter()
    suite = _SUITES[name]
    spec = dict(copy.deepcopy(suite.spec), seed=base_seed)
    tolerances = copy.deepcopy(suite.tolerances)
    runs = [_trial(spec, index) for index in range(trials)]
    stacked = _stacked(suite, runs, spec, tolerances)
    diagnostics = []
    for trial in runs:
        try:
            result = stacked[trial.seed] if trial.seed in stacked else suite.stack([trial], spec, tolerances)[trial.seed]
            problems = suite.check(trial, spec, tolerances, result)
        except AluthgeLabError as exc:
            problems = [f"{trial.kind} dim {trial.dim}: error: {exc}", _UNCONVERGED]
        diagnostics.append((trial.seed, problems))
    rate = sum(_UNCONVERGED not in problems for _, problems in diagnostics) / trials
    rate_min = tolerances.get("convergence_rate_min")
    gate = None
    if rate_min is not None and rate < rate_min:
        gate = f"{_UNCONVERGED} (population rate {rate:.2f} below {rate_min})"
    failures = []
    for seed, problems in diagnostics:
        problems = [gate if p == _UNCONVERGED else p for p in problems if gate or p != _UNCONVERGED]
        if problems:
            failures.append({"seed": seed, "diagnostic": "; ".join(problems)})
    return ExperimentReport(
        suite=name,
        spec=spec,
        trials=trials,
        passes=trials - len(failures),
        failures=failures,
        tolerances=tolerances,
        wall_time=time.perf_counter() - started,
    )


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _send_suite(sender, name: str, trials: int, base_seed: int) -> None:
    """Run one suite in a worker process and send its report, or the
    exception it raised, to the parent."""
    try:
        outcome = run_suite(name, trials, base_seed)
    except Exception as exc:
        outcome = exc
    sender.send(outcome)
    sender.close()


def run_all(trials: int, base_seed: int) -> list[ExperimentReport]:
    """Run every suite; return the reports in declaration order.

    With at least two CPUs and the ``fork`` start method, the iterates
    suite runs in one forked worker process while this one runs the other
    five; otherwise the six run in turn.  The reports are the same either
    way.  An error raised in the worker is raised here with its type and
    message.
    """
    _validate_run(trials, base_seed)
    if _cpu_count() >= 2:
        import multiprocessing  # here only, so importing the package stays as fast

        if "fork" in multiprocessing.get_all_start_methods():
            return _run_all_forked(multiprocessing.get_context("fork"), trials, base_seed)
    return [run_suite(name, trials, base_seed) for name in SUITE_NAMES]


def _run_all_forked(context, trials: int, base_seed: int) -> list[ExperimentReport]:
    """:func:`run_all` with the iterates suite in a worker forked from
    ``context``; the worker is always joined before this returns or
    raises."""
    # a forked child flushes the std streams it inherits when it exits, so
    # text still buffered here would be written twice
    sys.stdout.flush()
    sys.stderr.flush()
    receiver, sender = context.Pipe(duplex=False)
    worker = context.Process(target=_send_suite, args=(sender, "iterates", trials, base_seed))
    worker.start()
    sender.close()
    try:
        reports = {name: run_suite(name, trials, base_seed) for name in SUITE_NAMES if name != "iterates"}
        try:
            outcome = receiver.recv()
        except EOFError:  # the worker ended without sending anything
            outcome = None
    except BaseException:
        worker.terminate()
        raise
    finally:
        receiver.close()
        worker.join()
    if outcome is None:
        raise ChildProcessError(f"the iterates worker ended with exit code {worker.exitcode} and no report")
    if isinstance(outcome, Exception):
        raise outcome
    reports["iterates"] = outcome
    return [reports[name] for name in SUITE_NAMES]
