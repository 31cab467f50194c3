"""Ensemble property suites behind the ``verify`` command.

Each suite runs seeded trials of one preservation property and returns an
:class:`ExperimentReport` that embeds every parameter needed to rerun it:
the ensemble sweep, the base seed, the generator identifier, and the
numeric tolerances.  A suite is declared once, as its ``spec``, its
``tolerances`` and one function that runs a group of trials; the function
reads every number it uses from those two dicts, so a report states
exactly what was run.

Trial ``i`` of a suite is derived from its spec alone:

    seed   = trial_seed(spec["seed"], i)          (base seed + i)
    kind   = kinds[i % len(kinds)]
    dim    = lo + i % (hi - lo + 1)               with [lo, hi] = dims
    lambda = lambdas[i % len(lambdas)]            (none without lambdas)

A trial that throws a package error is recorded as a failure with the
text ``"{kind} dim {dim}: error: {exception}"``, never as a crash of the
runner.

Every suite runs the trials of each dim as one (k, n, n) stack and
returns the problems of each trial, in group order:

    spectral   one ``_svd`` of the stack, one ``_transform`` per distinct
               lambda on its members, and one ``_eigenvalues`` call on the
               operators and their transforms together; the multiset match
               runs per trial
    fixedpoint one ``_svd`` of the stack feeds the transform of every
               lambda; the bounds and drifts are batched spectral norms
    iterates   one ``_iterate`` call per distinct lambda (the core of
               ``aluthge_iterates``) iterates its members in lockstep and
               keeps only their norms, defects and radii
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

If a group raises, in its stacked work or in a trial's own part, each of
its trials is rerun alone, as a group of one, so only the failing trial
records the error.

A group is a work unit.  :func:`run_suite` and :func:`run_all` build the
units of their suites, heaviest first (the iterates groups, largest dim
first, then every other group, largest dim first), run them through one
loop and assemble each report from its units' problems; a report's
``wall_time`` is the sum of its units' run times.  When the process may
use at least two CPUs and the ``fork`` start method exists,
:func:`run_all` forks one worker process, and it and this process each
take the next unit from one shared queue of unit indices until none is
left; the worker sends back the problems of the units it ran.  Otherwise
this process runs every unit in turn.  Which process runs a unit depends
on timing, but the reports are the same either way, bit for bit.
``taskset -c 0`` forces the serial path.  With the worker, each process
should keep to one BLAS thread (``OPENBLAS_NUM_THREADS=1``), or the two
oversubscribe the CPUs.

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
    Spectral quasi-hyperbolicity verdicts of T and D_lam(T) agree (false
    for unitary draws), and the exact definitional decision agrees with
    the spectral route away from the unit circle.
"""

from __future__ import annotations

import copy
import functools
import itertools
import os
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .aluthge import _iterate, _transform, aluthge_transform, conjugacy
from .ensembles import RNG_IDENTIFIER, EnsembleSpec, sample_matrix, trial_seed
from .errors import AluthgeLabError
from .linalg_core import SvdParts, _eigenvalues, _integer, _norms, _svd
from .shadowing import (
    EPSILON_SLACK,
    RESIDUAL_TOL_FACTOR,
    _ball_orbits,
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


def _spectral(group, spec, tolerances):
    """The spectral suite on a group of one dim: each trial's multiset match."""
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
    problems = []
    for trial, before, after, tol in zip(group, spectra[: len(group)], spectra[len(group) :], tols.tolist()):
        matched, distance = multiset_match(before, after, tol)
        problem = f"{trial.kind} dim {trial.dim} lambda {trial.lam}: spectra differ by {distance:.3e} > {tol:.3e}"
        problems.append([] if matched else [problem])
    return problems


def _fixedpoint(group, spec, tolerances):
    """The fixedpoint suite on a group of one dim: each drift ||D_lam(T) - T||."""
    T = np.stack([_sample(trial, spec) for trial in group])
    parts = _svd(T)
    scales = tolerances["fixed_point_factor"] * _norms(T)
    drifts = np.stack([_norms(_transform(parts, lam) - T) for lam in spec["lambdas"]], axis=-1)
    return [
        [
            f"{trial.kind} dim {trial.dim} lambda {lam}: moved by {drift:.3e} > {scale:.3e}"
            for lam, drift in zip(spec["lambdas"], moved)
            if drift > scale
        ]
        for trial, moved, scale in zip(group, drifts.tolist(), scales.tolist())
    ]


def _iterates(group, spec, tolerances):
    """The iterates suite on a group of one dim: each member's norms,
    defects and radius are checked on their own."""
    stack = np.stack([_sample(trial, spec) for trial in group])
    problems = [None] * len(group)
    for lam in dict.fromkeys(trial.lam for trial in group):
        members = [i for i, trial in enumerate(group) if trial.lam == lam]
        norms, defects, radii, _ = _iterate(stack[members], lam, tolerances["iteration_budget"])
        for i, norm, defect, radius in zip(members, norms, defects, radii):
            trial, found = group[i], []
            steps = np.diff(norm)
            if steps.size and steps.max() > tolerances["monotonicity_slack"]:
                found.append(f"{trial.kind} dim {trial.dim}: norm increased by {steps.max():.3e}")
            norm_ok = abs(norm[-1] - radius) <= tolerances["norm_limit_factor"] * (1.0 + radius)
            defect_ok = defect[-1] <= tolerances["defect_factor"] * norm[0] ** 2
            if not (norm_ok and defect_ok):
                found.append(_UNCONVERGED)
            problems[i] = found
    return problems


def _shadowing(group, spec, tolerances):
    """The shadowing suite on a group of one dim: every delta, then the linear response."""
    T = np.stack([_sample(trial, spec, gap=spec["gap"]) for trial in group])
    splittings = hyperbolic_splitting(T)
    constant = np.array([split.constant_bound for split in splittings])
    norm = _norms(T)
    unit = _unit_orbits([trial.seed for trial in group], tolerances["orbit_length"], T.shape[-1])
    deltas = tolerances["deltas"]
    per_delta = []
    for delta in deltas:
        claim = constant * delta + tolerances["epsilon_slack"]
        per_delta.append(_shadows(T, splittings, *_ball_orbits(unit, norm, delta), claim, norm))
    problems = []
    for trial, shadows in zip(group, zip(*per_delta)):
        found = [
            f"{trial.kind} dim {trial.dim} delta {delta}: epsilon {epsilon:.3e} "
            f"or residual {residual:.3e} outside claim {claim:.3e}"
            for delta, (epsilon, residual, claim, verified) in zip(deltas, shadows)
            if not verified
        ]
        # linear response: the deltas hold the first one and its half
        epsilons = {delta: shadow[0] for delta, shadow in zip(deltas, shadows)}
        ratio = epsilons[deltas[0]] / epsilons[deltas[0] / 2] if epsilons[deltas[0] / 2] else np.inf
        if abs(ratio - 2.0) > 2.0 * tolerances["linear_response_rel"]:
            found.append(f"{trial.kind} dim {trial.dim}: halving delta scaled epsilon by {ratio:.4f}")
        problems.append(found)
    return problems


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


def _transfer(group, spec, tolerances):
    """The transfer suite on a group of one dim: forward and reverse shadows."""
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
    return [
        [
            f"{direction} dim {trial.dim} lambda {trial.lam}: epsilon {epsilon:.3e} "
            f"outside claim {claim:.3e}"
            for direction, (epsilon, _, claim, verified) in zip(("forward", "reverse"), shadows)
            if not verified
        ]
        for trial, shadows in zip(group, zip(*per_direction))
    ]


def _quasihyp(group, spec, tolerances):
    """The quasihyp suite on a group of one dim.  The definitional matrix
    is a hyperbolic draw at the definitional gap, or the trial's unitary."""
    stack = np.stack([
        _sample(trial, spec, gap=spec["definitional_gap"]) if trial.kind == "hyperbolic" else _sample(trial, spec)
        for trial in group
    ])
    verdicts = quasi_hyperbolic_definitional(stack, n_max=tolerances["n_max"])
    problems = []
    for trial, Tdef, definitional in zip(group, stack, verdicts):
        where = f"{trial.kind} dim {trial.dim}"
        found = []
        if trial.kind == "hyperbolic":
            T = _sample(trial, spec, gap=spec["preservation_gap"])
            before = is_quasi_hyperbolic_spectral(T).verdict
            after = is_quasi_hyperbolic_spectral(aluthge_transform(T, trial.lam)).verdict
            if before != after:
                found.append(f"{where} lambda {trial.lam}: spectral verdict flipped {before} -> {after}")
            spectral = is_quasi_hyperbolic_spectral(Tdef).verdict
            if spectral != definitional.verdict:
                found.append(f"{where}: definitional {definitional.verdict} disagrees with spectral {spectral}")
        else:
            before = is_quasi_hyperbolic_spectral(Tdef).verdict
            after = is_quasi_hyperbolic_spectral(aluthge_transform(Tdef, trial.lam)).verdict
            if before or after:
                found.append(f"{where} lambda {trial.lam}: spectral verdicts {before}/{after}, expected false/false")
            if definitional.verdict:
                found.append(f"{where}: definitional verdict true")
        problems.append(found)
    return problems


class _Suite(NamedTuple):
    spec: dict
    tolerances: dict
    #: (group of one dim, spec, tolerances) -> each trial's problems, in order
    run: Callable[[list, dict, dict], list]


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
        run=_spectral,
    ),
    "fixedpoint": _Suite(
        spec={"kinds": ["normal"], "dims": [2, 10], "lambdas": list(LAMBDA_GRID)},
        tolerances={"fixed_point_factor": 1e-9},
        run=_fixedpoint,
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
        run=_iterates,
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
        run=_shadowing,
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
        run=_transfer,
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
        run=_quasihyp,
    ),
}


def _problems(run: Callable, group: list, spec: dict, tolerances: dict) -> list:
    """Each trial's problems from ``run``, in group order; a group of
    several trials that raises is rerun one trial at a time."""
    try:
        return run(group, spec, tolerances)
    except AluthgeLabError as exc:
        if len(group) > 1:
            return [problems for trial in group for problems in _problems(run, [trial], spec, tolerances)]
        (trial,) = group
        return [[f"{trial.kind} dim {trial.dim}: error: {exc}", _UNCONVERGED]]


def _validate_run(trials, base_seed) -> tuple[int, int]:
    """``(trials, base_seed)`` as Python ints, so a report's spec
    serializes; a value that is not an integer, fewer than one trial or a
    negative seed raises ValueError."""
    trials, base_seed = _integer(trials, "trials"), _integer(base_seed, "seed")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if base_seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {base_seed!r}")
    return trials, base_seed


class _Unit(NamedTuple):
    """The trials of one suite that share a dim: one piece of work."""

    suite: str
    group: list
    spec: dict
    tolerances: dict


def _units(names, trials: int, base_seed: int) -> list[_Unit]:
    """The units of the named suites, heaviest first: the iterates groups,
    then every other group, each by dim, largest first."""
    units = []
    for name in names:
        suite = _SUITES[name]
        spec = dict(copy.deepcopy(suite.spec), seed=base_seed)
        tolerances = copy.deepcopy(suite.tolerances)
        groups = {}
        for index in range(trials):
            trial = _trial(spec, index)
            groups.setdefault(trial.dim, []).append(trial)
        units += [_Unit(name, group, spec, tolerances) for group in groups.values()]
    return sorted(units, key=lambda unit: (unit.suite != "iterates", -unit.group[0].dim))


def _run_units(units: list[_Unit], claim: Callable[[], int]) -> dict:
    """Run the units whose indices ``claim`` hands out until it hands out
    one past the last; ``{index: (problems, seconds)}``."""
    done = {}
    index = claim()
    while index < len(units):
        unit = units[index]
        started = time.perf_counter()
        problems = _problems(_SUITES[unit.suite].run, unit.group, unit.spec, unit.tolerances)
        done[index] = problems, time.perf_counter() - started
        index = claim()
    return done


def _reports(names, trials: int, units: list[_Unit], done: dict) -> list[ExperimentReport]:
    """The report of each named suite from the outcomes ``done`` of its
    units, in the order of ``names``; a report's wall time is the sum of
    its units' run times."""
    reports = []
    for name in names:
        mine = [index for index, unit in enumerate(units) if unit.suite == name]
        diagnostics = sorted(
            ((trial.seed, problems) for index in mine for trial, problems in zip(units[index].group, done[index][0])),
            key=lambda diagnostic: diagnostic[0],
        )
        spec, tolerances = units[mine[0]].spec, units[mine[0]].tolerances
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
        reports.append(
            ExperimentReport(
                suite=name,
                spec=spec,
                trials=trials,
                passes=trials - len(failures),
                failures=failures,
                tolerances=tolerances,
                wall_time=sum(done[index][1] for index in mine),
            )
        )
    return reports


def _serially(units: list[_Unit]) -> dict:
    """Every unit, in order, in this process."""
    return _run_units(units, itertools.count().__next__)


def run_suite(name: str, trials: int, base_seed: int) -> ExperimentReport:
    """Run one named suite and assemble its report."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    trials, base_seed = _validate_run(trials, base_seed)
    units = _units([name], trials, base_seed)
    (report,) = _reports([name], trials, units, _serially(units))
    return report


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def run_all(trials: int, base_seed: int) -> list[ExperimentReport]:
    """Run every suite; return the reports in declaration order.

    With at least two CPUs and the ``fork`` start method, this process
    and one forked worker process take the units of every suite from one
    shared counter, heaviest first; otherwise this process runs them in
    turn.  The reports are the same either way.  An error raised in the
    worker is raised here with its type and message.
    """
    trials, base_seed = _validate_run(trials, base_seed)
    units = _units(SUITE_NAMES, trials, base_seed)
    context = _fork_context()
    done = _serially(units) if context is None else _shared(context, units)
    return _reports(SUITE_NAMES, trials, units, done)


def _fork_context():
    """The ``fork`` multiprocessing context when this process may use two
    or more CPUs and the platform has ``fork``; otherwise None."""
    if _cpu_count() < 2:
        return None
    import multiprocessing  # here only, so importing the package stays as fast

    return multiprocessing.get_context("fork") if "fork" in multiprocessing.get_all_start_methods() else None


def _send_units(sender, units: list[_Unit], claim: Callable[[], int]) -> None:
    """Run units in a worker process and send their outcomes, or the
    exception one raised, to the parent."""
    try:
        outcome = _run_units(units, claim)
    except Exception as exc:
        outcome = exc
    sender.send(outcome)
    sender.close()


def _token_pipe(count: int):
    """The unbuffered read end of a pipe that holds the indices
    0..count-1, one byte each, in order (the six suites make 46 units at
    most)."""
    tokens, feed = os.pipe()
    os.write(feed, bytes(range(count)))
    os.close(feed)
    return open(tokens, "rb", buffering=0)


def _claim(tokens, count: int) -> int:
    """The next index in the pipe ``tokens``, or ``count`` once it is
    empty.  A one-byte read is whole, so each index goes to exactly one
    reader, also when forked processes read the same pipe."""
    return (tokens.read(1) or bytes([count]))[0]


def _shared(context, units: list[_Unit]) -> dict:
    """Every unit, claimed in order by this process and by a worker forked
    from ``context``; the worker is always joined before this returns or
    raises."""
    # a forked child flushes the std streams it inherits when it exits, so
    # text still buffered here would be written twice
    sys.stdout.flush()
    sys.stderr.flush()
    with _token_pipe(len(units)) as tokens:
        claim = functools.partial(_claim, tokens, len(units))
        receiver, sender = context.Pipe(duplex=False)
        worker = context.Process(target=_send_units, args=(sender, units, claim))
        worker.start()
        sender.close()
        try:
            done = _run_units(units, claim)
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
        raise ChildProcessError(f"the verify worker ended with exit code {worker.exitcode} and no outcome")
    if isinstance(outcome, Exception):
        raise outcome
    return {**done, **outcome}
