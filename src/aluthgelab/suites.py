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

Every suite runs the trials of each dim as one (k, n, n) stack through
private cores, which do not validate the stacks built here again, and
returns the problems of each trial, in group order:

    spectral   one ``_svd`` of the stack gives the transforms, and one
               ``_eigenvalues`` call the spectra of the operators and of
               their transforms; the multiset match runs per trial
    fixedpoint one ``_svd`` of the stack feeds the transform of every
               lambda; the bounds and drifts are batched spectral norms
    iterates   one ``_iterate`` call per distinct lambda (the core of
               ``aluthge_iterates``) iterates its members in lockstep and
               keeps only their norms, defects and radii
    shadowing  one ``_splittings`` call (``hyperbolic_splitting``) splits
               the stack, one orbit draw per trial is scaled to each
               delta, then one batched shadow and check covers all
    transfer   one ``_svd`` of the stack gives D_lam(T), H = |T|^lam and
               H^(-1), one ``_splittings`` call splits the operators and
               one their transforms, then one batched shadow and check
               covers both directions of every trial
    quasihyp   one ``_decide`` call (``quasi_hyperbolic_definitional``)
               decides the definitional matrices, one ``_svd`` of the
               preservation draws gives their transforms, and one
               ``_eigenvalues`` call of all three stacks the spectral
               verdicts

What depends on lambda is formed once per distinct lambda, on the rows of
the stack's SVD that belong to its trials (``_by_lambda``).  A stacked
result equals the result of the trial alone bit for bit: each transform
takes a scalar lambda, as ``aluthge_transform`` does, every batched
factorization factors each member on its own, and ||H|| ||H^(-1)|| is
formed member by member.

The orbits of the shadowing and transfer stacks are those of
``generate_pseudo_orbit`` bit for bit: unit-ball points from one Philox
stream per seed, scaled by delta / (1 + ||T||), with ||T|| of every
member from one batched SVD that the check of the shadows reuses.

If a group raises, in its stacked work or in a trial's own part, each of
its trials is rerun alone, as a group of one, so only the failing trial
records the error.

A group is a work unit.  :func:`run_suite` and :func:`run_all` build the
units of their suites, heaviest first (the iterates groups, then every
other group, each by dim, largest first), run them through one loop and
assemble each report from its units' problems; a report's ``wall_time``
is the sum of its units' run times.  On two or more CPUs, where ``os``
has ``fork``, :func:`run_all` forks one worker process, and the two
processes take the next unit index from one shared queue until none is
left, the worker pickling the problems of the units it ran into a pipe;
otherwise (``taskset -c 0`` forces this) this process runs every unit in
turn.  The reports are the same either way, bit for bit.  With the
worker, each process should keep to one BLAS thread
(``OPENBLAS_NUM_THREADS=1``), or the two oversubscribe the CPUs.

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
    to delta.  The deltas 1e-2 and 5e-3 differ by an exact halving, which
    the shadow construction commutes with, so the linear-response ratio
    is exactly 2: that check guards only exact homogeneity.
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
import pickle
import signal
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .aluthge import _iterate, _lipschitz, _modulus_power, _transform
from .ensembles import RNG_IDENTIFIER, EnsembleSpec, sample_matrix, trial_seed
from .errors import AluthgeLabError
from .linalg_core import SvdParts, _eigenvalues, _integer, _norms, _svd
from .shadowing import (
    EPSILON_SLACK,
    RESIDUAL_TOL_FACTOR,
    _ball_orbits,
    _shadow,
    _splittings,
    _unit_orbits,
    _verified,
)
from .spectral import _decide, _hyperbolicity, multiset_match

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


def _by_lambda(group, parts: SvdParts):
    """``(members, parts, lam)`` per distinct lambda of a group, first used
    first: a mask of its trials and their rows of the stack's SVD ``parts``."""
    lams = np.array([trial.lam for trial in group])
    for lam in dict.fromkeys(lams.tolist()):
        members = lams == lam
        yield members, SvdParts(parts.left[members], parts.singular_values[members], parts.right[members]), lam


def _spectral(group, spec, tolerances):
    """The spectral suite on a group of one dim: each trial's multiset match."""
    T = np.stack([_spectral_matrix(trial, spec) for trial in group])
    D = np.empty_like(T)
    for members, parts, lam in _by_lambda(group, _svd(T)):
        D[members] = _transform(parts, lam)
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
    splittings = _splittings(T)
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
    D, H, H_inv, factor = np.empty_like(T), np.empty_like(T), np.empty_like(T), np.empty(len(group))
    for members, parts, lam in _by_lambda(group, _svd(T)):
        # member by member, which refuses a singular operator first
        factor[members] = [norm * inverse for norm, inverse in (_lipschitz(s, lam) for s in parts.singular_values)]
        D[members] = _transform(parts, lam)
        H[members], H_inv[members] = _modulus_power(parts, lam), _modulus_power(parts, -lam)
    directions = (
        # forward: an orbit of D_lam(T) from the trial seed, shadowed under T
        (T, D, H_inv, H, 0),
        # reverse: an orbit of T from the next seed, shadowed under D_lam(T)
        (D, T, H, H_inv, 1),
    )
    per_direction = []
    for base, target, pull, push, offset in directions:
        splittings = _splittings(base)
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
    """The quasihyp suite on a group of one dim.  The definitional and the
    preservation matrix are hyperbolic draws at their gaps, or both the
    trial's unitary."""
    stack = np.stack([
        _sample(trial, spec, gap=spec["definitional_gap"]) if trial.kind == "hyperbolic" else _sample(trial, spec)
        for trial in group
    ])
    verdicts = _decide(stack, tolerances["n_max"])
    T = np.stack([
        _sample(trial, spec, gap=spec["preservation_gap"]) if trial.kind == "hyperbolic" else M
        for trial, M in zip(group, stack)
    ])
    D = np.empty_like(T)
    for members, parts, lam in _by_lambda(group, _svd(T)):
        D[members] = _transform(parts, lam)
    spectra = _eigenvalues(np.concatenate([T, D, stack])).reshape(3, len(group), -1)
    problems = []
    for trial, definitional, *evs in zip(group, verdicts, *spectra):
        # the spectral verdicts of T, of D_lam(T) and of the definitional matrix
        before, after, spectral = (_hyperbolicity(ev)[2] for ev in evs)
        where = f"{trial.kind} dim {trial.dim}"
        found = []
        if trial.kind == "hyperbolic":
            if before != after:
                found.append(f"{where} lambda {trial.lam}: spectral verdict flipped {before} -> {after}")
            if spectral != definitional.verdict:
                found.append(f"{where}: definitional {definitional.verdict} disagrees with spectral {spectral}")
        else:
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


def run_suite(name: str, trials: int, base_seed: int) -> ExperimentReport:
    """Run one named suite and assemble its report."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    trials, base_seed = _validate_run(trials, base_seed)
    units = _units([name], trials, base_seed)
    (report,) = _reports([name], trials, units, _run_units(units, itertools.count().__next__))
    return report


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def run_all(trials: int, base_seed: int) -> list[ExperimentReport]:
    """Run every suite; return the reports in declaration order.

    With at least two CPUs and ``os.fork``, this process and one forked
    worker process take the units of every suite from one shared queue,
    heaviest first; otherwise this process runs them in turn.  The reports
    are the same either way.  An error raised in the worker is raised here
    with its type and message.
    """
    trials, base_seed = _validate_run(trials, base_seed)
    units = _units(SUITE_NAMES, trials, base_seed)
    serial = _cpu_count() < 2 or not hasattr(os, "fork")
    done = _run_units(units, itertools.count().__next__) if serial else _shared(units)
    return _reports(SUITE_NAMES, trials, units, done)


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


def _shared(units: list[_Unit]) -> dict:
    """Every unit, claimed in order by this process and by one forked
    worker, which pickles its outcomes, or the exception one raised, into
    a pipe; the worker is always reaped before this returns or raises."""
    # text still buffered here would be written twice if the worker wrote
    sys.stdout.flush()
    sys.stderr.flush()
    reader, writer = os.pipe()
    with _token_pipe(len(units)) as tokens, open(reader, "rb") as outcomes, open(writer, "wb") as sink:
        claim = functools.partial(_claim, tokens, len(units))
        worker = os.fork()
        if not worker:  # the worker leaves only through os._exit, with 0 once its outcome is written
            code = 1
            try:
                try:
                    outcome = _run_units(units, claim)
                except Exception as exc:
                    outcome = exc
                sink.write(pickle.dumps(outcome))
                sink.flush()
                code = 0
            finally:
                os._exit(code)
        sink.close()
        try:
            done = _run_units(units, claim)
            # read before reaping: a worker whose outcome fills the pipe waits for it
            received = outcomes.read()
        except BaseException:
            os.kill(worker, signal.SIGTERM)
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(worker, 0)[1])
    if not received:
        raise ChildProcessError(f"the verify worker ended with exit code {code} and no outcome")
    outcome = pickle.loads(received)
    if isinstance(outcome, Exception):
        raise outcome
    return {**done, **outcome}
