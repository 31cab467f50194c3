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
    the definitional falsifier agrees with the spectral route away from
    the unit circle.
"""

from __future__ import annotations

import copy
import time
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .aluthge import aluthge_iterates, aluthge_transform
from .ensembles import RNG_IDENTIFIER, EnsembleSpec, sample_matrix, trial_seed
from .errors import AluthgeLabError
from .linalg_core import eigenvalues, operator_norm
from .shadowing import (
    EPSILON_SLACK,
    RESIDUAL_TOL_FACTOR,
    generate_pseudo_orbit,
    hyperbolic_splitting,
    shadow_orbit,
    transfer_shadowing,
    verify_shadowing,
)
from .spectral import SearchBudget, is_quasi_hyperbolic_spectral, multiset_match, quasi_hyperbolic_definitional

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


def _check_spectral(trial, spec, tolerances):
    weights = None
    if trial.kind == "shift":
        rng = np.random.Generator(np.random.Philox(trial.seed))
        weights = tuple(rng.uniform(*spec["shift_weights"], trial.dim - 1))
    T = _sample(trial, spec, weights=weights)
    tol = tolerances["eigenvalue_match_factor"] * (1.0 + operator_norm(T))
    matched, distance = multiset_match(
        eigenvalues(T), eigenvalues(aluthge_transform(T, trial.lam)), tol
    )
    if matched:
        return []
    return [
        f"{trial.kind} dim {trial.dim} lambda {trial.lam}: "
        f"spectra differ by {distance:.3e} > {tol:.3e}"
    ]


def _check_fixedpoint(trial, spec, tolerances):
    T = _sample(trial, spec)
    scale = tolerances["fixed_point_factor"] * operator_norm(T)
    problems = []
    for lam in spec["lambdas"]:
        drift = operator_norm(aluthge_transform(T, lam) - T)
        if drift > scale:
            problems.append(
                f"{trial.kind} dim {trial.dim} lambda {lam}: moved by {drift:.3e} > {scale:.3e}"
            )
    return problems


def _check_iterates(trial, spec, tolerances):
    T = _sample(trial, spec)
    trace = aluthge_iterates(T, trial.lam, tolerances["iteration_budget"])
    problems = []
    steps = np.diff(trace.operator_norms)
    if steps.size and steps.max() > tolerances["monotonicity_slack"]:
        problems.append(f"{trial.kind} dim {trial.dim}: norm increased by {steps.max():.3e}")
    radius = trace.spectral_radius
    norm_limit = tolerances["norm_limit_factor"] * (1.0 + radius)
    norm_ok = abs(trace.operator_norms[-1] - radius) <= norm_limit
    defect_ok = trace.normality_defects[-1] <= tolerances["defect_factor"] * operator_norm(T) ** 2
    if not (norm_ok and defect_ok):
        problems.append(_UNCONVERGED)
    return problems


def _check_shadowing(trial, spec, tolerances):
    T = _sample(trial, spec, gap=spec["gap"])
    splitting = hyperbolic_splitting(T)
    problems = []
    epsilons = {}
    for delta in tolerances["deltas"]:
        orbit = generate_pseudo_orbit(T, delta, tolerances["orbit_length"], trial.seed)
        result = shadow_orbit(T, splitting, orbit)
        epsilons[delta] = result.epsilon
        claim = result.constant_bound * delta + tolerances["epsilon_slack"]
        if not verify_shadowing(T, orbit, result, claim):
            problems.append(
                f"{trial.kind} dim {trial.dim} delta {delta}: epsilon {result.epsilon:.3e} "
                f"or residual {result.orbit_residual:.3e} outside claim {claim:.3e}"
            )
    # linear response: the deltas hold the first one and its half
    delta = tolerances["deltas"][0]
    ratio = epsilons[delta] / epsilons[delta / 2] if epsilons[delta / 2] else np.inf
    if abs(ratio - 2.0) > 2.0 * tolerances["linear_response_rel"]:
        problems.append(
            f"{trial.kind} dim {trial.dim}: halving delta scaled epsilon by {ratio:.4f}"
        )
    return problems


def _check_transfer(trial, spec, tolerances):
    delta = tolerances["delta"]
    T = _sample(trial, spec, gap=spec["gap"])
    transform = aluthge_transform(T, trial.lam)
    problems = []
    # forward: an orbit of D_lam(T) from the trial seed; reverse: an orbit
    # of T from the next seed
    directions = (("forward", transform, trial.seed), ("reverse", T, trial.seed + 1))
    for direction, target, seed in directions:
        orbit = generate_pseudo_orbit(target, delta, tolerances["orbit_length"], seed)
        result = transfer_shadowing(T, trial.lam, orbit, reverse=direction == "reverse")
        claim = result.constant_bound * delta + tolerances["epsilon_slack"]
        if not verify_shadowing(target, orbit, result, claim):
            problems.append(
                f"{direction} dim {trial.dim} lambda {trial.lam}: epsilon {result.epsilon:.3e} "
                f"outside claim {claim:.3e}"
            )
    return problems


def _check_quasihyp(trial, spec, tolerances):
    budget = SearchBudget(tolerances["falsifier_starts"], tolerances["falsifier_iters"])
    where = f"{trial.kind} dim {trial.dim}"
    problems = []
    if trial.kind == "hyperbolic":
        T = _sample(trial, spec, gap=spec["preservation_gap"])
        before = is_quasi_hyperbolic_spectral(T).verdict
        after = is_quasi_hyperbolic_spectral(aluthge_transform(T, trial.lam)).verdict
        if before != after:
            problems.append(
                f"{where} lambda {trial.lam}: spectral verdict flipped {before} -> {after}"
            )
        Tdef = _sample(trial, spec, gap=spec["definitional_gap"])
        spectral = is_quasi_hyperbolic_spectral(Tdef).verdict
        definitional = quasi_hyperbolic_definitional(
            Tdef, n_max=tolerances["n_max"], budget=budget, seed=trial.seed
        ).verdict
        if spectral != definitional:
            problems.append(
                f"{where}: definitional {definitional} disagrees with spectral {spectral}"
            )
    else:
        T = _sample(trial, spec)
        before = is_quasi_hyperbolic_spectral(T).verdict
        after = is_quasi_hyperbolic_spectral(aluthge_transform(T, trial.lam)).verdict
        if before or after:
            problems.append(
                f"{where} lambda {trial.lam}: spectral verdicts {before}/{after}, "
                "expected false/false"
            )
        definitional = quasi_hyperbolic_definitional(
            T, n_max=tolerances["n_max"], budget=budget, seed=trial.seed
        )
        if definitional.verdict:
            problems.append(f"{where}: definitional verdict true")
    return problems


class _Suite(NamedTuple):
    spec: dict
    tolerances: dict
    check: Callable[[_Trial, dict, dict], list]


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
    ),
    "fixedpoint": _Suite(
        spec={"kinds": ["normal"], "dims": [2, 10], "lambdas": list(LAMBDA_GRID)},
        tolerances={"fixed_point_factor": 1e-9},
        check=_check_fixedpoint,
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
        tolerances={
            "n_max": 20,
            "falsifier_starts": SearchBudget().starts,
            "falsifier_iters": SearchBudget().iters,
        },
        check=_check_quasihyp,
    ),
}


def run_suite(name: str, trials: int, base_seed: int) -> ExperimentReport:
    """Run one named suite and assemble its report."""
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    started = time.perf_counter()
    suite = _SUITES[name]
    spec = dict(copy.deepcopy(suite.spec), seed=base_seed)
    tolerances = copy.deepcopy(suite.tolerances)
    diagnostics = []
    for index in range(trials):
        trial = _trial(spec, index)
        try:
            problems = suite.check(trial, spec, tolerances)
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


def run_all(trials: int, base_seed: int) -> list[ExperimentReport]:
    """Run every suite in declaration order."""
    return [run_suite(name, trials, base_seed) for name in SUITE_NAMES]
