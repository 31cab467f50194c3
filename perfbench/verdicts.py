"""The verify-suites workload's command line and its verdict check.

This module imports neither numpy nor the package, so ``run.py`` can
build the command and check its report without either.

A report is checked on each suite's ``suite``, ``trials``, ``passes``
and the seeds of its failures, and nothing else, so wall times,
timestamps and any field a later version adds do not matter.  Every
suite is expected to pass every trial, except the ``iterates`` suite,
whose expected failures come from ``reference.iterates_failures``: its
95% convergence gate trips on some base seeds (33, 38, 58, ...; about
one in seven), and it then lists its slowly converging trials.
"""

from __future__ import annotations

SUITES = ("spectral", "fixedpoint", "iterates", "shadowing", "transfer", "quasihyp")

#: Trials per suite.  Quick mode keeps it: the iterates suite gates on a
#: 95% convergence rate calibrated at this size, and a few trials can miss
#: it by chance.
TRIALS = 100


def verify_argv(seed: int) -> list[str]:
    """Arguments of ``python -m aluthgelab`` for one pass."""
    return ["verify", "--suite", "all", "--trials", str(TRIALS), "--seed", str(seed)]


def check_report(code: int, report: dict, iterates_failures: list[int]) -> tuple[int, list[str]]:
    """Checks of one verify run: one per trial, plus the exit code and the
    list of suites as one further check.  A trial checks out if the
    report lists it as failed exactly when it is expected to fail.
    Returns (attempted, problems)."""
    bodies = report["reports"]
    problems = []
    if [body["suite"] for body in bodies] != list(SUITES):
        problems.append(f"suites {[body['suite'] for body in bodies]} are not {list(SUITES)}")
    for body in bodies:
        expected = set(iterates_failures if body["suite"] == "iterates" else [])
        listed = {failure["seed"]: failure["diagnostic"] for failure in body["failures"]}
        problems += [f"{body['suite']} seed {seed}: {listed[seed]}" for seed in sorted(listed.keys() - expected)]
        problems += [f"{body['suite']} seed {seed}: expected to fail" for seed in sorted(expected - listed.keys())]
        if body["trials"] != TRIALS or body["passes"] != TRIALS - len(listed):
            problems.append(f"{body['suite']}: {body['passes']} of {body['trials']} passed, {len(listed)} failures")
    if code != (1 if any(body["failures"] for body in bodies) else 0):
        problems.append(f"exit code {code} does not match the report")
    return len(SUITES) * TRIALS + 1, problems
