"""Verification suites and their reports."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from aluthgelab import (
    RNG_IDENTIFIER,
    SUITE_NAMES,
    EnsembleSpec,
    ExperimentReport,
    NotInvertibleError,
    aluthge_iterates,
    aluthge_transform,
    eigenvalues,
    generate_pseudo_orbit,
    hyperbolic_splitting,
    is_quasi_hyperbolic_spectral,
    operator_norm,
    run_all,
    run_suite,
    sample_matrix,
    suites,
)
from aluthgelab import aluthge, linalg_core, shadowing, spectral
from aluthgelab.aluthge import conjugacy
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
    for trials in (2.5, "3"):
        with pytest.raises(ValueError, match=f"^trials must be an integer, got {trials!r}$"):
            run_suite("spectral", trials=trials, base_seed=1)
    with pytest.raises(ValueError, match="^trials must be an integer, got 2.5$"):
        run_all(trials=2.5, base_seed=1)
    # numpy integers are integers; the report stores Python ints
    report = run_suite("spectral", trials=np.int64(2), base_seed=np.int64(3))
    assert type(report.trials) is int and type(report.spec["seed"]) is int
    json.dumps(report.to_json())


def _no_worker(*args, **kwargs):
    raise AssertionError("a worker process was started")


@pytest.mark.parametrize("run", [lambda **kw: run_suite("spectral", **kw), run_all])
def test_negative_seed_is_refused_before_any_trial(run, monkeypatch):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(suites, "sample_matrix", no_trial)
    monkeypatch.setattr(suites, "_cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", _no_worker)
    with pytest.raises(ValueError, match="seed must be a nonnegative integer, got -1"):
        run(trials=3, base_seed=-1)
    for seed in (1.5, "3"):
        with pytest.raises(ValueError, match=f"^seed must be an integer, got {seed!r}$"):
            run(trials=3, base_seed=seed)


def test_verify_all_with_no_trials_starts_no_worker(monkeypatch, capsys):
    monkeypatch.setattr(suites, "_cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", _no_worker)
    assert main(["verify", "--suite", "all", "--trials", "0", "--seed", "1"]) == 2
    assert capsys.readouterr().err == "error: trials must be positive, got 0\n"


def _bodies(reports):
    return [dict(report.to_json(), wall_time=0.0) for report in reports]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _claimed_only_by(process, monkeypatch):
    """Let only ``process`` ("worker" or "parent") claim units in run_all;
    the other returns at once, having claimed none."""
    parent, real = os.getpid(), suites._run_units

    def claims(units, claim):
        return real(units, claim) if (os.getpid() == parent) == (process == "parent") else {}

    monkeypatch.setattr(suites, "_run_units", claims)


def _assert_forked_reports_equal_serial_reports(monkeypatch):
    forks = []
    real = os.fork

    def recorded():
        forks.append(os.getpid())
        return real()

    monkeypatch.setattr(suites, "_cpu_count", lambda: 2)
    monkeypatch.setattr(os, "fork", recorded)
    forked = run_all(trials=7, base_seed=4)
    assert forks == [os.getpid()]
    _assert_no_child_left()
    monkeypatch.undo()
    monkeypatch.setattr(suites, "_cpu_count", lambda: 1)
    monkeypatch.setattr(os, "fork", _no_worker)
    serial = run_all(trials=7, base_seed=4)
    assert [report.suite for report in forked] == list(SUITE_NAMES)
    assert _bodies(forked) == _bodies(serial)
    assert _bodies(serial) == _bodies([run_suite(name, trials=7, base_seed=4) for name in SUITE_NAMES])


def test_run_all_worker_reports_equal_serial_reports(monkeypatch):
    _assert_forked_reports_equal_serial_reports(monkeypatch)


@pytest.mark.parametrize("process", ["worker", "parent"])
def test_reports_do_not_depend_on_which_process_claims_the_units(process, monkeypatch):
    _claimed_only_by(process, monkeypatch)
    _assert_forked_reports_equal_serial_reports(monkeypatch)


def test_report_wall_time_is_the_sum_of_its_unit_times(monkeypatch):
    times = iter(range(100))
    monkeypatch.setattr(suites.time, "perf_counter", lambda: float(next(times)))
    report = run_suite("fixedpoint", trials=5, base_seed=1)
    assert report.wall_time == 5.0  # five dims, one clock tick each


def test_units_run_heaviest_first():
    units = suites._units(SUITE_NAMES, trials=100, base_seed=1)
    order = [(unit.suite, unit.group[0].dim) for unit in units]
    assert order[:5] == [("iterates", dim) for dim in (6, 5, 4, 3, 2)]
    assert [dim for _, dim in order[5:]] == sorted((dim for _, dim in order[5:]), reverse=True)
    # one unit per dim group of every suite
    assert sorted(order) == sorted((name, group[0].dim) for name in SUITE_NAMES for group in _groups(name, 100, 1)[2])


def _assert_reraised(process, monkeypatch):
    """An error in a unit that only ``process`` claims reaches the caller
    of run_all with its type and message, and no child is left."""

    def broken(*args):
        raise ZeroDivisionError(f"broken in the {process}")

    _claimed_only_by(process, monkeypatch)
    monkeypatch.setattr(suites, "_iterate", broken)
    monkeypatch.setattr(suites, "_cpu_count", lambda: 2)
    with pytest.raises(ZeroDivisionError, match=f"^broken in the {process}$"):
        run_all(trials=3, base_seed=1)
    _assert_no_child_left()


def test_run_all_reraises_the_worker_error(monkeypatch):
    _assert_reraised("worker", monkeypatch)


def test_run_all_reraises_an_error_raised_here(monkeypatch):
    _assert_reraised("parent", monkeypatch)


def _claim_all(tokens, count, sender):
    claimed = []
    while (index := suites._claim(tokens, count)) < count:
        claimed.append(index)
    sender.send(claimed)
    sender.close()


def test_unit_claims_hand_out_each_index_once_across_processes():
    # more readers than CPUs race for the same pipe; a unit lost or
    # claimed twice shows as a missing or repeated index
    count, context = 250, multiprocessing.get_context("fork")
    with suites._token_pipe(count) as tokens:
        pipes = [context.Pipe(duplex=False) for _ in range(4)]
        workers = [context.Process(target=_claim_all, args=(tokens, count, sender)) for _, sender in pipes]
        for worker, (_, sender) in zip(workers, pipes):
            worker.start()
            sender.close()
        claimed = [index for receiver, _ in pipes for index in receiver.recv()]
        for worker in workers:
            worker.join(timeout=60)
            assert not worker.is_alive() and worker.exitcode == 0
    assert sorted(claimed) == list(range(count))


def test_run_all_joins_the_worker_when_a_suite_here_raises(monkeypatch):
    def broken(*args):
        raise ZeroDivisionError("broken in the parent")

    monkeypatch.setattr(suites, "_splittings", broken)
    monkeypatch.setattr(suites, "_cpu_count", lambda: 2)
    with pytest.raises(ZeroDivisionError, match="^broken in the parent$"):
        run_all(trials=3, base_seed=1)
    _assert_no_child_left()


def test_run_all_reports_an_ended_worker(monkeypatch):
    parent, real = os.getpid(), suites._run_units

    def ends(units, claim):
        if os.getpid() != parent:
            os._exit(3)
        return real(units, claim)

    monkeypatch.setattr(suites, "_run_units", ends)
    monkeypatch.setattr(suites, "_cpu_count", lambda: 2)
    with pytest.raises(ChildProcessError, match="exit code 3"):
        run_all(trials=2, base_seed=1)
    _assert_no_child_left()


def test_run_all_receives_a_worker_outcome_larger_than_the_pipe_buffer(monkeypatch):
    # 12 diagnostics of 64 KiB each pass through a pipe whose buffer
    # holds 64 KiB, so the worker ends only once they are read
    padding = "x" * (1 << 16)

    def problems(run, group, spec, tolerances):
        return [[f"{run.__name__} {trial.seed} {padding}"] for trial in group]

    _claimed_only_by("worker", monkeypatch)
    monkeypatch.setattr(suites, "_problems", problems)
    monkeypatch.setattr(suites, "_cpu_count", lambda: 2)
    reports = run_all(trials=2, base_seed=1)
    _assert_no_child_left()
    for report in reports:
        expected = [{"seed": seed, "diagnostic": f"_{report.suite} {seed} {padding}"} for seed in (1, 2)]
        assert report.failures == expected


@pytest.mark.parametrize("error", [KeyboardInterrupt(), ZeroDivisionError(lambda: None)], ids=["interrupt", "unpicklable"])
def test_run_all_reports_a_worker_that_sends_no_outcome(error, monkeypatch):
    # an interrupt is no Exception, and a lambda does not pickle: either
    # way the worker ends with exit code 1 and nothing written
    def broken(*args):
        raise error

    _claimed_only_by("worker", monkeypatch)
    monkeypatch.setattr(suites, "_problems", broken)
    monkeypatch.setattr(suites, "_cpu_count", lambda: 2)
    with pytest.raises(ChildProcessError, match="exit code 1 and no outcome"):
        run_all(trials=2, base_seed=1)
    _assert_no_child_left()


def test_an_interrupt_here_stops_the_worker(monkeypatch):
    parent, real = os.getpid(), os.waitpid
    statuses = []

    def units(units, claim):
        if os.getpid() != parent:
            time.sleep(60)  # stopped long before
            os._exit(0)
        raise KeyboardInterrupt

    def waitpid(pid, options):
        pid, status = real(pid, options)
        statuses.append(status)
        return pid, status

    monkeypatch.setattr(suites, "_run_units", units)
    monkeypatch.setattr(suites, "_cpu_count", lambda: 2)
    monkeypatch.setattr(os, "waitpid", waitpid)
    with pytest.raises(KeyboardInterrupt):
        run_all(trials=2, base_seed=1)
    assert [os.waitstatus_to_exitcode(status) for status in statuses] == [-signal.SIGTERM]
    _assert_no_child_left()


def test_serial_run_all_does_not_validate_the_stacks_it_builds(monkeypatch):
    calls = []
    real = linalg_core.as_matrix

    def counted(a):
        calls.append(np.shape(a))
        return real(a)

    for module in (linalg_core, aluthge, shadowing, spectral):
        monkeypatch.setattr(module, "as_matrix", counted)
    monkeypatch.setattr(suites, "_cpu_count", lambda: 1)
    monkeypatch.setattr(os, "fork", _no_worker)
    run_all(trials=12, base_seed=1)
    assert calls == []
    # the public functions around the cores do validate
    shadowing.hyperbolic_splitting(np.diag([2.0, 0.5]))
    assert calls == [(2, 2)]


def test_verify_never_imports_multiprocessing():
    path = os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]))

    def imported(code):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", code],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=path),
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return {line.split("|")[-1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")}

    setup = "from aluthgelab import cli, suites\nsuites._cpu_count = lambda: 2\n"
    assert "multiprocessing" not in imported(setup + "suites.run_suite('spectral', 2, 1)")
    # run_all forks its worker with os.fork
    assert "multiprocessing" not in imported(setup + "suites.run_all(2, 1)")


def test_run_all_writes_buffered_stdout_once():
    # stdout is a pipe, so the first line is still in the buffer when
    # run_all forks the worker
    code = (
        "import sys\n"
        "from aluthgelab import suites\n"
        "suites._cpu_count = lambda: 2\n"
        "print('before')\n"
        "suites.run_all(2, 1)\n"
        "print('after')\n"
    )
    path = os.pathsep.join(filter(None, [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "before\nafter\n"


def test_shadowing_report_lists_every_delta_it_runs():
    report = run_suite("shadowing", trials=1, base_seed=0)
    assert report.tolerances["deltas"] == [0.01, 0.001, 0.005]


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_trial_errors_are_recorded_as_failures(name, monkeypatch):
    def refuse(*args, **kwargs):
        raise NotInvertibleError("refused")

    for entry in ("_svd", "_eigenvalues", "_iterate", "_splittings"):
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


def _groups(name, trials, base_seed):
    """The suite's spec, tolerances and its trials grouped by dim."""
    suite = suites._SUITES[name]
    spec = dict(suite.spec, seed=base_seed)
    groups = {}
    for index in range(trials):
        trial = suites._trial(spec, index)
        groups.setdefault(trial.dim, []).append(trial)
    return spec, suite.tolerances, list(groups.values())


def _record(monkeypatch, entry):
    """A list that gathers ``(args, result)`` of every ``suites.<entry>``
    call, with the values of keyword arguments appended to ``args``."""
    calls = []
    real = getattr(suites, entry)

    def recorded(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args + tuple(kwargs.values()), result))
        return result

    monkeypatch.setattr(suites, entry, recorded)
    return calls


def _calls_running(calls, name, group, spec, tolerances):
    """The calls gathered in ``calls`` while suite ``name`` runs ``group``."""
    calls.clear()
    suites._SUITES[name].run(group, spec, tolerances)
    return list(calls)


def test_stacked_fixedpoint_equals_each_trial_alone(monkeypatch):
    spec, tolerances, groups = _groups("fixedpoint", trials=27, base_seed=5)
    calls = _record(monkeypatch, "_norms")
    for group in groups:
        # ||T|| and then ||D_lam(T) - T|| for each lambda, of every member
        stacked = [norms.tolist() for _, norms in _calls_running(calls, "fixedpoint", group, spec, tolerances)]
        for i, trial in enumerate(group):
            mine = [norms[i] for norms in stacked]
            alone = _calls_running(calls, "fixedpoint", [trial], spec, tolerances)
            assert mine == [norms.tolist()[0] for _, norms in alone]
            # and to the public route, one transform and norm at a time
            T = sample_matrix(EnsembleSpec(kind=trial.kind, dim=trial.dim, seed=trial.seed))
            drifts = [operator_norm(aluthge_transform(T, lam) - T) for lam in spec["lambdas"]]
            assert mine == [operator_norm(T), *drifts]


def test_stacked_spectral_equals_each_trial_alone(monkeypatch):
    # 33 trials: every dim holds three trials with three distinct lambdas
    spec, tolerances, groups = _groups("spectral", trials=33, base_seed=5)
    calls = _record(monkeypatch, "multiset_match")
    for group in groups:
        stacked = _calls_running(calls, "spectral", group, spec, tolerances)
        assert len(stacked) == len(group)  # one match per trial, in group order
        for trial, ((before, after, tol), _) in zip(group, stacked):
            [((alone_before, alone_after, alone_tol), _)] = _calls_running(calls, "spectral", [trial], spec, tolerances)
            np.testing.assert_array_equal(before, alone_before)
            np.testing.assert_array_equal(after, alone_after)
            assert tol == alone_tol
            # and to the public route
            T = suites._spectral_matrix(trial, spec)
            np.testing.assert_array_equal(before, eigenvalues(T))
            np.testing.assert_array_equal(after, eigenvalues(aluthge_transform(T, trial.lam)))
            assert tol == tolerances["eigenvalue_match_factor"] * (1.0 + operator_norm(T))


def test_stacked_transfer_equals_each_trial_alone(monkeypatch):
    # 35 trials: every dim holds five trials with five distinct lambdas
    spec, tolerances, groups = _groups("transfer", trials=35, base_seed=5)
    calls = _record(monkeypatch, "_shadows")
    for group in groups:
        # forward then reverse: (T, splittings, x, bound, claim, norm, pull, push, target)
        stacked = _calls_running(calls, "transfer", group, spec, tolerances)
        for i, trial in enumerate(group):
            alone = _calls_running(calls, "transfer", [trial], spec, tolerances)
            for (args, shadows), (alone_args, alone_shadows) in zip(stacked, alone, strict=True):
                assert shadows[i] == alone_shadows[0]
                # every array; the splittings enter through the claim
                for got, want in zip(args[:1] + args[2:], alone_args[:1] + alone_args[2:], strict=True):
                    np.testing.assert_array_equal(got[i], want[0])
            # and to the public route: D_lam(T), H, H^(-1) and the claim
            (T, _, _, _, claim, _, H_inv, H, D), _ = stacked[0]
            transform, conj, inverse = conjugacy(T[i], trial.lam)
            np.testing.assert_array_equal(D[i], transform)
            np.testing.assert_array_equal(H[i], conj.matrix)
            np.testing.assert_array_equal(H_inv[i], inverse)
            constant = conj.norm * conj.inverse_norm * hyperbolic_splitting(T[i]).constant_bound
            assert claim[i] == constant * tolerances["delta"] + tolerances["epsilon_slack"]


def test_stacked_quasihyp_equals_each_trial_alone(monkeypatch):
    # 35 trials: every dim holds hyperbolic and unitary trials, five lambdas
    spec, tolerances, groups = _groups("quasihyp", trials=35, base_seed=5)
    calls = _record(monkeypatch, "_eigenvalues")
    for group in groups:
        # the eigenvalues of T, of D_lam(T) and of the definitional matrix
        [((stack,), spectra)] = _calls_running(calls, "quasihyp", group, spec, tolerances)
        k = len(group)
        for i, trial in enumerate(group):
            [((alone_stack,), alone_spectra)] = _calls_running(calls, "quasihyp", [trial], spec, tolerances)
            for j in range(3):
                np.testing.assert_array_equal(stack[j * k + i], alone_stack[j])
                np.testing.assert_array_equal(spectra[j * k + i], alone_spectra[j])
            # and to the public route
            if trial.kind == "hyperbolic":
                gaps = (spec["preservation_gap"], spec["definitional_gap"])
                T, definitional = (suites._sample(trial, spec, gap=gap) for gap in gaps)
            else:
                T = definitional = suites._sample(trial, spec)
            for j, M in enumerate((T, aluthge_transform(T, trial.lam), definitional)):
                np.testing.assert_array_equal(stack[j * k + i], M)
                np.testing.assert_array_equal(spectra[j * k + i], eigenvalues(M))
                hyperbolic = suites._hyperbolicity(spectra[j * k + i])[2]
                assert hyperbolic == is_quasi_hyperbolic_spectral(M).verdict


@pytest.mark.parametrize("name, trials, dims", [("spectral", 22, range(2, 13)), ("fixedpoint", 18, range(2, 11))])
def test_spectral_and_fixedpoint_factor_one_stack_per_dim(name, trials, dims, monkeypatch):
    calls = {"_svd": [], "_eigenvalues": []}
    for entry in calls:
        real = getattr(suites, entry)

        def recorded(T, real=real, entry=entry):
            calls[entry].append(np.shape(T))
            return real(T)

        monkeypatch.setattr(suites, entry, recorded)
    report = run_suite(name, trials=trials, base_seed=1)
    assert report.all_passed, report.failures
    # the units run largest dim first
    assert calls["_svd"] == [(2, n, n) for n in reversed(dims)]
    # spectral: the eigenvalues of T and of D_lam(T) in one call per dim
    assert calls["_eigenvalues"] == ([(4, n, n) for n in reversed(dims)] if name == "spectral" else [])


def test_iterates_suite_runs_one_stack_per_dim(monkeypatch):
    calls = []
    real = suites._iterate

    def recorded(T, *args):
        calls.append(np.shape(T))
        return real(T, *args)

    monkeypatch.setattr(suites, "_iterate", recorded)
    run_suite("iterates", trials=10, base_seed=1)
    assert calls == [(2, n, n) for n in range(6, 1, -1)]


def test_iterates_suite_reads_what_aluthge_iterates_reports(monkeypatch):
    calls = _record(monkeypatch, "_iterate")
    report = run_suite("iterates", trials=15, base_seed=33)
    assert report.trials == 15 and len(calls) == 5
    for (stack, lam, n_max), (norms, defects, radii, iterates) in calls:
        assert iterates is None  # the suite keeps no iterate
        traces = aluthge_iterates(stack, lam, n_max)
        assert [trace.operator_norms.tolist() for trace in traces] == [norm.tolist() for norm in norms]
        assert [trace.normality_defects.tolist() for trace in traces] == [defect.tolist() for defect in defects]
        assert [trace.spectral_radius for trace in traces] == radii


def test_iterates_stack_error_retries_each_trial_alone(monkeypatch):
    # trial 5 (seed 6, dim 2) is refused, alone or inside a stack; trial 0
    # shares its stack and passes when run alone
    refused = sample_matrix(EnsembleSpec(kind="invertible", dim=2, seed=6, cond_cap=1e4))
    real = suites._iterate

    def flaky(T, *args):
        if any(np.array_equal(M, refused) for M in T):
            raise NotInvertibleError("refused")
        return real(T, *args)

    monkeypatch.setattr(suites, "_iterate", flaky)
    expected = [
        {
            "seed": 6,
            "diagnostic": "invertible dim 2: error: refused; "
            "non-converged trial (population rate 0.88 below 0.95)",
        }
    ]
    assert run_suite("iterates", trials=8, base_seed=1).failures == expected
    # and in run_all, whichever process claims the group
    monkeypatch.setattr(suites, "_cpu_count", lambda: 2)
    for process in ("worker", "parent"):
        with monkeypatch.context() as patch:
            _claimed_only_by(process, patch)
            assert run_all(trials=8, base_seed=1)[SUITE_NAMES.index("iterates")].failures == expected
        _assert_no_child_left()


@pytest.mark.parametrize("name, per_dim", [("shadowing", 1), ("transfer", 2)])
def test_shadow_suites_split_one_stack_per_dim(name, per_dim, monkeypatch):
    calls = []
    real = suites._splittings

    def recorded(T):
        calls.append(np.shape(T))
        return real(T)

    monkeypatch.setattr(suites, "_splittings", recorded)
    report = run_suite(name, trials=21, base_seed=1)
    assert report.all_passed, report.failures
    # transfer groups by dim alone: each stack mixes the lambdas
    assert calls == [(3, n, n) for n in range(8, 1, -1) for _ in range(per_dim)]


def test_quasihyp_suite_decides_one_stack_per_dim(monkeypatch):
    calls = []
    real = suites._decide

    def recorded(T, *args):
        calls.append(np.shape(T))
        return real(T, *args)

    monkeypatch.setattr(suites, "_decide", recorded)
    report = run_suite("quasihyp", trials=21, base_seed=1)
    assert report.all_passed, report.failures
    # each stack mixes hyperbolic and unitary trials of its dim
    assert calls == [(3, n, n) for n in range(8, 1, -1)]


# at base seed 1, the trial of the spec's seed is refused, alone or inside
# a stack; trial 0 or 1 shares its stack and passes when run alone: in
# spectral, trial 12 (dim 3); in fixedpoint, trial 9 (dim 2); otherwise
# trial 7 (dim 2).  The last entry refuses in quasihyp's spectral
# verdicts, after the definitional decision of the stack, so the whole
# group reruns one trial at a time
STACK_REFUSALS = {
    "spectral": ("spectral", "_svd", 13, EnsembleSpec(kind="invertible", dim=3, seed=13, cond_cap=1e4)),
    "fixedpoint": ("fixedpoint", "_svd", 10, EnsembleSpec(kind="normal", dim=2, seed=10)),
    "shadowing": ("shadowing", "_splittings", 10, EnsembleSpec(kind="hyperbolic", dim=2, seed=8, gap=0.2, cond_cap=1e4)),
    "transfer": ("transfer", "_splittings", 10, EnsembleSpec(kind="hyperbolic", dim=2, seed=8, gap=0.2, cond_cap=1e4)),
    "quasihyp": ("quasihyp", "_decide", 10, EnsembleSpec(kind="unitary", dim=2, seed=8, cond_cap=1e4)),
    "quasihyp-per-trial": ("quasihyp", "_eigenvalues", 10, EnsembleSpec(kind="unitary", dim=2, seed=8, cond_cap=1e4)),
}


@pytest.mark.parametrize("case", STACK_REFUSALS)
def test_shadow_suites_stack_error_retries_each_trial_alone(case, monkeypatch):
    name, entry, trials, spec = STACK_REFUSALS[case]
    refused = sample_matrix(spec)
    real = getattr(suites, entry)

    def flaky(T, *args, **kwargs):
        members = T if np.ndim(T) == 3 else [T]
        if any(np.array_equal(M, refused) for M in members):
            raise NotInvertibleError("refused")
        return real(T, *args, **kwargs)

    monkeypatch.setattr(suites, entry, flaky)
    report = run_suite(name, trials=trials, base_seed=1)
    assert report.failures == [{"seed": spec.seed, "diagnostic": f"{spec.kind} dim {spec.dim}: error: refused"}]


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
    expected = [(dim, delta, offset) for dim in range(8, 1, -1) for delta, offset in runs]
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


@pytest.mark.parametrize("base_seed, status", [(1, 0), (2, 0), (33, 1)])
def test_verify_all_matches_north_star_golden_report(base_seed, status, capsys):
    # the north-star pass; at seed 33 the iterates gate trips
    golden = Path(__file__).parent / "data" / f"verify_all_seed{base_seed}_trials100.json"
    argv = ["verify", "--suite", "all", "--trials", "100", "--seed", str(base_seed), "--stable-output"]
    assert main(argv) == status
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


def test_serial_verify_all_matches_north_star_golden_report(monkeypatch, capsys):
    monkeypatch.setattr(suites, "_cpu_count", lambda: 1)
    monkeypatch.setattr(os, "fork", _no_worker)
    golden = Path(__file__).parent / "data" / "verify_all_seed33_trials100.json"
    assert main(["verify", "--suite", "all", "--trials", "100", "--seed", "33", "--stable-output"]) == 1
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("base_seed", [1, 2, 7])
def test_shadowing_linear_response_is_exact_halving(base_seed, monkeypatch):
    # 0.005 is 0.01 / 2 in binary and the shadow commutes with exact
    # halving, so the linear-response check only guards exact homogeneity:
    # the ratio is 2.0 bit for bit in every trial
    epsilons = []
    real = suites._shadows

    def recorded(T, splittings, x, bound, claim, norm, **through):
        shadows = real(T, splittings, x, bound, claim, norm, **through)
        epsilons.append([epsilon for epsilon, *_ in shadows])
        return shadows

    monkeypatch.setattr(suites, "_shadows", recorded)
    report = run_suite("shadowing", trials=100, base_seed=base_seed)
    deltas = report.tolerances["deltas"]
    assert deltas[0] / 2 in deltas
    groups = [epsilons[i : i + len(deltas)] for i in range(0, len(epsilons), len(deltas))]
    ratios = [
        full / half
        for per_delta in groups
        for full, half in zip(per_delta[0], per_delta[deltas.index(deltas[0] / 2)], strict=True)
    ]
    assert len(ratios) == report.trials
    assert all(ratio == 2.0 for ratio in ratios), ratios
