"""Self-test of the benchmark, run from the root of a source checkout.

    python3 perfbench/selftest.py

Checks BENCHMARK.json against the benchmark's contract, and that the
verify-suites check counts exactly the failures it should on made-up
reports.  Then runs every workload in quick mode with tracing off and
on, and checks that each run emits every metric of its section with the
declared unit, passes its correctness checks, that the per-layer metrics
a workload exercises read above 0, and that factorization counts repeat
exactly across two traced runs.  Finally it runs the benchmark in a
directory holding only BENCHMARK.json and perfbench/ and checks that it
fails without a result.  Takes about a minute; exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

import verdicts

ROOT = os.getcwd()
NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")
#: Prefixes of the per-layer metrics each workload's traced run must
#: report above 0, besides the micro-benchmarks and import times that
#: every traced run makes.
EXERCISED = {
    "verify-suites": ("linalg_core.", "aluthge.", "spectral.self_s", "shadowing.self_s", "ensembles.self_s", "suites.", "cli.self_s"),
    "large-operator": ("linalg_core.svd_calls", "aluthge.transform_calls", "aluthge.iterate_steps", "aluthge.self_s", "spectral.self_s"),
}


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1"]
    argv += ["--seconds", "2", "--trace", str(trace), "--quick"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_spec(spec: dict) -> list[str]:
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)} are not {sorted(keys)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    if len(names) != len(set(names)):
        problems.append("a name is used twice")
    for name in names:
        if not (name[0].isalnum() and len(name) <= 64 and set(name) <= NAME_CHARS):
            problems.append(f"bad name {name!r}")
    for workload in spec["workloads"]:
        if set(workload) != {"name", "why"} or "\n" in workload["why"] or len(workload["why"]) > 200:
            problems.append(f"workload {workload['name']} needs one name and a one-line why")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if "setup_s" not in bounds or bounds["setup_s"] < max(bounds.values()):
        problems.append("setup_s must be an end-to-end metric with the largest bound")
    if max(bounds.values()) > 0.25:
        problems.append("an end-to-end bound exceeds 0.25")
    return problems


def check_result(proc: subprocess.CompletedProcess, section: list[dict], label: str) -> tuple[dict, list[str]]:
    if proc.returncode != 0:
        return {}, [f"{label}: exit code {proc.returncode}: {proc.stderr[-1000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{label}: correctness gate did not pass: {proc.stdout[-2000:]}")
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in section}:
        problems.append(f"{label}: metric names differ from BENCHMARK.json")
    for m in section:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {m['name']} = {got}")
    return metrics, problems


def check_exercised(workload: str, metrics: dict) -> list[str]:
    """Metrics the workload exercises must not read 0."""
    prefixes = EXERCISED[workload] + ("cli.import_s", "cli.scipy_import_s")
    return [
        f"{workload} trace 1: {name} = {got['value']}, expected above 0"
        for name, got in metrics.items()
        if (got["unit"] in ("us", "ms") or name.startswith(prefixes)) and not got["value"] > 0
    ]


def check_verdicts() -> list[str]:
    """The verify-suites check counts the failures it does not expect,
    the expected ones that are missing and a wrong exit code, and only
    those."""

    def report(iterates_failures):
        return {"reports": [
            {
                "suite": suite,
                "trials": verdicts.TRIALS,
                "passes": verdicts.TRIALS - len(failures),
                "failures": [{"seed": seed, "diagnostic": "non-converged"} for seed in failures],
            }
            for suite in verdicts.SUITES
            for failures in [iterates_failures if suite == "iterates" else []]
        ]}

    # (exit code, listed iterates failures, expected ones, problems the check must find)
    cases = [(0, [], [], 0), (1, [5, 9], [5, 9], 0), (1, [5, 9], [], 2), (0, [], [5], 1), (0, [5], [5], 1), (1, [], [], 1)]
    problems = []
    for code, listed, expected, count in cases:
        _, found = verdicts.check_report(code, report(listed), expected)
        if len(found) != count:
            problems.append(f"verdict check, exit {code}, listed {listed}, expected {expected}: {found}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = check_spec(spec) + check_verdicts()
    counts = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            metrics, found = check_result(run(workload, trace), spec[section], f"{workload} trace {trace}")
            problems += found
            print(f"{workload} trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            if trace and not found:
                problems += check_exercised(workload, metrics)
                counts[workload] = {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}
                if metrics["aluthge.transform_svd_calls"]["value"] < 1:
                    problems.append(f"{workload}: the counters saw no SVD inside aluthge_transform")

    workload = "large-operator"
    metrics, found = check_result(run(workload, 1), spec["per_layer"], f"{workload} trace 1, again")
    again = {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}
    if found or again != counts.get(workload):
        problems.append(f"{workload}: factorization counts differ between two traced runs")

    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = run("large-operator", 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without src/ the benchmark must fail and print no result")

    for problem in problems:
        print(f"FAILED {problem}")
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
