"""One benchmark process: set up a workload, then run it as ``--mode`` says.

Started by ``run.py`` with BLAS pinned to one thread and ``src`` on
``PYTHONPATH``.  Writes JSON lines to stdout: ``{"ready": true}`` once
``aluthgelab.cli`` is imported and the inputs exist, then one result
that also carries the machine facts.

Modes
-----
setup   stop after the ready line (a cold-start probe).
run     timed passes until ``--seconds`` is used up; report each pass
        (large-operator; run.py times verify-suites itself).
trace   micro-benchmarks, one untraced pass, one traced pass; report the
        per-layer metrics.
reference
        the iterates failures the verify-suites report must list
        (``reference.iterates_failures``), for run.py's check.
"""

import os
import sys

# Read before numpy is imported: OpenBLAS sizes its pool at load time.
PIN_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED = all(os.environ.get(name) == "1" for name in PIN_VARIABLES)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import aluthgelab.cli  # noqa: E402  (part of the measured set-up)
import micro  # noqa: E402
import reference  # noqa: E402
import verdicts  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

#: Span labels listed by self time in the traced run's output.
SPAN_SUMMARY_ROWS = 12


def emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": PINNED,
        "aluthgelab": os.path.dirname(aluthgelab.cli.__file__),
    }


def timed_passes(workload: workloads.Workload, inputs, seconds: float) -> dict:
    """Repeat the pass until the next one would end further past
    ``seconds`` than stopping now.  The first pass is checked in full,
    every later one against the first."""
    walls, first, reference, problems = [], None, None, []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results = workload.run(inputs)
        walls.append(time.perf_counter() - t0)
        if first is None:
            first, reference = results, workload.summary(results)
        elif not np.allclose(workload.summary(results), reference, rtol=1e-9, atol=0.0):
            problems.append(f"pass {len(walls)} gave different results from pass 1")
        if time.perf_counter() - started + walls[-1] / 2 >= seconds:
            break
    attempted, first_problems = workload.check(inputs, first)
    return {
        "walls": walls,
        "attempted": attempted + len(walls) - 1,
        "problems": first_problems + problems,
    }


def traced_run(name: str, seed: int, quick: bool) -> dict:
    workload = workloads.WORKLOADS[name]
    metrics = micro.run_micro(seed, quick)
    probe = micro.sample("invertible", 16, seed)

    tracer = Tracer()
    tracer.install()
    try:
        # Input generation is traced apart from the pass: it is set-up
        # work, and the counts below are per pass.
        inputs = workload.inputs(seed, quick)
        setup_self_s = tracer.layer_self_seconds()
        tracer.reset()
        t0 = time.perf_counter()
        traced = workload.run(inputs)
        traced_s = time.perf_counter() - t0
        calls, span_self_s = tracer.span_totals()
        self_s = tracer.layer_self_seconds()
        counts = dict(tracer.counts)
        iterate_steps = tracer.calls_under("aluthge.aluthge_transform", "aluthge.aluthge_iterates")
        # Factorizations inside one transform, as a check that the
        # counters see the package's calls.
        tracer.reset()
        aluthgelab.aluthge.aluthge_transform(probe, 0.5)
        per_transform = dict(tracer.counts)
    finally:
        tracer.uninstall()

    t0 = time.perf_counter()
    untraced = workload.run(inputs)
    untraced_s = time.perf_counter() - t0

    for kind in ("svd", "eig", "eigvals", "eigh", "solve", "inv", "norm2"):
        metrics[f"linalg_core.{kind}_calls"] = counts.get(kind, 0)
        if kind in ("svd", "norm2", "eigh"):
            metrics[f"aluthge.transform_{kind}_calls"] = per_transform.get(kind, 0)
    metrics["linalg_core.as_matrix_calls"] = calls["linalg_core.as_matrix"]
    metrics["aluthge.transform_calls"] = calls["aluthge.aluthge_transform"]
    metrics["aluthge.iterate_steps"] = iterate_steps
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer] + setup_self_s[layer]
    suite_seconds = {}
    if name == "verify-suites":
        suite_seconds = {body["suite"]: body["wall_time"] for body in untraced[1]["reports"]}
    for suite in verdicts.SUITES:
        metrics[f"suites.{suite}_s"] = suite_seconds.get(suite, 0.0)
    metrics["trace_overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s

    attempted, problems = 0, []
    for results in (untraced, traced):
        a, p = workload.check(inputs, results)
        attempted += a
        problems += p
    top = sorted(span_self_s, key=span_self_s.get, reverse=True)[:SPAN_SUMMARY_ROWS]
    spans = [[label, calls[label], span_self_s[label]] for label in top]
    return {"metrics": metrics, "attempted": attempted, "problems": problems, "untraced_s": untraced_s, "spans": spans}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=["setup", "run", "trace", "reference"])
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed, args.quick)
    emit({"ready": True})
    result = {}
    if args.mode == "run":
        result = timed_passes(workload, inputs, args.seconds)
    elif args.mode == "trace":
        result = traced_run(args.workload, args.seed, args.quick)
    elif args.mode == "reference":
        result = {"iterates_failures": reference.iterates_failures(args.seed, verdicts.TRIALS)}
    emit({**result, "facts": machine_facts()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
