"""Benchmark of aluthgelab, run from the root of a source checkout.

    python3 perfbench/run.py --workload verify-suites --seed 1 --seconds 30 --trace 0

Workloads (why each was chosen is recorded in BENCHMARK.json):

verify-suites   ``python -m aluthgelab verify --suite all --trials 100``
                in a fresh process per pass, every pass with --seed.
large-operator  transforms, conjugator, iterates and spectra at n = 64-256.

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json:
``wall_s`` (median pass), ``setup_s`` (median over cold starts of a fresh
interpreter importing ``aluthgelab.cli`` and generating the inputs) and
``peak_rss_mb`` (median peak RSS of the processes running the passes).
With ``--trace 1`` it prints the per-layer metrics: factorization counts,
span self times per module, micro-benchmarks, per-suite times and the
tracing overhead.  Every child process has BLAS pinned to one thread and
``src`` as its ``PYTHONPATH``.  Human-readable lines start with ``#``;
the last line is the JSON result.  ``--quick`` shrinks the workloads for
the self-test.  Exit code 2 means no result: the checkout has no
``src/aluthgelab`` or a child process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import statistics
import subprocess
import sys
import time

import verdicts

WORKLOADS = ("verify-suites", "large-operator")
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
#: Cold starts timed before and after the timed passes; their median is
#: setup_s.  Splitting them keeps one burst of load on the machine from
#: moving them all.
SETUP_PROBES_BEFORE = 5
SETUP_PROBES_AFTER = 6
IMPORT_PROBES = 3
#: Every run ends within this many seconds or fails.
RUN_DEADLINE_S = 170.0


class BenchmarkError(Exception):
    """A child process failed or the run exceeded its deadline."""


class Child:
    """Outcome of one child process: stdout lines with arrival times."""

    def __init__(self, argv: list[str], deadline: float):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONPATH=SRC)
        self.lines: list[tuple[float, str]] = []
        self.start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
        try:
            err = self._read(proc, deadline)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()
        self.end = time.perf_counter()
        self.code = proc.returncode
        self.stderr = err.decode(errors="replace")
        self.peak_rss_mb = usage.ru_maxrss / 1024.0

    def _read(self, proc, deadline: float) -> bytes:
        out, err = b"", b""
        with selectors.DefaultSelector() as selector:
            selector.register(proc.stdout, selectors.EVENT_READ)
            selector.register(proc.stderr, selectors.EVENT_READ)
            open_streams = 2
            while open_streams:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    raise BenchmarkError(f"{' '.join(proc.args[1:4])} passed the run deadline")
                for key, _ in selector.select(remaining):
                    chunk = os.read(key.fd, 1 << 16)
                    if not chunk:
                        selector.unregister(key.fileobj)
                        open_streams -= 1
                    elif key.fileobj is proc.stderr:
                        err += chunk
                    else:
                        now = time.perf_counter()
                        out += chunk
                        *complete, out = out.split(b"\n")
                        self.lines += [(now, line.decode()) for line in complete]
        return err

    def json_lines(self) -> list[tuple[float, dict]]:
        if self.code != 0:
            raise BenchmarkError(f"child exited with {self.code}:\n{self.stderr[-2000:]}")
        return [(t, json.loads(line)) for t, line in self.lines if line.startswith("{")]


def worker(workload: str, seed: int, mode: str, deadline: float, seconds: float = 0.0, quick: bool = False):
    """Run worker.py; return (seconds until its ready line, result, child)."""
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), "--mode", mode]
    argv += ["--seconds", repr(seconds)] + (["--quick"] if quick else [])
    child = Child(argv, deadline)
    (ready_at, _), (_, result) = child.json_lines()
    return ready_at - child.start, result, child


def import_times(deadline: float) -> tuple[float, float]:
    """(aluthgelab.cli, scipy) cumulative import seconds from ``-X importtime``."""
    child = Child([sys.executable, "-X", "importtime", "-c", "import aluthgelab.cli"], deadline)
    child.json_lines()  # raises if the import failed
    entries = []
    for line in child.stderr.splitlines():
        if line.startswith("import time:") and "|" in line and "cumulative" not in line:
            _, cumulative, name = line[len("import time:"):].split("|")
            entries.append((len(name) - len(name.lstrip()) - 1, name.strip(), int(cumulative) * 1e-6))
    # The log is in post-order; walk it backwards to see each entry's ancestors.
    package_s = scipy_s = 0.0
    ancestors: list[tuple[int, str]] = []
    for depth, name, seconds in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if depth == 0 and name.split(".")[0] == "aluthgelab":
            package_s += seconds
        if name.split(".")[0] == "scipy" and not any(a.split(".")[0] == "scipy" for _, a in ancestors):
            scipy_s += seconds
        ancestors.append((depth, name))
    return package_s, scipy_s


def setup_probes(workload: str, seed: int, quick: bool, deadline: float, count: int):
    """(seconds to the ready line of each cold start, machine facts)."""
    setups, facts = [], None
    for _ in range(count):
        ready_s, result, _ = worker(workload, seed, "setup", deadline, quick=quick)
        setups.append(ready_s)
        facts = result["facts"]
    return setups, facts


def end_to_end(workload: str, seed: int, seconds: float, quick: bool, deadline: float):
    setups, facts = setup_probes(workload, seed, quick, deadline, SETUP_PROBES_BEFORE)
    attempted, problems, walls, rss, reports = 0, [], [], [], []
    if workload == "verify-suites":
        started = time.perf_counter()
        while not walls or time.perf_counter() - started + walls[-1] / 2 < seconds:
            child = Child([sys.executable, "-m", "aluthgelab", *verdicts.verify_argv(seed)], deadline)
            if child.code not in (0, 1):
                raise BenchmarkError(f"verify exited with {child.code}:\n{child.stderr[-2000:]}")
            reports.append((child.code, json.loads("\n".join(line for _, line in child.lines))))
            walls.append(child.end - child.start)
            rss.append(child.peak_rss_mb)
    else:
        _, result, child = worker(workload, seed, "run", deadline, seconds=seconds, quick=quick)
        attempted, problems, walls, rss = result["attempted"], result["problems"], result["walls"], [child.peak_rss_mb]
    setups += setup_probes(workload, seed, quick, deadline, SETUP_PROBES_AFTER)[0]
    if reports:
        expected = worker(workload, seed, "reference", deadline)[1]["iterates_failures"]
        if expected:
            print(f"# NOTE the iterates gate trips at seed {seed}: {len(expected)} of {verdicts.TRIALS} trials"
                  " do not converge within the budget, as the reference confirms; they are expected failures")
        for code, report in reports:
            a, p = verdicts.check_report(code, report, expected)
            attempted, problems = attempted + a, problems + p
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss),
    }
    print(f"# {len(walls)} passes, wall_s min {min(walls):.4f} max {max(walls):.4f}; setup_s {[round(s, 4) for s in setups]}")
    return metrics, attempted, problems, facts


def per_layer(workload: str, seed: int, quick: bool, deadline: float):
    imports = [import_times(deadline) for _ in range(IMPORT_PROBES)]
    _, result, _ = worker(workload, seed, "trace", deadline, quick=quick)
    metrics = dict(result["metrics"])
    metrics["cli.import_s"] = statistics.median(i[0] for i in imports)
    metrics["cli.scipy_import_s"] = statistics.median(i[1] for i in imports)
    print(f"# untraced pass {result['untraced_s']:.4f} s; traced spans by self time:")
    for label, calls, self_s in result["spans"]:
        print(f"#   {label:<45} {calls:>8} calls {self_s:10.4f} s")
    return metrics, result["attempted"], result["problems"], result["facts"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="reduced sizes, for the self-test")
    args = parser.parse_args()
    deadline = time.perf_counter() + RUN_DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "aluthgelab", "cli.py")):
        print(f"error: no src/aluthgelab under {ROOT}; run from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    section = "per_layer" if args.trace else "end_to_end"
    try:
        if args.trace:
            values, attempted, problems, facts = per_layer(args.workload, args.seed, args.quick, deadline)
        else:
            values, attempted, problems, facts = end_to_end(
                args.workload, args.seed, args.seconds, args.quick, deadline
            )
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not facts["blas_threads_pinned"]:
        attempted += 1
        problems.append("BLAS threads were not pinned to 1 in the child processes")

    print(f"# machine {json.dumps(facts, sort_keys=True)}")
    for problem in problems:
        print(f"# FAILED {problem}")
    print(f"# fail_rate {len(problems) / attempted:.6g} ratio ({len(problems)} of {attempted} checks)")
    metrics = {}
    for entry in spec[section]:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        print(f"# {args.workload} {entry['name']} {values[entry['name']]:.6g} {entry['unit']}")
    result = {"correct": not problems, "attempted": attempted, "failed": len(problems), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
