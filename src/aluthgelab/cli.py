"""Command-line front end.

Subcommands run single computations (transform, iterate, spectrum,
quasihyp, shadow, transfer) or full verification suites (verify).  Data
payloads are JSON (CSV for iterate traces) written to the file named by
the relevant flag, or to stdout when the flag is omitted; human-readable
notes go to stderr.  Exit codes: 0 on success or all-pass, 1 when a
verification suite records failures, 2 on usage or input errors.

Rerunning a command with the same arguments and seed produces
byte-identical payloads; pass ``verify --stable-output`` to zero wall
times and omit timestamps so verify reports can be compared as golden
files.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone

from .aluthge import _budget, _iterate, _write_trace, aluthge_transform
from .errors import AluthgeLabError
from .linalg_core import load_matrix, matrix_to_json
from .shadowing import EPSILON_SLACK, generate_pseudo_orbit, hyperbolic_splitting, shadow_orbit, transfer_shadowing, verify_shadowing
from .spectral import is_quasi_hyperbolic_spectral, quasi_hyperbolic_definitional, spectrum_report
from .suites import SUITE_NAMES, run_all, run_suite

__all__ = ["main"]


def _emit_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def _shadow_payload(T, orbit, result) -> dict:
    """Orbit, shadow and the check of the shadow against C * delta + EPSILON_SLACK."""
    claim = result.constant_bound * orbit.delta + EPSILON_SLACK
    return {
        "orbit": orbit.to_json(),
        "shadow": result.to_json(),
        "verified": verify_shadowing(T, orbit, result, claim),
    }


def _cmd_transform(args) -> int:
    T = load_matrix(args.infile)
    _emit_json(matrix_to_json(aluthge_transform(T, args.lam)), args.out)
    return 0


def _cmd_iterate(args) -> int:
    T = load_matrix(args.infile)
    # the core of aluthge_iterates, keeping no iterate: only the trace is written
    (norms,), (defects,), (radius,), _ = _iterate(T[None], *_budget(args.lam, args.n))
    if args.trace:
        _write_trace(norms, defects, args.trace)
        print(f"wrote {args.trace}", file=sys.stderr)
    else:
        _write_trace(norms, defects, sys.stdout)
    print(
        f"{len(norms)} iterates; final norm {norms[-1]:.6g}, spectral radius {radius:.6g}",
        file=sys.stderr,
    )
    return 0


def _cmd_spectrum(args) -> int:
    T = load_matrix(args.infile)
    _emit_json(spectrum_report(T).to_json(), args.json)
    return 0


def _cmd_quasihyp(args) -> int:
    T = load_matrix(args.infile)
    if args.method == "spectral":
        verdict = is_quasi_hyperbolic_spectral(T)
    else:
        verdict = quasi_hyperbolic_definitional(T, n_max=args.nmax)
    _emit_json(verdict.to_json(), None)
    return 0


def _cmd_shadow(args) -> int:
    T = load_matrix(args.infile)
    splitting = hyperbolic_splitting(T)
    orbit = generate_pseudo_orbit(T, args.delta, args.length, args.seed)
    result = shadow_orbit(T, splitting, orbit)
    _emit_json(_shadow_payload(T, orbit, result), args.json)
    return 0


def _cmd_transfer(args) -> int:
    T = load_matrix(args.infile)
    transform = aluthge_transform(T, args.lam)
    orbit = generate_pseudo_orbit(transform, args.delta, args.length, args.seed)
    result = transfer_shadowing(T, args.lam, orbit)
    _emit_json(_shadow_payload(transform, orbit, result), None)
    return 0


def _cmd_verify(args) -> int:
    if args.suite == "all":
        reports = run_all(args.trials, args.seed)
    else:
        reports = [run_suite(args.suite, args.trials, args.seed)]
    bodies = []
    for report in reports:
        body = report.to_json()
        if args.stable_output:
            body["wall_time"] = 0.0
        bodies.append(body)
        status = "pass" if report.all_passed else f"FAIL ({len(report.failures)} failures)"
        print(
            f"suite {report.suite}: {report.passes}/{report.trials} {status}",
            file=sys.stderr,
        )
    if args.suite == "all":
        payload = {"suite": "all", "reports": bodies}
    else:
        payload = bodies[0]
    if not args.stable_output:
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    _emit_json(payload, args.json)
    return 0 if all(report.all_passed for report in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aluthgelab",
        description="Aluthge transforms, spectra, quasi-hyperbolicity, and shadowing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # each flag that several subcommands share is declared once, on a parent
    infile = argparse.ArgumentParser(add_help=False)
    infile.add_argument("--in", dest="infile", required=True, help="input matrix JSON")
    lam = argparse.ArgumentParser(add_help=False)
    lam.add_argument("--lambda", dest="lam", type=float, default=0.5)
    orbit = argparse.ArgumentParser(add_help=False)
    orbit.add_argument("--delta", type=float, default=0.01, help="defect bound")
    orbit.add_argument("--len", dest="length", type=int, default=200, help="orbit steps")
    orbit.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("transform", parents=[infile, lam], help="apply the lambda-Aluthge transform to a matrix")
    p.add_argument("--out", help="output matrix JSON (stdout if omitted)")
    p.set_defaults(handler=_cmd_transform)

    p = sub.add_parser("iterate", parents=[infile, lam], help="iterate the transform, tracing norms and defects")
    p.add_argument("--n", type=int, default=500, help="iteration budget")
    p.add_argument("--trace", help="trace CSV path (stdout if omitted)")
    p.set_defaults(handler=_cmd_iterate)

    p = sub.add_parser("spectrum", parents=[infile], help="eigenvalues and hyperbolicity report")
    p.add_argument("--json", help="report path (stdout if omitted)")
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("quasihyp", parents=[infile], help="quasi-hyperbolicity verdict")
    p.add_argument("--method", choices=["spectral", "definitional"], default="spectral")
    p.add_argument("--nmax", type=int, default=20, help="largest exponent to test")
    p.set_defaults(handler=_cmd_quasihyp)

    p = sub.add_parser("shadow", parents=[infile, orbit], help="generate and shadow a ball-mode pseudo-orbit")
    p.add_argument("--json", help="result path (stdout if omitted)")
    p.set_defaults(handler=_cmd_shadow)

    p = sub.add_parser(
        "transfer", parents=[infile, lam, orbit], help="shadow an orbit of the transform through the conjugacy"
    )
    p.set_defaults(handler=_cmd_transfer)

    p = sub.add_parser("verify", help="run ensemble property suites")
    p.add_argument("--suite", choices=list(SUITE_NAMES) + ["all"], required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", help="report path (stdout if omitted)")
    p.add_argument(
        "--stable-output",
        action="store_true",
        help="zero wall times and omit timestamps for golden-file comparison",
    )
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (AluthgeLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
