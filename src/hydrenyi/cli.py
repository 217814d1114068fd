"""Command-line front-end.

Subcommands: compute (entropies of one state), table (the published q = 2
hydrogen tables), verify (closed form vs oracle sweep), sum (uncertainty
sum against its dimensional bound).  Output is JSON by default, CSV behind
--format=csv.  Exit codes: 0 ok, 1 verification failure, 2 usage error
(including an unknown option, a real order at which the momentum entropy
diverges or that is too large or too small for a float, a verify --qset
that is empty or not integers, and a charge Z whose numerator or
denominator has more digits than Python converts to a string, 4,300 by
default), 3 resource cap exceeded (a step of the exact closed forms past
hyperfun.WORK_CAP, a verify sweep over more than MAX_VERIFY_VERDICTS
verdicts, an exact W that compute or a verify report is about to write
with more digits than Python converts to a string, or a state with n past
oracle.MAX_FLOAT_N for compute --float or the float side of sum), 4 the
float path missed its error target, an integral of it came out zero or
not a number, or its node search did not converge.  A reader that closes
the output pipe early, such as ``head``, ends the process by SIGPIPE where
the platform has one, as it ends other filters: status 141 in a POSIX
shell, and no traceback.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import signal
import sys
from fractions import Fraction

from hydrenyi import entropy, oracle
from hydrenyi.exactnum import ExactScalar
from hydrenyi.hyperfun import TermBudgetExceeded
from hydrenyi.states import (
    HydrogenicState,
    brief,
    count_states,
    digit_limit_error,
    enumerate_states,
    validate,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_NUMERICAL = 4

# verify gives one verdict per state and order, and the states grow as
# n^D / D!: --dmax 12 --nmax 12 would be about 4 million of them.
MAX_VERIFY_VERDICTS = 10_000

_SPACES = ("position", "momentum")


class UsageError(Exception):
    pass


class ResourceError(Exception):
    pass


@functools.lru_cache(maxsize=1)
def _least_too_long(digits: int) -> int:
    return 10**digits


def _check_printable(w: ExactScalar, name) -> None:
    """Refuse a W whose reduced numerator or denominator has more digits than
    Python converts to a string (sys.get_int_max_str_digits(), none at 0); name()
    names W.  How much work forming it may take is hyperfun.WORK_CAP's concern."""
    digits = sys.get_int_max_str_digits()
    r, _ = w.monomial()
    if digits and max(abs(r.numerator), r.denominator) >= _least_too_long(digits):
        raise ResourceError(f"the exact W of {name()} has more than {digits} digits")


def _check_report(verdict: oracle.StateVerdict) -> None:
    """Check each W that a verdict's report writes."""
    for check in verdict.checks:
        for w in (check.closed_w, check.oracle_w):
            _check_printable(w, lambda: f"{verdict.state} at q={verdict.q}")


def _parse_q(text: str) -> Fraction:
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError):  # whose message repeats the text
        raise UsageError(f"cannot parse q={brief(text)!r} as a rational number") from None
    if q <= 0:
        raise UsageError(f"q must be positive, got {brief(q)}")
    if q == 1:
        raise UsageError("q = 1 (the Shannon limit) is outside the computable range")
    return q


def _parse_state(text: str) -> tuple[HydrogenicState, str]:
    """The validated state of a literal, and its canonical literal for the
    records, rendered once."""
    state = HydrogenicState.parse(text)
    validate(state)
    try:
        literal = state.literal()
    except ValueError:
        # D, n and mu were parsed from digits, so only Z can pass the limit
        raise digit_limit_error("Z") from None
    return state, literal


def _write_json(value, stream) -> None:
    """Indented JSON and a newline in one write."""
    stream.write(json.dumps(value, sort_keys=True, indent=2) + "\n")


def _emit(records: list[dict], fmt: str, stream) -> None:
    if fmt == "json":
        _write_json(records, stream)
        return
    if fmt == "csv":
        columns: list[str] = []
        for record in records:
            for key in record:
                if key not in columns:
                    columns.append(key)
        writer = csv.DictWriter(stream, fieldnames=columns, restval="")
        writer.writeheader()
        writer.writerows(records)


def _compute_records(
    state: HydrogenicState,
    literal: str,
    q: Fraction,
    spaces: list[str],
    use_float: bool,
) -> list[dict]:
    records = []
    angular = None  # the same in both spaces, so built once

    def name() -> str:
        return (
            f"D={brief(state.D)},n={brief(state.n)},mu={brief(state.mu)},"
            f"Z={brief(state.Z)} at q={brief(q)}"
        )

    for space in spaces:
        if use_float:
            result = oracle.renyi_float(state, q, space)  # type: ignore[arg-type]
            records.append(
                {
                    "state": literal,
                    "space": space,
                    "q": str(q),
                    "entropy": result.value,
                    "error": result.error,
                    "provenance": "oracle-float",
                }
            )
            continue
        if q.denominator != 1 or q < 2:
            raise UsageError(
                f"exact closed forms need an integer q >= 2 (got {brief(q)}); pass --float"
            )
        radial = (
            entropy.radial_position_entropy(state, int(q))
            if space == "position"
            else entropy.radial_momentum_entropy(state, int(q))
        )
        if angular is None:
            angular = entropy.angular_entropy(state.D, state.mu, int(q))
            _check_printable(angular.w, name)
            angular_exact = angular.exact_str()
        total = radial + angular
        _check_printable(radial.w, name)
        _check_printable(total.w, name)
        records.append(
            {
                "state": literal,
                "space": space,
                "q": str(q),
                "w": total.w.render(),
                "entropy_exact": total.exact_str(),
                "entropy": total.value,
                "radial_exact": radial.exact_str(),
                "angular_exact": angular_exact,
                "provenance": "closed-form",
            }
        )
    return records


def cmd_compute(args) -> int:
    state, literal = _parse_state(args.state)
    q = _parse_q(args.q)
    spaces = list(_SPACES) if args.space == "both" else [args.space]
    records = _compute_records(state, literal, q, spaces, args.float)
    _emit(records, args.format, sys.stdout)
    return EXIT_OK


def cmd_table(args) -> int:
    """The quasi-circular hydrogen entries: D = 3, Z = 1, q = 2, n <= 3."""
    records = []
    for n in range(1, 4):
        for l in range(n):
            for m in range(l + 1):
                state = HydrogenicState(3, n, (l, m), 1)
                breakdown = (
                    entropy.position_entropy(state, 2)
                    if args.which == "position"
                    else entropy.momentum_entropy(state, 2)
                )
                total = breakdown.total
                records.append(
                    {
                        "n": n,
                        "l": l,
                        "m": m,
                        "w": total.w.render(),
                        "entropy_exact": total.exact_str(),
                        "entropy": total.value,
                    }
                )
    _emit(records, args.format, sys.stdout)
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        qset = [int(q) for q in args.qset.split(",") if q]
    except ValueError:
        raise UsageError(
            f"--qset takes comma-separated integers, got {brief(args.qset)!r}"
        ) from None
    if not qset:
        # the verdict cap counts states times orders, which is then 0
        raise UsageError("verify needs at least one order in --qset")
    # with no shells there are no states at any dimension
    dims = range(2, args.dmax + 1) if args.nmax >= 1 else range(0)
    planned = 0
    for D in dims:
        planned += count_states(D, args.nmax) * len(qset)
        if planned > MAX_VERIFY_VERDICTS:
            raise ResourceError(
                f"verify --dmax {args.dmax} --nmax {args.nmax} at {len(qset)} "
                f"orders asks for more than {MAX_VERIFY_VERDICTS} verdicts"
            )
    failures: list[dict] = []
    reports: list[dict] = []
    verdict_count = 0
    state_count = 0
    for D in dims:
        for state in enumerate_states(D, args.nmax):
            state_count += 1
            for q in qset:
                verdict = oracle.verify_state(state, q)
                verdict_count += 1
                if args.full or not verdict.all_equal:
                    _check_report(verdict)
                if args.full:
                    reports.append(verdict.to_dict())
                if not verdict.all_equal:
                    failures.append(verdict.to_dict())
    summary = {
        "dmax": args.dmax,
        "nmax": args.nmax,
        "qset": qset,
        "states": state_count,
        "verdicts": verdict_count,
        "failures": len(failures),
        "all_equal": not failures,
    }
    output: dict = {"summary": summary}
    if failures:
        output["failing"] = failures
    if args.full:
        output["reports"] = reports
    _write_json(output, sys.stdout)
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


def cmd_sum(args) -> int:
    state, literal = _parse_state(args.state)
    q = _parse_q(args.q)
    try:
        p = entropy.conjugate_order(q)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    result = entropy.uncertainty_sum(state, q)
    record = {
        "state": literal,
        "q": str(q),
        "p": str(p),
        "sum": result.total,
        "bound": result.bound,
        "margin": result.total - result.bound,
        "satisfied": result.satisfied,
    }
    _write_json(record, sys.stdout)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hydrenyi",
        description="Exact Renyi entropies of D-dimensional hydrogenic states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="entropies of one state")
    compute.add_argument("state", help='state literal, e.g. "D=3,n=1,mu=0,0,Z=1"')
    compute.add_argument("--q", default="2", help="entropy order (integer, or real with --float)")
    compute.add_argument(
        "--space", choices=["position", "momentum", "both"], default="both"
    )
    compute.add_argument(
        "--float", action="store_true", help="use the floating quadrature oracle"
    )
    compute.add_argument("--format", choices=["json", "csv"], default="json")
    compute.set_defaults(func=cmd_compute)

    table = sub.add_parser("table", help="quasi-circular hydrogen entries at q=2")
    table.add_argument("which", choices=["position", "momentum"])
    table.add_argument("--format", choices=["json", "csv"], default="json")
    table.set_defaults(func=cmd_table)

    verify = sub.add_parser("verify", help="closed form vs oracle sweep")
    verify.add_argument("--dmax", type=int, default=5)
    verify.add_argument("--nmax", type=int, default=4)
    verify.add_argument("--qset", default="2,3", help="comma-separated integer orders")
    verify.add_argument("--full", action="store_true", help="include every report")
    verify.set_defaults(func=cmd_verify)

    total = sub.add_parser("sum", help="position-momentum uncertainty sum")
    total.add_argument("state")
    total.add_argument("--q", default="2", help="position-side order (> 1/2)")
    total.set_defaults(func=cmd_sum)

    return parser


# Built once: parsing does not change the parser, while building one per call
# leaves reference cycles (every action points back at its parser) that only
# a full garbage collection frees.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (TermBudgetExceeded, ResourceError, oracle.FloatCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except oracle.QuadratureError as exc:
        if exc.value is None:
            print(f"error: {exc}", file=sys.stderr)
        else:
            print(
                f"error: {exc}; entropy {exc.value:.12g} +/- {exc.estimate:.2e}",
                file=sys.stderr,
            )
        return EXIT_NUMERICAL
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
