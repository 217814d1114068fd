"""Command-line front-end.

Subcommands: compute (entropies of one state), table (the published q = 2
hydrogen tables), verify (closed form vs oracle sweep), sum (uncertainty
sum against its dimensional bound).  Output is JSON by default, CSV behind
--format=csv.  Exit codes: 0 ok, 1 verification failure, 2 usage error
(including a real order at which the momentum entropy diverges or that is
too large for a float, an empty verify --qset, and a --precision outside
MIN_PRECISION_BITS to MAX_PRECISION_BITS), 3 resource cap exceeded (the term
cap of the sums, a verify sweep over more than MAX_VERIFY_VERDICTS verdicts,
or an exact W of compute, verify or the exact side of sum that could need
more than MAX_W_DIGITS digits), 4 the float path missed its error target or
an integral of it came out zero.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from hydrenyi import entropy, oracle
from hydrenyi.exactnum import DEFAULT_PRECISION_BITS
from hydrenyi.hyperfun import HypergeometricSpecError, TermBudgetExceeded
from hydrenyi.states import (
    HydrogenicState,
    ValidationError,
    count_states,
    enumerate_states,
    validate,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_NUMERICAL = 4

# Rendering an exact W as a float needs at least double precision, and its
# time grows faster than linearly in the bits, so --precision is bounded on
# both sides before any work.
MIN_PRECISION_BITS = 53
MAX_PRECISION_BITS = 4096

# verify gives one verdict per state and order, and the states grow as
# n^D / D!: --dmax 12 --nmax 12 would be about 4 million of them.
MAX_VERIFY_VERDICTS = 10_000

# An exact W is rendered as a fraction, and Python converts an integer of
# more than 4,300 digits to a string only past its own default limit; the
# digits of W grow about as q log q, and forming them costs more than
# linearly.  entropy.w_digits_bound bounds them before any work.
MAX_W_DIGITS = 4300

_SPACES = ("position", "momentum")


class UsageError(Exception):
    pass


class ResourceError(Exception):
    pass


def _check_w_digits(state: HydrogenicState, q: int, spaces) -> None:
    bound = entropy.w_digits_bound(state, q, tuple(spaces), MAX_W_DIGITS)
    if bound > MAX_W_DIGITS:
        raise ResourceError(
            f"the exact W of {state.literal()} at q={q} could need more than "
            f"{MAX_W_DIGITS} digits"
        )


def _parse_q(text: str) -> Fraction:
    try:
        q = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"cannot parse q={text!r}: {exc}") from exc
    if q <= 0:
        raise UsageError(f"q must be positive, got {q}")
    if q == 1:
        raise UsageError("q = 1 (the Shannon limit) is outside the computable range")
    return q


def _check_precision(bits: int) -> None:
    if bits < MIN_PRECISION_BITS:
        raise UsageError(f"precision must be at least {MIN_PRECISION_BITS} bits")
    if bits > MAX_PRECISION_BITS:
        raise UsageError(f"precision must be at most {MAX_PRECISION_BITS} bits, got {bits}")


def _parse_state(text: str) -> HydrogenicState:
    state = HydrogenicState.parse(text)
    validate(state)
    return state


def _emit(records: list[dict], fmt: str, stream) -> None:
    if fmt == "json":
        json.dump(records, stream, sort_keys=True, indent=2)
        stream.write("\n")
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
        return
    raise UsageError(f"unknown format {fmt!r}")


def _compute_records(
    state: HydrogenicState, q: Fraction, spaces: list[str], use_float: bool, bits: int
) -> list[dict]:
    records = []
    angular = None  # the same in both spaces, so built once
    for space in spaces:
        if use_float:
            result = oracle.renyi_float(state, q, space)  # type: ignore[arg-type]
            records.append(
                {
                    "state": state.literal(),
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
                f"exact closed forms need an integer q >= 2 (got {q}); pass --float"
            )
        radial = (
            entropy.radial_position_entropy(state, int(q))
            if space == "position"
            else entropy.radial_momentum_entropy(state, int(q))
        )
        if angular is None:
            angular = entropy.angular_entropy(state.D, state.mu, int(q))
        total = radial + angular
        records.append(
            {
                "state": state.literal(),
                "space": space,
                "q": str(q),
                "w": total.w.render(),
                "entropy_exact": total.exact_str(),
                "entropy": total.value_at(bits),
                "radial_exact": radial.exact_str(),
                "angular_exact": angular.exact_str(),
                "provenance": "closed-form",
            }
        )
    return records


def cmd_compute(args) -> int:
    state = _parse_state(args.state)
    q = _parse_q(args.q)
    spaces = list(_SPACES) if args.space == "both" else [args.space]
    _check_precision(args.precision)
    if not args.float and q.denominator == 1 and q >= 2:
        _check_w_digits(state, q.numerator, spaces)
    records = _compute_records(state, q, spaces, args.float, args.precision)
    _emit(records, args.format, sys.stdout)
    return EXIT_OK


def cmd_table(args) -> int:
    """The quasi-circular hydrogen entries: D = 3, Z = 1, q = 2, n <= 3."""
    _check_precision(args.precision)
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
                        "entropy": total.value_at(args.precision),
                    }
                )
    _emit(records, args.format, sys.stdout)
    return EXIT_OK


def cmd_verify(args) -> int:
    qset = [int(q) for q in args.qset.split(",") if q]
    if not qset:
        # the verdict cap counts states times orders, which is then 0
        raise UsageError("verify needs at least one order in --qset")
    # with no shells there are no states at any dimension
    dims = range(2, args.dmax + 1) if args.nmax >= 1 else range(0)
    planned = 0
    for D in dims:
        planned += count_states(D, args.nmax) * len(qset)
        if planned > MAX_VERIFY_VERDICTS:
            print(
                f"error: verify --dmax {args.dmax} --nmax {args.nmax} at {len(qset)} "
                f"orders asks for more than {MAX_VERIFY_VERDICTS} verdicts",
                file=sys.stderr,
            )
            return EXIT_RESOURCE
    for D in dims:
        for state in enumerate_states(D, args.nmax):
            for q in qset:
                if q >= 2:  # verify_state refuses lower orders itself
                    _check_w_digits(state, q, _SPACES)
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
    json.dump(output, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


def cmd_sum(args) -> int:
    state = _parse_state(args.state)
    q = _parse_q(args.q)
    try:
        p = entropy.conjugate_order(q)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    # at most one side is exact: an integer order >= 2 has a conjugate below 1
    if q.denominator == 1 and q >= 2:
        _check_w_digits(state, q.numerator, ["position"])
    if p.denominator == 1 and p >= 2:
        _check_w_digits(state, p.numerator, ["momentum"])
    result = entropy.uncertainty_sum(state, q)
    record = {
        "state": state.literal(),
        "q": str(q),
        "p": str(p),
        "sum": result.total,
        "bound": result.bound,
        "margin": result.total - result.bound,
        "satisfied": result.satisfied,
    }
    json.dump(record, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")
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
    compute.add_argument(
        "--precision", type=int, default=DEFAULT_PRECISION_BITS,
        help="working precision in bits for float rendering "
        f"({MIN_PRECISION_BITS} to {MAX_PRECISION_BITS})",
    )
    compute.set_defaults(func=cmd_compute)

    table = sub.add_parser("table", help="quasi-circular hydrogen entries at q=2")
    table.add_argument("which", choices=["position", "momentum"])
    table.add_argument("--format", choices=["json", "csv"], default="json")
    table.add_argument(
        "--precision", type=int, default=DEFAULT_PRECISION_BITS,
        help=f"working precision in bits ({MIN_PRECISION_BITS} to {MAX_PRECISION_BITS})",
    )
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
    except (TermBudgetExceeded, ResourceError) as exc:
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
    except (UsageError, ValidationError, HypergeometricSpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
