"""The benchmark's workloads: seeded input lists, the operation each input
is, and the reference each output is checked against.

One operation is one request a user makes.  Every workload has a fixed list
of strata; the seed only orders them and, for the exact workloads, picks
the nuclear charge Z, which does not change the cost, so every seed has the
same work profile.  The float path takes the magnetic numbers of its strata
as listed, since the quadrature's cost need not be the same for both signs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from hydrenyi import cli, entropy, oracle
from hydrenyi.exactnum import parse_scalar
from hydrenyi.states import HydrogenicState, enumerate_states

# A float result is compared with a double-precision reference; both carry
# their own rounding, so the reported quadrature error gets this much slack
# relative to the entropy's size.
FLOAT_SLACK = 1e-12


@dataclass(frozen=True)
class Workload:
    """How to build, run and check one workload.

    ``inputs`` turns a seed into one pass of JSON-able inputs; ``prepare``
    turns an input into the call arguments, outside the timed region;
    ``run`` performs the operation and returns (failure, output), where
    failure is None on success or else names the kind of failure;
    ``digest`` reduces an output to what the check needs; ``check``
    compares a digest with the reference.
    """

    name: str
    root_span: str
    inputs: Callable[[int], list]
    prepare: Callable
    run: Callable
    digest: Callable
    check: Callable
    setup_input: tuple
    tail_pct: float
    min_passes: int


def _literal(D: int, n: int, mu, Z=1) -> str:
    return HydrogenicState(D, n, mu, Z).literal()


def _exact_entropy(state: HydrogenicState, q: int, space: str) -> entropy.EntropyValue:
    """The entropy of one space from the oracle's exact argument W, radial
    times angular."""
    radial = (
        oracle.radial_position_w_exact(state, q)
        if space == "position"
        else oracle.radial_momentum_w_exact(state, q)
    )
    w = radial * oracle.angular_w_exact(state.D, state.mu, q)
    return entropy.EntropyValue(Fraction(1, 1 - q), w, Fraction(q))


def _exact_value(state: HydrogenicState, q: int, space: str) -> float:
    return _exact_entropy(state, q, space).value_at()


# -- exact_heavy: the CLI on the closed forms ---------------------------------

# (D, n, l, q): the box sums grow as (n-l)^(2q).  The last two strata are
# refused by the default term cap (10^10 box terms) and stay in on purpose.
EXACT_STRATA = (
    [(D, n, l, q) for D in (3, 5) for n in range(4, 9) for l in (0, 1) for q in (2, 3)]
    + [(D, n, l, 4) for D in (3, 5) for n in (4, 5) for l in (0, 1)]
    + [(3, 10, 0, 5), (5, 10, 0, 5)]
)


def exact_inputs(seed: int) -> list:
    rng = random.Random(seed)
    out = []
    for D, n, l, q in EXACT_STRATA:
        mu = (l,) + (0,) * (D - 2)
        out.append([_literal(D, n, mu, rng.choice((1, 2, 3))), str(q)])
    rng.shuffle(out)
    return out


def exact_prepare(inp) -> list[str]:
    literal, q = inp
    return ["compute", literal, "--q", q]


def exact_run(argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code == cli.EXIT_OK:
        return None, out.getvalue()
    if code == cli.EXIT_RESOURCE:
        return "TermBudgetExceeded", err.getvalue()
    return f"exit_{code}", err.getvalue()


def exact_check(inp, text: str) -> bool:
    """Zero tolerance: each rendered W equals the oracle's W, and each float
    is the value of that exact W."""
    literal, q_text = inp
    state, q = HydrogenicState.parse(literal), int(q_text)
    records = json.loads(text)
    if [r.get("space") for r in records] != ["position", "momentum"]:
        return False
    for record in records:
        expected = _exact_entropy(state, q, record["space"])
        if parse_scalar(record["w"]) != expected.w:
            return False
        if record["entropy"] != expected.value_at():
            return False
    return True


EXACT_HEAVY = Workload(
    name="exact_heavy",
    root_span="cli",
    inputs=exact_inputs,
    prepare=exact_prepare,
    run=exact_run,
    digest=lambda text: text,
    check=exact_check,
    setup_input=("D=3,n=4,mu=1,0,Z=1", "2"),
    tail_pct=80,
    min_passes=3,
)


# -- verify_sweep: the paper's acceptance sweep --------------------------------

VERIFY_DIMS = range(2, 6)
VERIFY_NMAX = 4
VERIFY_ORDERS = (2, 3)


def verify_inputs(seed: int) -> list:
    rng = random.Random(seed)
    out = []
    for D in VERIFY_DIMS:
        for state in enumerate_states(D, VERIFY_NMAX):
            for q in VERIFY_ORDERS:
                Z = rng.choice((1, 2, 3))
                out.append([_literal(state.D, state.n, state.mu, Z), q])
    rng.shuffle(out)
    return out


def verify_prepare(inp):
    literal, q = inp
    return HydrogenicState.parse(literal), q


def verify_run(args):
    return None, oracle.verify_state(*args)


def verify_check(inp, digest) -> bool:
    literal, q = inp
    return digest == (literal, q, True)


VERIFY_SWEEP = Workload(
    name="verify_sweep",
    root_span="oracle.verify_state",
    inputs=verify_inputs,
    prepare=verify_prepare,
    run=verify_run,
    digest=lambda verdict: (verdict.state, verdict.q, verdict.all_equal),
    check=verify_check,
    setup_input=("D=2,n=1,mu=0,Z=1", 2),
    tail_pct=97,
    min_passes=5,
)


# -- float_real_order: quadrature at real q -------------------------------------

# (D, n, mu, space, q).  Quasi-spherical chains (all entries equal, l = n-1)
# have a Gamma-only reference at any q; the others are checked against the
# exact values at integer q.  Three strata fail at the parent commit and stay
# in on purpose: polyroots does not converge for D=3, n >= 10, l = 0 in
# position space, and D=3, n=6, mu=3,2 misses the quadrature target at q=1/5.
FLOAT_STRATA = (
    (3, 1, (0, 0), "position", "0.7"),
    (3, 1, (0, 0), "momentum", "0.7"),
    (3, 3, (2, 1), "position", "1.5"),
    (3, 3, (2, 1), "momentum", "2"),
    (3, 4, (3, 3), "position", "2.5"),
    (3, 4, (3, 3), "momentum", "0.5"),
    (3, 5, (2, 0), "position", "3"),
    (3, 5, (2, 0), "momentum", "0.2"),
    (3, 6, (3, 2), "momentum", "0.2"),
    (3, 6, (0, 0), "position", "2"),
    (3, 6, (0, 0), "momentum", "5"),
    (3, 8, (7, 7), "position", "0.5"),
    (3, 8, (7, 7), "momentum", "1.5"),
    (3, 10, (0, 0), "position", "2"),
    (3, 12, (0, 0), "position", "0.5"),
    (3, 12, (0, 0), "momentum", "0.7"),
    (4, 2, (1, 1, 1), "position", "0.2"),
    (4, 2, (1, 1, 1), "momentum", "2.5"),
    (4, 4, (0, 0, 0), "position", "5"),
    (4, 4, (0, 0, 0), "momentum", "3"),
    (4, 6, (5, 5, 5), "position", "3"),
    (4, 6, (5, 5, 5), "momentum", "0.7"),
    (4, 7, (3, 1, 1), "position", "2"),
    (4, 7, (3, 1, 1), "momentum", "1.5"),
    (4, 10, (9, 9, 9), "position", "1.5"),
    (4, 10, (9, 9, 9), "momentum", "2"),
    (5, 1, (0, 0, 0, 0), "position", "2.5"),
    (5, 1, (0, 0, 0, 0), "momentum", "3"),
    (5, 4, (3, 3, 3, 3), "position", "0.7"),
    (5, 4, (3, 3, 3, 3), "momentum", "5"),
    (5, 5, (2, 1, 1, 0), "position", "0.5"),
    (5, 5, (2, 1, 1, 0), "momentum", "2"),
    (5, 8, (0, 0, 0, 0), "position", "3"),
    (5, 8, (0, 0, 0, 0), "momentum", "0.5"),
    (5, 12, (11, 11, 11, 11), "position", "0.2"),
    (5, 12, (11, 11, 11, 11), "momentum", "2"),
    (3, 2, (1, 1), "position", "5"),
    (4, 3, (2, 1, 0), "position", "0.7"),
    (4, 5, (0, 0, 0), "momentum", "1.5"),
    (5, 3, (1, 1, 0, 0), "momentum", "2.5"),
)


def float_inputs(seed: int) -> list:
    rng = random.Random(seed)
    out = [
        [_literal(D, n, mu), q, space] for D, n, mu, space, q in FLOAT_STRATA
    ]
    rng.shuffle(out)
    return out


def float_prepare(inp):
    literal, q, space = inp
    return HydrogenicState.parse(literal), float(q), space


def float_run(args):
    return None, oracle.renyi_float(*args)


def float_check(inp, digest) -> bool:
    """Integer q: the exact value.  Quasi-spherical states: the Gamma-only
    shortcut.  Otherwise R_q is non-increasing in q, so it must lie between
    the exact values at the neighbouring integer orders (from 2 up)."""
    literal, q_text, space = inp
    value, error = digest
    state, q = HydrogenicState.parse(literal), Fraction(q_text)
    tol = error + FLOAT_SLACK * max(1.0, abs(value))
    if q.denominator == 1:
        return abs(value - _exact_value(state, int(q), space)) <= tol
    if state.is_ns():
        shortcut = (
            entropy.ns_position_entropy
            if space == "position"
            else entropy.ns_momentum_entropy
        )
        return abs(value - shortcut(state.n, state.D, state.Z, float(q))) <= tol
    above = max(2, math.ceil(q))
    if value < _exact_value(state, above, space) - tol:
        return False
    below = math.floor(q)
    return below < 2 or value <= _exact_value(state, below, space) + tol


FLOAT_REAL_ORDER = Workload(
    name="float_real_order",
    root_span="oracle.renyi_float",
    inputs=float_inputs,
    prepare=float_prepare,
    run=float_run,
    digest=lambda result: (result.value, result.error),
    check=float_check,
    setup_input=("D=3,n=1,mu=0,0,Z=1", "0.7", "position"),
    tail_pct=75,
    min_passes=3,
)


WORKLOADS = {w.name: w for w in (EXACT_HEAVY, VERIFY_SWEEP, FLOAT_REAL_ORDER)}
