"""The float path's (value, error), byte for byte, against a committed fixture.

``tests/data/float_values.txt`` holds the repr of the value and of the error
that ``renyi_float`` returns, or the class of the exception it raises, for
every state of D = 2..5, n <= 4, at q in {0.55, 1.5, 2.5, 6}, in both spaces.
Regenerate the file only when the float path is meant to change:

    PYTHONPATH=src python tests/test_float_fixture.py

which prints what moved (see summarize) before it rewrites the file.

The rest checks the rule's stop in the endpoint region against the same rule
with every node of each level evaluated.
"""

import math
import pathlib
import sys
from fractions import Fraction

import pytest

from hydrenyi import oracle
from hydrenyi.states import HydrogenicState, enumerate_states

FIXTURE = pathlib.Path(__file__).parent / "data" / "float_values.txt"

DIMENSIONS = range(2, 6)
N_MAX = 4
ORDERS = ("0.55", "1.5", "2.5", "6")
SPACES = ("position", "momentum")


def _outcome(state, q: Fraction, space: str) -> str:
    try:
        value, error = oracle.renyi_float(state, q, space)
    except (ValueError, oracle.QuadratureError) as exc:
        return type(exc).__name__
    return f"{value!r} {error!r}"


def render_grid() -> str:
    lines = []
    for D in DIMENSIONS:
        for state in enumerate_states(D, N_MAX):
            for q in ORDERS:
                for space in SPACES:
                    outcome = _outcome(state, Fraction(q), space)
                    lines.append(f"{state.literal()} q={q} {space}: {outcome}")
    return "\n".join(lines) + "\n"


def test_float_values_match_fixture():
    assert render_grid().encode() == FIXTURE.read_bytes()


def summarize(old: str, new: str) -> str:
    """What a regeneration moves: the lines that changed, those whose
    outcome (answer or exception class) changed, and over the lines answered
    on both sides the largest |new - old| value in units of the old stated
    error and in units of the old plus the new one, and the largest factor
    by which a stated error grew or shrank."""
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if [line.split(":")[0] for line in old_lines] != [line.split(":")[0] for line in new_lines]:
        return "the grid itself changed: the lines name different inputs"
    moved, outcome_changes = 0, []
    worst_value, worst_both, grew, shrank = 0.0, 0.0, 1.0, 1.0
    for before, after in zip(old_lines, new_lines):
        if before == after:
            continue
        moved += 1
        key, _, was = before.partition(": ")
        now = after.partition(": ")[2]
        if len(was.split()) != 2 or len(now.split()) != 2:
            outcome_changes.append(f"{key}: {was} -> {now}")
            continue
        (value, error), (new_value, new_error) = (map(float, t.split()) for t in (was, now))
        worst_value = max(worst_value, abs(new_value - value) / error)
        worst_both = max(worst_both, abs(new_value - value) / (error + new_error))
        grew, shrank = max(grew, new_error / error), max(shrank, error / new_error)
    lines = [
        f"{moved} of {len(old_lines)} lines moved, {len(outcome_changes)} outcomes changed",
        f"largest |value change| / old stated error: {worst_value:.3g}",
        f"largest |value change| / (old + new stated error): {worst_both:.3g}",
        f"largest factor by which a stated error grew: {grew:.3g}, shrank: {shrank:.3g}",
    ]
    return "\n".join(lines + outcome_changes)


def test_summarize_names_what_moved():
    old = (
        "a q=2 position: 1.0 1e-13\nb q=2 position: 2.0 1e-13\nc q=2 position: ValueError\n"
        "d q=2 position: 4.0 4e-13\n"
    )
    new = (
        "a q=2 position: 1.0 1e-13\nb q=2 position: 2.00000000000001 2e-13\n"
        "c q=2 position: 3.0 1e-13\nd q=2 position: 4.0 1e-13\n"
    )
    change = abs(2.00000000000001 - 2.0)
    assert summarize(old, new).splitlines() == [
        "3 of 4 lines moved, 1 outcomes changed",
        f"largest |value change| / old stated error: {change / 1e-13:.3g}",
        f"largest |value change| / (old + new stated error): {change / 3e-13:.3g}",
        "largest factor by which a stated error grew: 2, shrank: 4",
        "c q=2 position: ValueError -> 3.0 1e-13",
    ]
    assert summarize(old, "x q=2 position: 1.0 1e-13\n").startswith("the grid itself")


class _EveryNode(oracle._FloatTanhSinh):
    """The rule with every node of each level evaluated: the reference for
    the stop in the endpoint region."""

    def _terms(self, f, a, b, level):
        nodes = oracle._level_nodes(level)
        if b == math.inf:
            terms = [w * 2 / (2 - c) ** 2 * f(a + c / (2 - c)) for c, w in nodes]
            terms += [w / c * (2 / c) * f(a + (2 - c) / c) for c, w in nodes]
            if level == 1:
                terms.append(math.pi * f(a + 1))
            return terms
        half = 0.5 * (b - a)
        terms = []
        for c, w in nodes:
            terms.append(half * w * f(b - half * c))
            terms.append(half * w * f(a + half * c))
        if level == 1:
            terms.append(half * math.pi / 2 * f(a + half))
        return terms


def _outside_the_endpoint_region(a, b, level):
    """The nodes of this level with complement c > _ENDPOINT_REGION."""
    outside = [c for c, _ in oracle._level_nodes(level) if c > oracle._ENDPOINT_REGION]
    if b == math.inf:
        points = [a + c / (2 - c) for c in outside] + [a + (2 - c) / c for c in outside]
        return points + [a + 1] * (level == 1)
    half = 0.5 * (b - a)
    points = [b - half * c for c in outside] + [a + half * c for c in outside]
    return points + [a + half] * (level == 1)


@pytest.mark.parametrize("level", [1, 4, 9])
@pytest.mark.parametrize("tail", [False, True])
def test_nodes_outside_the_endpoint_region_always_run(level, tail):
    # an integrand that is 1 outside the endpoint region and 0 inside it:
    # each side runs every node outside and stops at its first node inside
    rule = oracle._FloatTanhSinh()
    for a, b in [(2.0, math.inf)] if tail else [(0.0, 1.0), (-1.0, 0.25)]:
        outside = set(_outside_the_endpoint_region(a, b, level))
        evaluated = []
        rule._terms(lambda x: evaluated.append(x) or float(x in outside), a, b, level)
        assert outside <= set(evaluated)
        assert len(evaluated) == len(outside) + 2


def test_no_stop_before_the_side_sum_is_positive():
    # the side sums of a zero integrand stay 0, so every node runs
    rule, reference = oracle._FloatTanhSinh(), _EveryNode()
    for a, b in [(0.0, 1.0), (2.0, math.inf)]:
        for level in (1, 5):
            every, evaluated = [], []
            reference._terms(lambda x: every.append(x) or 0.0, a, b, level)
            rule._terms(lambda x: evaluated.append(x) or 0.0, a, b, level)
            assert sorted(evaluated) == sorted(every)


def _against_every_node(f, points):
    value, err = oracle._quad(f, points, oracle._FloatTanhSinh())
    expected, _ = oracle._quad(f, points, _EveryNode())
    assert abs(value - expected) <= err
    return value


@pytest.mark.parametrize("width", [1e-7, 1e-9])
def test_mass_against_an_endpoint(width):
    # integrands that vanish except within width of an endpoint, so that the
    # terms of a side before its mass are all zero
    def bump(d):
        return max(0.0, 1 - d / width) ** 2

    cases = [
        (lambda x: bump(1 - x), [0.0, 1.0], 1),
        (lambda x: bump(x - 2), [2.0, 3.0], 1),
        (lambda x: bump(x - 2), [2.0, math.inf], 1),
        (lambda x: bump(1 - x) + bump(x), [0.0, 1.0], 2),
    ]
    for f, points, ends in cases:
        value = _against_every_node(f, points)
        assert value == pytest.approx(ends * width / 3, rel=1e-6)


def test_underflow_away_from_an_endpoint():
    # x^N on [0, 1] underflows to 0 farther than about 745/N from x = 1
    for N in (1e8, 1e10):
        value = _against_every_node(lambda x: x**N, [0.0, 1.0])
        assert value == pytest.approx(1 / (N + 1), rel=1e-9)


@pytest.mark.parametrize("D,l", [(3, 0), (4, 1), (5, 2)])
@pytest.mark.parametrize(
    "above", [Fraction(1, 100), Fraction(1, 20), Fraction(1, 6), "e=1.5", "e=1.55"]
)
def test_deep_tail_momentum_integrals(D, l, above):
    # slowly decaying tails, deep in p: q lies above the divergence threshold
    # D/(2l+2D+2) by `above`, or gives the tail p^-e the decay
    # e = (2l+2D+2) q - D + 1 named.  The quadrature runs them on the
    # finite segment [0, w_k] of w = t^sigma, t = (Z / (eta p))^2, whose
    # integrand is bounded and flat towards w = 0, where p is infinite
    state = HydrogenicState(D, l + 2, (l,) + (0,) * (D - 2))
    if isinstance(above, str):
        q = (Fraction(above.removeprefix("e=")) + D - 1) / (2 * l + 2 * D + 2)
    else:
        q = Fraction(D, 2 * l + 2 * D + 2) + above
    _, _, (log_tail, points) = oracle._momentum_integrand(state, float(q))
    shift = log_tail(0.5 * points[-1])
    _against_every_node(lambda w: math.exp(log_tail(w) - shift), points)


GRID_ORDERS = (
    "0.3", "0.45", "0.55", "0.7", "0.85", "0.95", "1.05", "1.2", "1.5", "2", "2.5",
    "3", "3.7", "4.5", "6", "8", "10", "15", "20", "30", "45", "60",
)


@pytest.mark.slow
@pytest.mark.parametrize("D", range(2, 7))
def test_grid_byte_identical_to_every_node(D, monkeypatch):
    # n <= 13, every l with the chain (l, 0, ..., 0), 22 orders, both spaces:
    # 4,004 cases per dimension
    cases = [
        (HydrogenicState(D, n, (l,) + (0,) * (D - 2)), Fraction(q), space)
        for n in range(1, 14)
        for l in range(n)
        for q in GRID_ORDERS
        for space in SPACES
    ]
    truncated = [_outcome(*case) for case in cases]
    monkeypatch.setattr(oracle, "_FloatTanhSinh", _EveryNode)
    every = [_outcome(*case) for case in cases]
    assert truncated == every


if __name__ == "__main__":
    grid = render_grid()
    if FIXTURE.exists():
        print(summarize(FIXTURE.read_text(), grid), file=sys.stderr)
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_bytes(grid.encode())
    print(f"wrote {FIXTURE}", file=sys.stderr)
