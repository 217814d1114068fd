"""entropy.w_digits_bound, both passes, byte for byte against a committed
fixture.

``tests/data/w_digits.txt`` holds the repr of the bound that
``w_digits_bound`` returns for each space from its first pass alone (with
``enough`` infinite) and from its second pass (with ``enough`` 0), for
D = 2..7, n <= 12, every l with the chain (l, l // 2, 0, ..., 0), q = 2..12
and Z in {1, 7/3, 10^50}.  Regenerate the file only when the bound is meant
to change:

    PYTHONPATH=src python tests/test_digits_fixture.py
"""

import math
import pathlib
import sys
from fractions import Fraction

import pytest

from hydrenyi import entropy
from hydrenyi.states import HydrogenicState

FIXTURE = pathlib.Path(__file__).parent / "data" / "w_digits.txt"

DIMENSIONS = range(2, 8)
N_MAX = 12
ORDERS = range(2, 13)
CHARGES = {"1": Fraction(1), "7/3": Fraction(7, 3), "1e50": Fraction(10**50)}
SPACES = ("position", "momentum")


def _chain(D: int, l: int) -> tuple[int, ...]:
    return ((l, l // 2) + (0,) * (D - 3))[: D - 1]


def render_grid(dimensions=DIMENSIONS) -> str:
    lines = []
    for D in dimensions:
        for n in range(1, N_MAX + 1):
            for l in range(n):
                mu = _chain(D, l)
                for label, Z in CHARGES.items():
                    state = HydrogenicState(D, n, mu, Z)
                    for q in ORDERS:
                        bounds = [
                            entropy.w_digits_bound(state, q, (space,), enough)
                            for space in SPACES
                            for enough in (math.inf, 0.0)
                        ]
                        key = f"D={D} n={n} mu={','.join(map(str, mu))} Z={label} q={q}"
                        lines.append(f"{key}: " + " ".join(map(repr, bounds)))
    return "\n".join(lines) + "\n"


def _fixture_lines(D: int) -> list[str]:
    prefix = f"D={D} "
    return [line for line in FIXTURE.read_text().splitlines() if line.startswith(prefix)]


@pytest.mark.parametrize("D", DIMENSIONS)
def test_w_digits_match_fixture(D):
    assert render_grid([D]).splitlines() == _fixture_lines(D)


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(render_grid())
    print(f"wrote {FIXTURE}", file=sys.stderr)
