"""The exact oracle's rendered W, byte for byte, against a committed fixture.

``tests/data/oracle_w.txt`` holds the rendered W of the three exact oracles
over D = 2..6, n <= 5 and q in {2, 3, 5}: the radial parts once per
(D, n, l, q), since they depend on the chain only through l = mu1, and the
angular part once per (D, canonical chain, q), since it depends on neither
n nor the sign of the magnetic number.  Together they cover every state of
the grid.  Regenerate the file only when the oracle is meant to change:

    PYTHONPATH=src python tests/test_oracle_fixture.py
"""

import pathlib
import sys

from hydrenyi import oracle
from hydrenyi.states import HydrogenicState, enumerate_states

FIXTURE = pathlib.Path(__file__).parent / "data" / "oracle_w.txt"

DIMENSIONS = range(2, 7)
N_MAX = 5
ORDERS = (2, 3, 5)


def render_grid() -> str:
    lines = []
    for D in DIMENSIONS:
        for n in range(1, N_MAX + 1):
            for l in range(n):
                state = HydrogenicState(D, n, (l,) + (0,) * (D - 2))
                for q in ORDERS:
                    position = oracle.radial_position_w_exact(state, q).render()
                    momentum = oracle.radial_momentum_w_exact(state, q).render()
                    lines.append(f"radial D={D} n={n} l={l} q={q}: {position} | {momentum}")
        chains = sorted({state.canonical_mu() for state in enumerate_states(D, N_MAX)})
        for chain in chains:
            mu = ",".join(map(str, chain))
            for q in ORDERS:
                w = oracle.angular_w_exact(D, chain, q).render()
                lines.append(f"angular D={D} mu={mu} q={q}: {w}")
    return "\n".join(lines) + "\n"


def test_oracle_w_matches_fixture():
    assert render_grid().encode() == FIXTURE.read_bytes()


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_bytes(render_grid().encode())
    print(f"wrote {FIXTURE}", file=sys.stderr)
