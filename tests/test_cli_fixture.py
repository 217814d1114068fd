"""The CLI's default output, byte for byte, against committed fixtures.

The files under ``tests/data/`` hold the output of ``hydrenyi compute`` (JSON
and CSV) for the states below and of ``hydrenyi table position|momentum``.
Each command's output is preceded by one ``# hydrenyi ...`` line naming it.
Regenerate them only when the output is meant to change:

    PYTHONPATH=src python tests/test_cli_fixture.py
"""

import contextlib
import io
import pathlib
import sys

import pytest

from hydrenyi import cli

DATA = pathlib.Path(__file__).parent / "data"

# (state literal, q): D = 2 to 6, negative magnetic numbers, Z = 5/2,
# quasi-spherical l = n - 1 and q up to 5
COMPUTE_CASES = (
    ("D=2,n=1,mu=0", 2),
    ("D=2,n=3,mu=-2", 3),
    ("D=2,n=4,mu=1", 2),
    ("D=2,n=2,mu=0,Z=5/2", 5),
    ("D=3,n=1,mu=0,0", 2),
    ("D=3,n=1,mu=0,0", 5),
    ("D=3,n=2,mu=1,-1", 2),
    ("D=3,n=2,mu=1,0", 3),
    ("D=3,n=3,mu=2,2", 4),
    ("D=3,n=3,mu=0,0,Z=5/2", 2),
    ("D=3,n=4,mu=1,0", 3),
    ("D=3,n=4,mu=3,-2", 2),
    ("D=3,n=5,mu=2,-1", 4),
    ("D=3,n=6,mu=5,-5", 5),
    ("D=3,n=6,mu=0,0", 2),
    ("D=3,n=3,mu=1,1", 5),
    ("D=4,n=2,mu=1,0,0", 2),
    ("D=4,n=3,mu=2,1,-1", 3),
    ("D=4,n=4,mu=3,3,-3", 2),
    ("D=4,n=4,mu=1,1,0,Z=5/2", 4),
    ("D=4,n=3,mu=0,0,0", 5),
    ("D=5,n=1,mu=0,0,0,0", 3),
    ("D=5,n=3,mu=2,1,1,-1,Z=5/2", 3),
    ("D=5,n=4,mu=0,0,0,0", 2),
    ("D=5,n=4,mu=3,2,1,0", 4),
    ("D=5,n=2,mu=1,1,1,-1", 5),
    ("D=6,n=2,mu=1,1,0,0,0", 2),
    ("D=6,n=3,mu=2,2,1,1,-1", 3),
    ("D=7,n=3,mu=1,0,0,0,0,0", 2),
    ("D=3,n=8,mu=2,1,Z=5/2", 2),
)


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == cli.EXIT_OK, argv
    return f"# hydrenyi {' '.join(argv)}\n{out.getvalue()}"


def _compute_output(fmt: str) -> str:
    return "".join(
        _run(["compute", state, "--q", str(q), "--format", fmt])
        for state, q in COMPUTE_CASES
    )


OUTPUTS = {
    "compute_json.txt": lambda: _compute_output("json"),
    "compute_csv.txt": lambda: _compute_output("csv"),
    "table_position.txt": lambda: _run(["table", "position"]),
    "table_momentum.txt": lambda: _run(["table", "momentum"]),
}


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_output_matches_fixture(name):
    assert OUTPUTS[name]().encode() == (DATA / name).read_bytes()


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name, render in OUTPUTS.items():
        (DATA / name).write_bytes(render().encode())
        print(f"wrote {DATA / name}", file=sys.stderr)
