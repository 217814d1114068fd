"""``hydrenyi verify --full`` output, byte for byte, against a committed fixture.

``tests/data/verify_full.txt`` holds every check of
``hydrenyi verify --dmax 4 --nmax 3 --qset 2,3 --full`` (43 states, 86
verdicts, five checks each), one line per check: state, q, check name, the
closed form's W, the oracle's W, whether they are equal and the residual.
The verdicts' ``elapsed_ms`` is left out, since it is a timing.  Regenerate
the file only when the output is meant to change:

    PYTHONPATH=src python tests/test_verify_fixture.py
"""

import contextlib
import io
import json
import pathlib
import sys

from hydrenyi import cli

FIXTURE = pathlib.Path(__file__).parent / "data" / "verify_full.txt"

ARGV = ["verify", "--dmax", "4", "--nmax", "3", "--qset", "2,3", "--full"]


def render_verify() -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(ARGV)
    assert code == cli.EXIT_OK
    lines = []
    for report in json.loads(out.getvalue())["reports"]:
        for check in report["checks"]:
            lines.append(
                f"{report['state']} q={report['q']} {check['name']}: "
                f"{check['closed']} | {check['oracle']} | "
                f"equal={check['equal']} residual={check['residual']!r}"
            )
    return "\n".join(lines) + "\n"


def test_verify_full_matches_fixture():
    assert render_verify().encode() == FIXTURE.read_bytes()


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_bytes(render_verify().encode())
    print(f"wrote {FIXTURE}", file=sys.stderr)
