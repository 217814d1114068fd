import contextlib
import csv
import io
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hydrenyi import cli, entropy, hyperfun, oracle
from hydrenyi.exactnum import parse_scalar, pochhammer
from hydrenyi.states import HydrogenicState


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_ground_position(self, capsys):
        code, out, _ = run(
            capsys, "compute", "D=3,n=1,mu=0,0,Z=1", "--q", "2", "--space", "position"
        )
        assert code == 0
        records = json.loads(out)
        assert records[0]["entropy_exact"] == "ln(8*pi)"
        assert records[0]["provenance"] == "closed-form"

    def test_ground_momentum(self, capsys):
        code, out, _ = run(
            capsys, "compute", "D=3,n=1,mu=0,0,Z=1", "--q", "2", "--space", "momentum"
        )
        assert code == 0
        assert json.loads(out)[0]["entropy_exact"] == "ln(16/33*pi^2)"

    def test_both_spaces_by_default(self, capsys):
        code, out, _ = run(capsys, "compute", "D=4,n=2,mu=1,1,0")
        assert code == 0
        records = json.loads(out)
        assert [r["space"] for r in records] == ["position", "momentum"]

    def test_exact_strings_round_trip(self, capsys):
        code, out, _ = run(capsys, "compute", "D=5,n=3,mu=2,1,1,-1,Z=5/2", "--q", "3")
        assert code == 0
        for record in json.loads(out):
            scalar = parse_scalar(record["w"])
            assert scalar.render() == record["w"]
            inner = record["entropy_exact"]
            inner = inner[inner.index("ln(") + 3 : -1]
            assert parse_scalar(inner) == scalar.inverse()

    def test_malformed_chain_exits_two(self, capsys):
        code, _, err = run(capsys, "compute", "D=3,n=1,mu=0,Z=1")
        assert code == 2
        assert "D-1" in err

    def test_unit_order_exits_two(self, capsys):
        code, _, err = run(capsys, "compute", "D=3,n=1,mu=0,0", "--q", "1")
        assert code == 2
        assert "Shannon" in err

    def test_fractional_order_needs_float_flag(self, capsys):
        code, _, err = run(capsys, "compute", "D=3,n=1,mu=0,0", "--q", "3/2")
        assert code == 2
        assert "--float" in err

    def test_float_path(self, capsys):
        code, out, _ = run(
            capsys,
            "compute",
            "D=3,n=1,mu=0,0",
            "--q",
            "3/2",
            "--float",
            "--space",
            "position",
        )
        assert code == 0
        record = json.loads(out)[0]
        assert record["provenance"] == "oracle-float"
        assert record["error"] < 1e-10

    def test_order_too_large_for_a_float_exits_two(self, capsys):
        # float(q) overflowed into a traceback
        code, out, err = run(capsys, "compute", "D=3,n=2,mu=1,0", "--q", "1e400", "--float")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "too large" in err

    def test_order_too_small_for_a_float_exits_two(self, capsys):
        # float(q) rounded to 0.0 and the message read "got 0.0"
        code, out, err = run(capsys, "compute", "D=3,n=2,mu=1,0", "--q", "1e-400", "--float")
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and "too small for the float path" in err

    def test_repeated_key_exits_two(self, capsys):
        code, _, err = run(capsys, "compute", "D=3,D=4,n=2,mu=1,0,1")
        assert code == 2
        assert "repeated key" in err

    def test_unknown_key_exits_two(self, capsys):
        code, _, err = run(capsys, "compute", "D=3,n=1,mu=0,0,Zed=5")
        assert code == 2
        assert "unknown key 'Zed'" in err

    def test_high_order_matches_oracle(self, capsys):
        # 10^10 box terms, once refused by the default cap
        code, out, _ = run(capsys, "compute", "D=3,n=10,mu=0,0", "--q", "5")
        assert code == 0
        state = HydrogenicState.parse("D=3,n=10,mu=0,0")
        angular = oracle.angular_w_exact(3, (0, 0), 5)
        expected = {
            "position": oracle.radial_position_w_exact(state, 5) * angular,
            "momentum": oracle.radial_momentum_w_exact(state, 5) * angular,
        }
        records = json.loads(out)
        assert [r["space"] for r in records] == ["position", "momentum"]
        for record in records:
            assert parse_scalar(record["w"]) == expected[record["space"]]

    def test_cap_below_computed_work_exits_three(self, capsys, monkeypatch):
        # The position sum has 2q = 10 identical axes of bound k = 9, with
        # terms (-9)_j / ((2)_j j!); Miller's power takes k(k+1)/2 +
        # (2q-1)k^2 products on coefficients of at most 10 times the bits of
        # the sum of the terms' absolute values, over their common
        # denominator.  The nested sum then takes 4 operations on each of its
        # 2qk + 1 steps, on those bits plus 3 for each of the 2qk factors 5 of
        # g's denominator (x = 1/q).  The angular part is a single term and
        # the prefactors stay far below.
        k, r = 9, 10
        terms = [
            pochhammer(-k, j) / (pochhammer(2, j) * math.factorial(j)) for j in range(k + 1)
        ]
        den = math.lcm(*(t.denominator for t in terms))
        bits = r * int(sum(abs(t) * den for t in terms)).bit_length()
        work = (k * (k + 1) // 2 + (r - 1) * k * k) * bits + 4 * (r * k + 1) * (bits + 3 * r * k)
        argv = ("compute", "D=3,n=10,mu=0,0", "--q", "5", "--space", "position")
        monkeypatch.setattr(hyperfun, "WORK_CAP", work - 1)
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err == f"error: the closed forms need {work} units of work, cap is {work - 1}\n"
        monkeypatch.setattr(hyperfun, "WORK_CAP", work)
        code, _, _ = run(capsys, *argv)
        assert code == 0

    def test_divergent_momentum_order_exits_two(self, capsys):
        # l = 3 in D = 3: the momentum density decays as p^-14, so the
        # entropy is infinite for q <= 3/14
        code, out, err = run(
            capsys,
            "compute",
            "D=3,n=6,mu=3,2",
            "--q",
            "1/5",
            "--float",
            "--space",
            "momentum",
        )
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1
        assert "diverges for q <= 3/14" in err and "Traceback" not in err

    def test_float_path_at_high_degree(self, capsys):
        # L_11^(1) has eleven breakpoints; the exact entropy is the reference
        code, out, _ = run(
            capsys, "compute", "D=3,n=12,mu=0,0", "--q", "5", "--float", "--space", "position"
        )
        assert code == 0
        record = json.loads(out)[0]
        state = HydrogenicState.parse("D=3,n=12,mu=0,0")
        exact = entropy.position_entropy(state, 5).total.value
        assert abs(record["entropy"] - exact) <= record["error"] + 1e-12 * abs(exact)

    def test_quadrature_miss_exits_four(self, capsys, monkeypatch):
        def shaky_quad(f, points, rule=None):
            return 1.0, 1e-3

        monkeypatch.setattr("hydrenyi.oracle._quad", shaky_quad)
        code, out, err = run(
            capsys, "compute", "D=3,n=2,mu=1,0", "--q", "3/2", "--float", "--space", "position"
        )
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert "relative error" in err and "Traceback" not in err

    def test_node_search_past_its_sweep_cap_exits_four(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "_QL_SWEEPS", 0)
        code, out, err = run(
            capsys, "compute", "D=3,n=4,mu=0,0", "--q", "3/2", "--float", "--space", "momentum"
        )
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert "node search" in err and "Traceback" not in err

    def test_quadrature_miss_names_whose_error_it_is(self, capsys):
        # at q = 1e100 the closed-form integrals of this k = 0 state are
        # known to half an ulp of the entropy times |1 - q|, far past the
        # target, while the entropy's error, theirs over |1 - q|, is an ulp:
        # the message says which number is which
        code, out, err = run(
            capsys, "compute", "D=3,n=2,mu=1,1", "--q", "1e100", "--float", "--space", "position"
        )
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "the integrals' relative error 4.44e+84 misses the quadrature target" in err
        assert "the entropy's error is that over |1 - q|" in err
        assert err.rstrip().endswith("entropy 5.91731860809 +/- 8.88e-16")

    def test_quadrature_miss_without_a_finite_entropy(self, capsys, monkeypatch):
        # at q = 1e306, q l overflows a float in the Gamma-closed angular
        # factor of this k = 1 state, whose radial quadrature is made to
        # miss: the miss is reported without an entropy of inf
        monkeypatch.setattr("hydrenyi.oracle._quad", lambda f, points, rule=None: (1.0, 1e-3))
        code, out, err = run(
            capsys, "compute", "D=3,n=200,mu=198,198", "--q", "1e306", "--float",
            "--space", "position",
        )
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "misses the quadrature target" in err
        assert "inf" not in err and "+/-" not in err

    def test_quasi_spherical_order_past_the_target_has_an_entropy(self, capsys):
        # the closed forms of this k = 0 state need no overflowing q l: the
        # entropy is reported, and only the float's share of ln I,
        # |1 - q| ulp / 2 = 3.55e291, misses the target
        code, out, err = run(
            capsys, "compute", "D=3,n=800,mu=799,799", "--q", "1e306", "--float",
            "--space", "position",
        )
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "the integrals' relative error 3.55e+291 misses the quadrature target" in err
        assert err.rstrip().endswith("entropy 36.4046234028 +/- 7.11e-15")

    def test_zero_integral_exits_four(self, capsys):
        # at p = 2500000.5 every quadrature node misses the radial momentum
        # density's peak of this k = 1 state and the rule answers 0 +/- 0
        code, out, err = run(
            capsys, "compute", "D=3,n=3,mu=1,0", "--q", "2500000.5", "--float",
            "--space", "momentum",
        )
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert "came out zero" in err and "no finite entropy" in err
        assert "Traceback" not in err and "+/-" not in err

    def test_closed_radial_integral_at_a_large_order(self, capsys):
        # the radial integral of this k = 0 state is a Beta function, which
        # no node can miss; its angular quadrature's floor 2^-45 q = 7.1e-8
        # misses the target, and the entropy comes with it
        code, out, err = run(
            capsys, "compute", "D=3,n=2,mu=1,0", "--q", "2500000.5", "--float",
            "--space", "momentum",
        )
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "the integrals' relative error 7.20e-08 misses the quadrature target" in err
        assert err.rstrip().endswith("entropy -1.93863578157 +/- 2.88e-14")

    def test_nan_integral_exits_four(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "hydrenyi.oracle._quad", lambda f, points, rule=None: (math.nan, math.nan)
        )
        code, out, err = run(
            capsys, "compute", "D=3,n=2,mu=1,0", "--q", "3/2", "--float", "--space", "position"
        )
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "not a number" in err and "came out zero" not in err
        assert "Traceback" not in err and "+/-" not in err

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "compute", "D=3,n=1,mu=0,0", "--format", "csv", "--space", "position"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["entropy_exact"] == "ln(8*pi)"


    def test_angular_part_built_once_for_both_spaces(self, capsys, monkeypatch):
        calls = []
        honest = entropy.angular_entropy

        def counted(*args):
            calls.append(args)
            return honest(*args)

        monkeypatch.setattr(entropy, "angular_entropy", counted)
        code, out, _ = run(capsys, "compute", "D=4,n=3,mu=2,1,-1", "--q", "3")
        assert code == 0
        assert calls == [(4, (2, 1, -1), 3)]
        position, momentum = json.loads(out)
        assert position["angular_exact"] == momentum["angular_exact"]
        for record, whole in zip(
            (position, momentum), (entropy.position_entropy, entropy.momentum_entropy)
        ):
            breakdown = whole(HydrogenicState(4, 3, (2, 1, -1)), 3)
            assert record["w"] == breakdown.total.w.render()
            assert record["radial_exact"] == breakdown.radial.exact_str()

    def test_precision_bounds(self, capsys):
        # every exact W renders at one working precision, so --precision has
        # no bounds left: any value is refused as an unknown option
        assert not hasattr(cli, "MIN_PRECISION_BITS")
        assert not hasattr(cli, "MAX_PRECISION_BITS")
        for argv in (("compute", "D=3,n=2,mu=1,0", "--q", "2"), ("table", "position")):
            code, out, _ = run(capsys, *argv)
            assert code == 0 and out
            for bits in ("10", "128", "50000000"):
                code, out, err = run(capsys, *argv, "--precision", bits)
                assert code == 2
                assert out == ""
                assert "--precision" in err

    def test_precision_out_of_bounds_exits_before_any_work(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("compute started work")

        monkeypatch.setattr(entropy, "radial_position_entropy", refuse)
        monkeypatch.setattr(oracle, "renyi_float", refuse)
        for extra in ((), ("--float", "--q", "0.7")):
            for bits in ("50000000", "128", "10"):
                code, out, _ = run(
                    capsys, "compute", "D=3,n=1,mu=0,0", "--precision", bits, *extra
                )
                assert code == 2
                assert out == ""


class TestTable:
    def test_position_cells(self, capsys):
        code, out, _ = run(capsys, "table", "position")
        assert code == 0
        cells = {(r["n"], r["l"], r["m"]): r["entropy_exact"] for r in json.loads(out)}
        assert len(cells) == 10
        assert cells[(3, 2, 0)] == "ln(9216/5*pi)"
        assert cells[(2, 1, 1)] == "ln(1024/3*pi)"

    def test_momentum_cells(self, capsys):
        code, out, _ = run(capsys, "table", "momentum")
        assert code == 0
        cells = {(r["n"], r["l"], r["m"]): r["entropy_exact"] for r in json.loads(out)}
        assert cells[(3, 1, 0)] == "ln(160/36207*pi^2)"
        assert cells[(3, 2, 1)] == cells[(3, 2, 2)] == "ln(560/26163*pi^2)"

    def test_byte_identical_runs(self, capsys):
        _, first, _ = run(capsys, "table", "position")
        _, second, _ = run(capsys, "table", "position")
        assert first == second

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "table", "momentum", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 10


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--dmax", "3", "--nmax", "2")
        assert code == 0
        summary = json.loads(out)["summary"]
        assert summary["all_equal"] is True
        assert summary["states"] == (1 + 3) + (1 + 4)  # D=2 and D=3, n <= 2
        assert summary["verdicts"] == summary["states"] * 2

    def test_includes_low_dimension_edge(self, capsys):
        code, out, _ = run(capsys, "verify", "--dmax", "2", "--nmax", "3", "--full")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["all_equal"] is True
        assert any(r["state"].startswith("D=2,n=3,mu=-2") for r in payload["reports"])

    def test_perturbation_caught(self, capsys, monkeypatch):
        honest = entropy.rising_product

        def crooked(p, d, k):
            value = honest(p, d, k)
            return value + 1 if k == 2 else value

        monkeypatch.setattr("hydrenyi.entropy.rising_product", crooked)
        code, out, _ = run(capsys, "verify", "--dmax", "3", "--nmax", "2")
        assert code == 1
        payload = json.loads(out)
        assert payload["summary"]["failures"] > 0
        assert payload["failing"]

    def test_term_cap_exits_three(self, capsys, monkeypatch):
        monkeypatch.setattr(hyperfun, "WORK_CAP", 4)
        code, _, err = run(capsys, "verify", "--dmax", "3", "--nmax", "3")
        assert code == 3
        assert "cap" in err

    def test_paper_grid_reports_every_state(self, capsys):
        code, out, _ = run(capsys, "verify", "--dmax", "5", "--nmax", "4")
        assert code == 0
        summary = json.loads(out)["summary"]
        assert (summary["states"], summary["verdicts"]) == (173, 346)

    def test_oversized_sweep_exits_three_before_any_work(self, capsys, monkeypatch):
        # about 4 million states at --dmax 12 --nmax 12
        def refuse(state, q):
            raise AssertionError("verify started work")

        monkeypatch.setattr(oracle, "verify_state", refuse)
        for argv in (
            ("--dmax", "12", "--nmax", "12"),
            ("--dmax", "1000000000", "--nmax", "1"),
        ):
            code, out, err = run(capsys, "verify", *argv)
            assert code == 3
            assert out == ""
            assert err.count("\n") == 1 and str(cli.MAX_VERIFY_VERDICTS) in err

    def test_empty_order_list_exits_two_before_any_work(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("verify started work")

        monkeypatch.setattr(cli, "count_states", refuse)
        monkeypatch.setattr(cli, "enumerate_states", refuse)
        for qset in ("", ","):
            code, out, err = run(
                capsys, "verify", "--qset", qset, "--dmax", "1000000000", "--nmax", "1"
            )
            assert code == 2
            assert out == ""
            assert err.count("\n") == 1 and "--qset" in err

    def test_no_shells_is_an_empty_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--dmax", "1000000000", "--nmax", "0")
        assert code == 0
        assert json.loads(out)["summary"]["states"] == 0


def _refused_by_work(err: str) -> bool:
    return err.startswith("error: the closed forms need ") and err.endswith(
        f" units of work, cap is {hyperfun.WORK_CAP}\n"
    )


def _refused_by_digits(err: str) -> bool:
    return err.startswith("error: the exact W of ") and err.endswith(
        f" has more than {sys.get_int_max_str_digits()} digits\n"
    )


@contextlib.contextmanager
def digit_limit(digits: int):
    """Python's limit on integer strings set to digits, 0 for none."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


class TestDigitCap:
    def test_large_orders_exit_three_at_once(self, capsys):
        # q = 1000 forms a W of more than 4,300 digits, which is not written;
        # past it the work cap refuses before the W is formed
        for q, refused in (("1000", _refused_by_digits), ("10000", _refused_by_work),
                           ("1e400", _refused_by_work)):
            started = time.perf_counter()
            code, out, err = run(capsys, "compute", "D=3,n=2,mu=1,0", "--q", q)
            assert time.perf_counter() - started < 5  # q = 10000 ran past 60 s
            assert code == 3
            assert out == ""
            assert err.count("\n") == 1 and refused(err)

    @pytest.mark.parametrize(
        "argv",
        [
            ("--q", "1e400"),
            ("--q", "1" * 4300),
            ("--q", "2", f"n={'2' * 4300},mu={'1' * 4300},0"),
        ],
    )
    def test_huge_numbers_are_refused_before_any_big_integer(self, capsys, monkeypatch, argv):
        def refuse(*args):
            raise AssertionError("big-integer work started")

        monkeypatch.setattr(entropy._ExactLedger, "_times", refuse)
        monkeypatch.setattr(entropy, "rising_product", refuse)
        literal = "D=3," + (argv[2] if len(argv) > 2 else "n=2,mu=1,0")
        started = time.perf_counter()
        code, out, err = run(capsys, "compute", literal, *argv[:2])
        assert time.perf_counter() - started < 0.5
        assert (code, out) == (3, "")
        assert err.count("\n") == 1 and _refused_by_work(err) and len(err) <= 200

    def test_order_300_still_answers(self, capsys):
        state = HydrogenicState(3, 2, (1, 0), 1)
        code, out, _ = run(capsys, "compute", state.literal(), "--q", "300")
        assert code == 0
        records = json.loads(out)
        angular = entropy.angular_entropy(3, (1, 0), 300)
        for record, radial in zip(
            records,
            (
                entropy.radial_position_entropy(state, 300),
                entropy.radial_momentum_entropy(state, 300),
            ),
        ):
            assert parse_scalar(record["w"]) == (radial + angular).w

    def test_state_once_refused_by_the_digit_bound_answers(self, capsys):
        # the bound read 4,329 digits; the W have 1,983 (position) and 545
        code, out, _ = run(capsys, "compute", "D=3,n=4,mu=0,0", "--q", "141")
        assert code == 0
        state = HydrogenicState(3, 4, (0, 0))
        angular = oracle.angular_w_exact(3, (0, 0), 141)
        expected = {
            "position": oracle.radial_position_w_exact(state, 141) * angular,
            "momentum": oracle.radial_momentum_w_exact(state, 141) * angular,
        }
        records = json.loads(out)
        assert [r["space"] for r in records] == ["position", "momentum"]
        for record in records:
            assert parse_scalar(record["w"]) == expected[record["space"]]

    def test_one_space_is_bounded_alone(self, capsys):
        # the momentum W stays shorter than the position one here
        code, _, _ = run(capsys, "compute", "D=3,n=2,mu=1,0", "--q", "800", "--space", "momentum")
        assert code == 0
        code, out, err = run(capsys, "compute", "D=3,n=2,mu=1,0", "--q", "800")
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and _refused_by_digits(err)

    def test_w_past_the_limit_writes_nothing(self, capsys):
        # at the least limit, 640 digits: the angular W of this state has 12
        # digits, the radial one 1,547
        with digit_limit(640):
            code, out, err = run(
                capsys, "compute", "D=3,n=30,mu=0,0", "--q", "20", "--space", "position"
            )
        assert (code, out) == (3, "")
        assert err == (
            "error: the exact W of D=3,n=30,mu=0,0,Z=1 at q=20 has more than 640 digits\n"
        )

    def test_no_digit_limit_writes_every_w(self, capsys):
        # at a limit of 0 only the work cap bounds W: the position one has a
        # denominator of 6,565 digits
        with digit_limit(0):
            code, out, _ = run(capsys, "compute", "D=3,n=2,mu=1,0", "--q", "1000")
            assert code == 0
            state = HydrogenicState(3, 2, (1, 0), 1)
            w = parse_scalar(json.loads(out)[0]["w"])
            assert w == entropy.position_entropy(state, 1000).total.w

    @pytest.mark.parametrize(
        "literal, q",
        [
            ("D=3,n=1,mu=0,0,Z=1e1500", "2"),
            ("D=3,n=2,mu=1,0", "1" * 4300),
            (f"D=3,n={'2' * 4300},mu={'1' * 4300},0,Z=1/{'7' * 4300}", "2"),
            ("D=60,n=9," + "mu=" + ",".join(["8"] * 59), "300"),
        ],
    )
    def test_refusal_is_one_short_line(self, capsys, literal, q):
        # the message once held the state literal, Z written out in full;
        # the long orders and numbers are refused by the work cap, Z = 1e1500
        # by the digits of its W
        code, out, err = run(capsys, "compute", literal, "--q", q)
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and err.endswith("\n")
        assert len(err.encode()) <= 200
        assert _refused_by_work(err) or _refused_by_digits(err)

    def test_verify_order_list_is_bounded(self, capsys):
        code, out, err = run(capsys, "verify", "--qset", "2,10000", "--dmax", "3", "--nmax", "2")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and _refused_by_work(err)

    def test_verify_checks_only_the_w_it_writes(self, capsys):
        # the reports of --full hold W of up to 842 digits and cannot be
        # written at 640, while a passing sweep without them writes no W
        argv = ("verify", "--dmax", "2", "--nmax", "2", "--qset", "200")
        with digit_limit(640):
            code, out, _ = run(capsys, *argv)
            assert code == 0 and json.loads(out)["summary"]["all_equal"]
            code, out, err = run(capsys, *argv, "--full")
            assert (code, out) == (3, "")
            assert err.count("\n") == 1 and _refused_by_digits(err)

    def test_failing_reports_are_checked(self, capsys, monkeypatch):
        honest = entropy.rising_product

        def crooked(p, d, k):
            value = honest(p, d, k)
            return value + 1 if k == 2 else value

        monkeypatch.setattr("hydrenyi.entropy.rising_product", crooked)
        argv = ("verify", "--dmax", "3", "--nmax", "2", "--qset", "2,200")
        with digit_limit(640):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, "")
            assert err.count("\n") == 1 and _refused_by_digits(err)


class TestSum:
    def test_ground_satisfied(self, capsys):
        code, out, _ = run(capsys, "sum", "D=3,n=1,mu=0,0", "--q", "2")
        assert code == 0
        record = json.loads(out)
        assert record["satisfied"] is True
        assert record["margin"] > 0
        assert record["p"] == "2/3"

    def test_margin_per_dimension_shrinks(self, capsys):
        code, out3, _ = run(capsys, "sum", "D=3,n=1,mu=0,0", "--q", "2")
        assert code == 0
        code, out40, _ = run(
            capsys, "sum", "D=40,n=1,mu=" + ",".join(["0"] * 39), "--q", "2"
        )
        assert code == 0
        low = json.loads(out3)
        high = json.loads(out40)
        assert high["margin"] / 40 < low["margin"] / 3

    def test_zero_integral_on_the_conjugate_side_exits_four(self, capsys):
        # q = 0.5000001 has the conjugate p = 2500000.5, where the radial
        # momentum quadrature of this k = 1 state comes out zero
        code, out, err = run(capsys, "sum", "D=3,n=3,mu=1,0", "--q", "0.5000001")
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert "came out zero" in err and "no finite entropy" in err
        assert "Traceback" not in err and "+/-" not in err

    def test_closed_form_on_the_conjugate_side_misses_the_target(self, capsys):
        # at k = 0 the momentum side at p = 2500000.5 is a closed form; the
        # angular quadrature's floor misses the target there
        code, out, err = run(capsys, "sum", "D=3,n=2,mu=1,0", "--q", "0.5000001")
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "the integrals' relative error 7.20e-08 misses the quadrature target" in err
        assert err.rstrip().endswith("entropy -1.93863578157 +/- 2.88e-14")

    def test_half_order_exits_two(self, capsys):
        code, _, err = run(capsys, "sum", "D=3,n=1,mu=0,0", "--q", "1/2")
        assert code == 2
        assert "1/2" in err

    def test_large_exact_orders_exit_three_at_once(self, capsys):
        # the exact side is bounded by the work cap alone, since sum writes
        # no W: position at q, momentum at p = q / (2q - 1); q = 10000 ran
        # past 30 s before any cap
        for q in ("10000", "100000", "1e400", "5000/9999"):
            started = time.perf_counter()
            code, out, err = run(capsys, "sum", "D=3,n=2,mu=1,0", "--q", q)
            assert time.perf_counter() - started < 5
            assert code == 3
            assert out == ""
            assert err.count("\n") == 1 and _refused_by_work(err)

    def test_exact_side_past_the_digit_limit_answers(self, capsys):
        # the position W at q = 1000 has more than 4,300 digits, but sum
        # writes only floats
        code, out, _ = run(capsys, "sum", "D=3,n=2,mu=1,0", "--q", "1000")
        assert code == 0
        assert json.loads(out)["satisfied"] is True

    @pytest.mark.parametrize("q", ["0.7", "2"])
    def test_charge_leaves_the_output_unchanged(self, capsys, q):
        # both sides are taken at Z = 1: at Z = 1e400 the float sides once
        # cancelled -D ln Z against +D ln Z to only 3e-13, and at Z = 1e2000
        # the digit cap counted the W at that charge, which is never built
        def without_state(out):
            return [line for line in out.splitlines() if '"state"' not in line]

        _, base, _ = run(capsys, "sum", GROUND_LITERAL, "--q", q)
        for Z in ("7/3", "1e400", "1e-400", "1e2000"):
            code, out, _ = run(capsys, "sum", f"{GROUND_LITERAL},Z={Z}", "--q", q)
            assert code == 0
            assert without_state(out) == without_state(base)

    def test_order_300_still_answers(self, capsys):
        state = HydrogenicState(3, 2, (1, 0), 1)
        code, out, _ = run(capsys, "sum", state.literal(), "--q", "300")
        assert code == 0
        record = json.loads(out)
        assert record["p"] == "300/599"
        assert record["sum"] == entropy.uncertainty_sum(state, 300).total


GROUND_LITERAL = "D=3,n=1,mu=0,0"
HUGE_N_LITERAL = f"D=3,n={10**21},mu=0,0"
# the float path at charges far from 1 ended in wrong values, exit 4, exit 2
# with messages about max() or the math domain, or an OverflowError traceback
CHARGES = [
    "2/3", "1e60", "1e-60", "1e300", "1e-300", "1e320", "1e-320", "1e400", "1e-400", "1e4000"
]
SWEEP = (
    [
        (("compute", f"{GROUND_LITERAL},Z={Z}", "--q", "0.7", "--float"), cli.EXIT_OK)
        for Z in CHARGES
    ]
    + [(("sum", f"{GROUND_LITERAL},Z={Z}", "--q", "0.7"), cli.EXIT_OK) for Z in CHARGES]
    + [
        (("compute", GROUND_LITERAL, "--q", "nan"), cli.EXIT_USAGE),
        (("compute", GROUND_LITERAL, "--q", "inf"), cli.EXIT_USAGE),
        (("compute", GROUND_LITERAL, "--q", "nan", "--float"), cli.EXIT_USAGE),
        (("compute", GROUND_LITERAL, "--q", "inf", "--float"), cli.EXIT_USAGE),
        (("sum", GROUND_LITERAL, "--q", "nan"), cli.EXIT_USAGE),
        (("compute", GROUND_LITERAL, "--q", "1e-400", "--float"), cli.EXIT_USAGE),
        (("compute", GROUND_LITERAL, "--q", "1e400", "--float"), cli.EXIT_USAGE),
        (("verify", "--qset", "2,x"), cli.EXIT_USAGE),
        (("compute", "D=1,n=1,mu=0"), cli.EXIT_USAGE),
        (("sum", "D=1,n=1,mu=0"), cli.EXIT_USAGE),
        (("compute", "D=1,n=1"), cli.EXIT_USAGE),
        (("compute", f"{GROUND_LITERAL},Z=1e5000", "--q", "0.7", "--float"), cli.EXIT_USAGE),
        (("sum", f"{GROUND_LITERAL},Z=1e-5000", "--q", "0.7"), cli.EXIT_USAGE),
        # n past the float path's cap once ended in an OverflowError from a
        # factorial, and large valid n ran for minutes
        (("compute", HUGE_N_LITERAL, "--q", "0.7", "--float"), cli.EXIT_RESOURCE),
        (("sum", HUGE_N_LITERAL, "--q", "0.7"), cli.EXIT_RESOURCE),
    ]
    + [
        ((command, literal, "--q", "2"), cli.EXIT_USAGE)
        for command in ("compute", "sum")
        for literal in (
            f"D={'3' * 4301},n=1,mu=0,0",
            f"D=3,n={'1' * 4301},mu=0,0",
            f"D=3,n=2,mu=1,{'0' * 4301}",
            f"{GROUND_LITERAL},Z={'1' * 4301}",
        )
    ]
    # each number in a message is shortened: these messages once held it in
    # full, 4,357 bytes for the first, or gave Python's message on its limit
    # for integer strings
    + [
        (argv, cli.EXIT_USAGE)
        for argv in (
            ("compute", f"D=3,n=1,mu={'1' * 4300},0"),
            ("compute", f"D={'1' * 4300},n=1,mu=0,0"),
            ("compute", f"D=-{'1' * 4300},n=1,mu=0"),
            ("compute", f"D=3,n=-{'1' * 4300},mu=0,0"),
            ("compute", f"D=4,n=1,mu=0,{'1' * 4300},0"),
            ("compute", f"D=3,n=1,mu=0,-{'1' * 4300}"),
            ("compute", f"{GROUND_LITERAL},Z=-1e5000"),
            ("sum", f"{GROUND_LITERAL},Z=-1e5000"),
            ("compute", GROUND_LITERAL, "--q=-1e5000"),
            ("compute", GROUND_LITERAL, "--q", "1" * 4301),
            ("compute", GROUND_LITERAL, "--q", "x" * 5000),
            ("compute", GROUND_LITERAL, "--q", "1e-5000"),
            ("sum", GROUND_LITERAL, "--q", "1e-5000"),
            ("verify", "--qset", f"2,{'1' * 4301}"),
        )
    ]
)


@pytest.mark.slow
@pytest.mark.parametrize(
    "literal, space", [("D=3,n=760,mu=330,0", "momentum"), ("D=3,n=800,mu=799,280", "position")]
)
def test_gegenbauer_factor_past_the_float_range_answers(capsys, monkeypatch, literal, space):
    # the radial momentum factor C_429^(331) and the angular C_519^(280.5)
    # both peak above e^709; their recurrences once reached inf - inf, and
    # each input exited 4 with "came out zero"
    code, out, err = run(capsys, "compute", literal, "--q", "0.7", "--float", "--space", space)
    assert code == cli.EXIT_OK, err
    state = HydrogenicState.parse(literal)
    # the exact reference takes about 4 to 5 times the work cap (some 6 s)
    monkeypatch.setattr(hyperfun, "WORK_CAP", 10 * hyperfun.WORK_CAP)
    exact = {"position": entropy.position_entropy, "momentum": entropy.momentum_entropy}[space]
    expected = exact(state, 2).total.value
    result = oracle.renyi_float(state, 2, space)
    assert abs(result.value - expected) <= oracle.QUADRATURE_REL_TARGET * abs(expected)


def _sweep_id(argv) -> str:
    return " ".join(a if len(a) <= 40 else f"{a[:16]}...({len(a)} chars)" for a in argv)


@pytest.mark.parametrize("argv, expected", SWEEP, ids=[_sweep_id(argv) for argv, _ in SWEEP])
def test_every_input_answers_or_fails_in_one_line(capsys, argv, expected):
    # an exception escaping main is what prints a traceback
    code, out, err = run(capsys, *argv)
    assert code == expected
    if code == cli.EXIT_OK:
        assert out and err == ""
    else:
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert len(err.encode()) <= 200 and "Exceeds the limit" not in err


@pytest.mark.parametrize("command", ["compute", "sum"])
def test_charge_past_the_digit_limit_names_the_charge(capsys, command):
    # Python turns an integer of more than 4,300 digits into a string only
    # past sys.set_int_max_str_digits, which the message once told users to call
    float_flag = ["--float"] if command == "compute" else []
    code, _, err = run(capsys, command, f"{GROUND_LITERAL},Z=1e5000", "--q", "0.7", *float_flag)
    assert code == cli.EXIT_USAGE
    assert err.startswith("error: the charge Z may have at most 4300 digits")
    assert "set_int_max_str_digits" not in err


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_reader_closing_the_pipe_early_ends_by_sigpipe():
    # verify --full writes about 390 KB, more than a pipe holds, so the
    # writer is still writing when the reader goes
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    with subprocess.Popen(
        [sys.executable, "-m", "hydrenyi", "verify", "--full"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as proc:
        assert proc.stdout.read(50)
        proc.stdout.close()
        proc.wait(timeout=120)
        err = proc.stderr.read()
    assert proc.returncode == -signal.SIGPIPE
    assert b"Traceback" not in err


# One request of each command; sum at q = 2 takes the exact closed form for
# position and the float path for momentum, at p = 2/3.
COMMANDS = {
    "compute": ["compute", "D=3,n=2,mu=1,0", "--q", "3"],
    "compute-float": ["compute", "D=3,n=2,mu=1,0", "--q", "0.7", "--float"],
    "sum": ["sum", "D=3,n=2,mu=1,0", "--q", "2"],
    "table": ["table", "momentum"],
    "verify": ["verify", "--dmax", "3", "--nmax", "2"],
}


def _run_in_fresh_interpreter(prelude: str, argv: list[str]) -> subprocess.CompletedProcess:
    """The CLI on argv in a new interpreter that first runs prelude."""
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    script = f"import sys; {prelude}; from hydrenyi import cli; code = cli.main(sys.argv[1:]); "
    script += "print('mpmath' in sys.modules, file=sys.stderr); sys.exit(code)"
    return subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_no_command_loads_mpmath(argv):
    done = _run_in_fresh_interpreter("pass", argv)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)
    assert done.stderr.splitlines()[-1] == "False"


@pytest.mark.parametrize("argv", COMMANDS.values(), ids=COMMANDS.keys())
def test_every_command_runs_without_mpmath(argv):
    # a None entry makes every import of mpmath raise ImportError
    done = _run_in_fresh_interpreter("sys.modules['mpmath'] = None", argv)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)


class TestUsage:
    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
