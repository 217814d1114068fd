import csv
import io
import json
import time

from hydrenyi import cli, entropy, oracle
from hydrenyi.exactnum import parse_scalar
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
        # Both radial sums have 2q = 10 identical axes of degree k = 9:
        # Miller's power costs k(k+1)/2 + (2q-1)k^2 products, the final sum
        # 2qk + 1; the angular part is a single term.
        k, r = 9, 10
        work = k * (k + 1) // 2 + (r - 1) * k * k + r * k + 1
        argv = ("compute", "D=3,n=10,mu=0,0", "--q", "5", "--space", "position")
        monkeypatch.setenv("HYDRENYI_TERM_CAP", str(work - 1))
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert f"needs {work} coefficient products, cap is {work - 1}" in err
        monkeypatch.setenv("HYDRENYI_TERM_CAP", str(work))
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
        import mpmath

        def shaky_quad(f, points, rule=None):
            return mpmath.mpf(1), mpmath.mpf("1e-3")

        monkeypatch.setattr("hydrenyi.oracle._quad", shaky_quad)
        code, out, err = run(
            capsys, "compute", "D=3,n=2,mu=1,0", "--q", "3/2", "--float", "--space", "position"
        )
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert "relative error" in err and "Traceback" not in err

    def test_zero_integral_exits_four(self, capsys):
        # at p = 2500000.5 every quadrature node misses the radial momentum
        # density's peak and the rule answers 0 +/- 0
        code, out, err = run(
            capsys, "compute", "D=3,n=2,mu=1,0", "--q", "2500000.5", "--float",
            "--space", "momentum",
        )
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert "came out zero" in err and "no finite entropy" in err
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
        low, high = cli.MIN_PRECISION_BITS, cli.MAX_PRECISION_BITS
        for argv in (("compute", "D=3,n=2,mu=1,0", "--q", "2"), ("table", "position")):
            for bits in (low, high):
                code, out, _ = run(capsys, *argv, "--precision", str(bits))
                assert code == 0 and out
            for bits, bound in ((low - 1, low), (high + 1, high)):
                code, out, err = run(capsys, *argv, "--precision", str(bits))
                assert code == 2
                assert out == ""
                assert err.count("\n") == 1 and str(bound) in err

    def test_precision_out_of_bounds_exits_before_any_work(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("compute started work")

        monkeypatch.setattr(entropy, "radial_position_entropy", refuse)
        monkeypatch.setattr(oracle, "renyi_float", refuse)
        for extra in ((), ("--float", "--q", "0.7")):
            for bits in ("50000000", "10"):
                code, _, _ = run(
                    capsys, "compute", "D=3,n=1,mu=0,0", "--precision", bits, *extra
                )
                assert code == 2


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
        monkeypatch.setenv("HYDRENYI_TERM_CAP", "4")
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


class TestDigitCap:
    def test_large_orders_exit_three_at_once(self, capsys):
        for q in ("1000", "10000", "1e400"):
            started = time.perf_counter()
            code, out, err = run(capsys, "compute", "D=3,n=2,mu=1,0", "--q", q)
            assert time.perf_counter() - started < 5  # q = 10000 ran past 60 s
            assert code == 3
            assert out == ""
            assert err.count("\n") == 1 and str(cli.MAX_W_DIGITS) in err

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

    def test_one_space_is_bounded_alone(self, capsys):
        # the momentum W stays shorter than the position one here
        code, _, _ = run(capsys, "compute", "D=3,n=2,mu=1,0", "--q", "700", "--space", "momentum")
        assert code == 0
        code, _, err = run(capsys, "compute", "D=3,n=2,mu=1,0", "--q", "700")
        assert code == 3 and err.count("\n") == 1

    def test_verify_order_list_is_bounded(self, capsys):
        code, out, err = run(capsys, "verify", "--qset", "2,1000", "--dmax", "3", "--nmax", "2")
        assert code == 3
        assert out == ""
        assert err.count("\n") == 1 and str(cli.MAX_W_DIGITS) in err


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
        # momentum integral comes out zero
        code, out, err = run(capsys, "sum", "D=3,n=2,mu=1,0", "--q", "0.5000001")
        assert code == 4
        assert out == ""
        assert err.count("\n") == 1
        assert "came out zero" in err and "no finite entropy" in err
        assert "Traceback" not in err and "+/-" not in err

    def test_half_order_exits_two(self, capsys):
        code, _, err = run(capsys, "sum", "D=3,n=1,mu=0,0", "--q", "1/2")
        assert code == 2
        assert "1/2" in err

    def test_large_exact_orders_exit_three_at_once(self, capsys):
        # the exact side is bounded like compute: position at q, momentum at
        # p = q / (2q - 1); q = 10000 ran past 30 s
        for q in ("1000", "10000", "1e400", "5000/9999"):
            started = time.perf_counter()
            code, out, err = run(capsys, "sum", "D=3,n=2,mu=1,0", "--q", q)
            assert time.perf_counter() - started < 5
            assert code == 3
            assert out == ""
            assert err.count("\n") == 1 and str(cli.MAX_W_DIGITS) in err

    def test_order_300_still_answers(self, capsys):
        state = HydrogenicState(3, 2, (1, 0), 1)
        code, out, _ = run(capsys, "sum", state.literal(), "--q", "300")
        assert code == 0
        record = json.loads(out)
        assert record["p"] == "300/599"
        assert record["sum"] == entropy.uncertainty_sum(state, 300).total


class TestUsage:
    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
