"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import mpmath  # noqa: E402
import pytest  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from hydrenyi import cli, entropy, oracle, states  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Cheap inputs of each workload, including ones that fail at the parent
# commit, so that failures pass through the tracer too.
SAMPLES = {
    "exact_heavy": [["D=3,n=4,mu=1,0,Z=2", "2"], ["D=5,n=5,mu=1,0,0,0,Z=1", "3"],
                    ["D=3,n=10,mu=0,0,Z=1", "5"]],
    "verify_sweep": [["D=2,n=3,mu=-2,Z=3", 3], ["D=4,n=4,mu=2,1,-1,Z=1", 2]],
    "float_real_order": [["D=3,n=4,mu=3,-3,Z=1", "0.5", "momentum"],
                         ["D=4,n=7,mu=3,1,1,Z=1", "2", "position"],
                         ["D=3,n=6,mu=3,2,Z=1", "0.2", "momentum"]],
}


def _attributes():
    modules = (cli, entropy, oracle, states, mpmath)
    return {(m.__name__, name): getattr(m, name) for m in modules for name in dir(m)}


def _outcome(workload, inp, call):
    try:
        failure, output = call(workload.prepare(inp))
    except Exception as exc:  # noqa: BLE001 - compare failures by kind
        return type(exc).__name__, None
    return failure, None if failure else workload.digest(output)


def test_wrappers_restore_originals():
    before = _attributes()
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            original = before["hydrenyi.entropy", "lauricella_fa"]
            assert entropy.lauricella_fa is not original
            assert mpmath.quad is not before["mpmath", "quad"]
            1 / 0
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


def test_meter_restores_handler_and_counts_loop_units():
    before = signal.getsignal(signal.SIGALRM)

    def squares(n):
        return None, sum(k * k for k in range(n))

    with speed.Meter() as meter:
        wall, cost, failure, output = meter.time(squares, 300_000)
        _, _, failed, _ = meter.time(lambda _: 1 / 0, None)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert failure is None and output == squares(300_000)[1]
    assert failed == "ZeroDivisionError"
    loop = speed.loop_time()
    assert wall / loop / 10 < cost < wall / loop * 10


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_tracing_changes_no_output(name):
    workload = workloads.WORKLOADS[name]
    plain = [_outcome(workload, inp, workload.run) for inp in SAMPLES[name]]
    tracer = tracing.Tracer()
    with tracer:
        call = tracer.span(workload.root_span, workload.run)
        traced = [_outcome(workload, inp, call) for inp in SAMPLES[name]]
    assert traced == plain
    assert tracer.calls[workload.root_span] == len(SAMPLES[name])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_fixes_inputs_and_keeps_strata(name):
    workload = workloads.WORKLOADS[name]
    first, again, other = workload.inputs(7), workload.inputs(7), workload.inputs(8)
    assert first == again
    assert first != other

    def strata(inputs):
        # Everything but the charge Z.
        out = []
        for inp in inputs:
            state = states.HydrogenicState.parse(inp[0])
            out.append((state.D, state.n, state.canonical_mu(), *inp[1:]))
        return sorted(out)

    assert strata(first) == strata(other)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tail_percentile_keeps_ten_inputs_beyond(name):
    workload = workloads.WORKLOADS[name]
    assert len(workload.inputs(0)) * (100 - workload.tail_pct) >= 10 * 100


def test_checks_reject_wrong_outputs():
    exact = workloads.EXACT_HEAVY
    inp = SAMPLES["exact_heavy"][0]
    failure, text = exact.run(exact.prepare(inp))
    assert failure is None and exact.check(inp, text)
    records = json.loads(text)
    records[1]["w"] = records[1]["w"].replace("*", "1*", 1)
    assert not exact.check(inp, json.dumps(records))

    verify = workloads.VERIFY_SWEEP
    literal, q = SAMPLES["verify_sweep"][0]
    assert verify.check([literal, q], (literal, q, True))
    assert not verify.check([literal, q], (literal, q, False))

    floats = workloads.FLOAT_REAL_ORDER
    for inp in SAMPLES["float_real_order"][:2]:
        value, error = floats.digest(floats.run(floats.prepare(inp))[1])
        assert floats.check(inp, (value, error))
        assert not floats.check(inp, (value + 1e-6, error))


def test_result_lines_match_benchmark_spec():
    expected = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    for trace, names in expected.items():
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "verify_sweep",
             "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170, check=True,
        )
        lines = done.stdout.strip().splitlines()
        report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
        assert report["inputs_sha256"] and report["stamp"]["stamp_id"]
        assert report["stamp"]["nproc"] == len(os.sched_getaffinity(0))
    assert run.percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
