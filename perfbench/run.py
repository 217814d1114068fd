"""The repository benchmark: one closed-loop caller drives the library in
this process, checks every output, and prints the metrics of one workload.

    python3 perfbench/run.py --workload exact_heavy --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it times whole passes over the workload's inputs and
prints the end-to-end metrics, taken from each input's median cost in units
of the reference loop of ``speed.py``; the report line also gives the
wall-clock figures.  With ``--trace 1`` it alternates untraced passes with
passes under the per-layer wrappers of ``tracing.py`` and prints the
per-layer metrics, each per pass of the input list, plus the tracing
overhead, all by the wall clock.  The last line of standard
output is the result object; the line before it is a report with the
environment stamp, the input hash and the failures by kind.  Exit code 1
means an output was wrong; exit code 2 means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 11
KNOWN_FAILURES = ("TermBudgetExceeded", "NoConvergence", "QuadratureError")

_clock = time.perf_counter

# Every span whose self time is reported, and whether its calls are too.
SPAN_METRICS = (
    ("closed.radial_position.sum", True),
    ("closed.radial_momentum.sum", True),
    ("closed.angular.sum", True),
    ("closed.prefactor", True),
    ("entropy.assemble", False),
    ("log_float", True),
    ("states.validate", True),
    ("oracle.poly_pow", True),
    ("oracle.moments", False),
    ("oracle.compare", False),
    ("float.roots", True),
    ("float.quad", True),
    ("cli", False),
    ("oracle.verify_state", False),
    ("oracle.renyi_float", False),
)


@dataclass
class Phase:
    """Outcomes of whole passes over the input list.

    ``best`` holds each input's fastest wall time over the passes and
    ``costs`` each input's times in reference-loop units, when measured.
    The end-to-end metrics take each input's median cost: dividing by the
    loop's time at that moment removes the machine's changing speed, and the
    median drops the first pass, in which mpmath fills its caches.
    """

    size: int
    passes: int = 0
    elapsed: float = 0.0
    answered: int = 0
    best: list[float] = field(init=False)
    costs: list[list[float]] = field(init=False)
    failures: Counter = field(default_factory=Counter)
    seen: Counter = field(default_factory=Counter)

    def __post_init__(self):
        self.best = [math.inf] * self.size
        self.costs = [[] for _ in range(self.size)]

    @property
    def attempted(self) -> int:
        return self.passes * self.size

    def ops_per_s(self) -> float:
        """Answered operations per second of a pass at the best times."""
        return self.answered / self.passes / sum(self.best)

    def median_costs_s(self) -> list[float]:
        """Each input's median cost, in seconds at the nominal loop time."""
        return [statistics.median(c) * speed.NOMINAL_LOOP_S for c in self.costs]


def wall_time(call, args):
    """Time ``call(args)`` by the wall clock alone; the same result tuple as
    ``speed.Meter.time``, without a cost in loop units."""
    started = _clock()
    try:
        failure, output = call(args)
    except Exception as exc:  # noqa: BLE001 - a failed request, not a crash
        failure, output = type(exc).__name__, None
    return _clock() - started, None, failure, output


def run_pass(workload, prepared, call, phase: Phase, timer=wall_time) -> None:
    """One pass over the inputs in a closed loop: the next operation starts
    when the previous one ends."""
    started = _clock()
    for index, args in enumerate(prepared):
        wall, cost, failure, output = timer(call, args)
        phase.best[index] = min(phase.best[index], wall)
        if cost is not None:
            phase.costs[index].append(cost)
        if failure is None:
            phase.answered += 1
            phase.seen[index, workload.digest(output)] += 1
        else:
            phase.failures[failure] += 1
    phase.passes += 1
    phase.elapsed += _clock() - started


def run_timed(workload, prepared, seconds: float) -> Phase:
    """Whole untraced passes, each operation timed by ``speed.Meter``, until
    both ``seconds`` and the workload's minimum number of passes are
    reached."""
    phase = Phase(len(prepared))
    with speed.Meter() as meter:
        while phase.passes < workload.min_passes or phase.elapsed < seconds:
            run_pass(workload, prepared, workload.run, phase, meter.time)
    return phase


def run_traced(workload, prepared, seconds: float, tracer):
    """Untraced and traced passes alternate, so that drift in the machine's
    speed falls on both sides of the overhead comparison alike."""
    untraced, traced = Phase(len(prepared)), Phase(len(prepared))
    call = tracer.span(workload.root_span, workload.run)
    while untraced.elapsed + traced.elapsed < seconds or not traced.passes:
        run_pass(workload, prepared, workload.run, untraced)
        with tracer:
            run_pass(workload, prepared, call, traced)
    return untraced, traced


def count_wrong(workload, inputs, phase: Phase, verdicts: dict) -> int:
    """Operations whose output differs from the reference; run after timing.
    ``verdicts`` caches the check of each distinct output across phases."""
    wrong = 0
    for (index, digest), n in phase.seen.items():
        key = index, digest
        if key not in verdicts:
            try:
                verdicts[key] = workload.check(inputs[index], digest)
            except Exception as exc:  # noqa: BLE001 - unreadable output is wrong
                print(f"check of {inputs[index]} raised {exc!r}", file=sys.stderr)
                verdicts[key] = False
            if not verdicts[key]:
                print(f"wrong output for {inputs[index]}: {digest!r}", file=sys.stderr)
        if not verdicts[key]:
            wrong += n
    return wrong


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def setup_times(name: str) -> tuple[list[float], list[float]]:
    """Fresh interpreter to first completed operation, SETUP_REPEATS times
    after one discarded start that fills the bytecode cache.  Returns the
    wall times and the probe's CPU times in seconds at the nominal loop
    time, from the reference loop run just before and after each start."""
    probe = [sys.executable, str(HERE / "first_op.py"), str(SRC), name]
    walls, costs = [], []
    for repeat in range(SETUP_REPEATS + 1):
        before = speed.loop_time()
        started = time.monotonic()
        done = subprocess.run(
            probe, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
        )
        finished, used = map(float, done.stdout.split()[-2:])
        loop = (before + speed.loop_time()) / 2
        if repeat:
            walls.append(finished - started)
            costs.append(used / loop * speed.NOMINAL_LOOP_S)
    return walls, costs


def _git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment_stamp() -> dict:
    import mpmath
    from hydrenyi import kernels

    digest = hashlib.sha256()
    for path in sorted((SRC / "hydrenyi").rglob("*")):
        if path.suffix in (".py", ".pyx", ".so") and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    stamp = {
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "python_implementation": platform.python_implementation(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "kernels_backend": kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
    }
    # Results are comparable only between equal ids: a compiled kernel or
    # gmpy2 changes the numbers.
    comparable = {k: stamp[k] for k in stamp if k not in ("commit", "src_sha256")}
    stamp["stamp_id"] = hashlib.sha256(
        json.dumps(comparable, sort_keys=True).encode()
    ).hexdigest()[:16]
    return stamp


def end_to_end(workload, phase: Phase, setup: list[float], rss_mb: float) -> dict:
    costs = phase.median_costs_s()
    ms = [t * 1000 for t in costs]
    return {
        "ops_per_s": (phase.answered / phase.passes / sum(costs), "1/s"),
        "latency_p50_ms": (percentile(ms, 50), "ms"),
        "latency_tail_ms": (percentile(ms, workload.tail_pct), "ms"),
        "success_rate": (phase.answered / phase.attempted, "frac"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def wall_figures(workload, phase: Phase) -> dict:
    """The wall-clock counterparts of the timing metrics, from each input's
    fastest time, for the report line."""
    ms = [t * 1000 for t in phase.best]
    return {
        "ops_per_s": phase.ops_per_s(),
        "latency_p50_ms": percentile(ms, 50),
        "latency_tail_ms": percentile(ms, workload.tail_pct),
    }


def per_layer(tracer, traced: Phase, untraced: Phase, wrong: int) -> dict:
    per_pass = traced.passes
    metrics = {}
    for name, with_calls in SPAN_METRICS:
        if with_calls:
            metrics[f"{name}.calls"] = (tracer.calls[name] / per_pass, "count")
        metrics[f"{name}.self_s"] = (tracer.self_s[name] / per_pass, "s")
    for kind in KNOWN_FAILURES:
        metrics[f"failed.{kind}"] = (traced.failures[kind] / per_pass, "count")
    other = sum(n for k, n in traced.failures.items() if k not in KNOWN_FAILURES)
    counts, maxima = tracer.counts, tracer.maxima
    terms = counts["hyperfun.box_terms"]
    attempted = counts["float.renyi.attempted"]
    metrics.update(
        {
            "failed.other": (other / per_pass, "count"),
            "failed.wrong": (wrong / per_pass, "count"),
            "ops.error_rate": (
                (traced.attempted - traced.answered + wrong) / traced.attempted,
                "frac",
            ),
            "hyperfun.box_terms": (terms / per_pass, "computed_terms"),
            "hyperfun.ns_per_term": (
                counts["hyperfun.seconds"] * 1e9 / terms if terms else 0.0,
                "ns",
            ),
            "hyperfun.refused": (counts["hyperfun.refused"] / per_pass, "count"),
            "hyperfun.result_bits_max": (maxima["hyperfun.result_bits_max"], "bits"),
            "exactnum.w_bits_max": (maxima["exactnum.w_bits_max"], "bits"),
            "states.validate.calls_per_op": (
                tracer.calls["states.validate"] / traced.attempted,
                "count",
            ),
            "oracle.poly_pow.out_degree_sum": (
                counts["oracle.poly_pow.out_degree_sum"] / per_pass,
                "count",
            ),
            "float.roots.failed": (counts["float.roots.failed"] / per_pass, "count"),
            "float.quad.evals": (counts["float.quad.evals"] / per_pass, "count"),
            "float.quad.rel_err_max": (maxima["float.quad.rel_err_max"], "rel"),
            "float.quad.useful_frac": (
                counts["float.renyi.returned"] / attempted if attempted else 0.0,
                "frac",
            ),
            "trace.ops_per_s_delta": (
                traced.ops_per_s() - untraced.ops_per_s(),
                "1/s",
            ),
            "trace.overhead_frac": (
                1 - traced.ops_per_s() / untraced.ops_per_s(),
                "frac",
            ),
        }
    )
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hydrenyi" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    stamp = environment_stamp()
    # The reference loop must run on the CPU that runs the operations and
    # the set-up probes: each CPU of a shared host changes speed on its own.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    inputs_sha256 = hashlib.sha256(json.dumps(inputs).encode()).hexdigest()
    prepared = [workload.prepare(inp) for inp in inputs]
    setup_walls, setup = ([], []) if args.trace else setup_times(workload.name)

    workload.run(workload.prepare(workload.setup_input))

    if args.trace:
        tracer = tracing.Tracer()
        untraced, traced = run_traced(workload, prepared, args.seconds, tracer)
        phases = [untraced, traced]
    else:
        timed = run_timed(workload, prepared, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        phases = [timed]

    verdicts: dict = {}
    wrongs = [count_wrong(workload, inputs, p, verdicts) for p in phases]
    wrong = sum(wrongs)
    if args.trace:
        metrics = per_layer(tracer, traced, untraced, wrongs[1])
    else:
        metrics = end_to_end(workload, timed, setup, rss_mb)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.attempted - p.answered for p in phases) + wrong
    failures = Counter()
    for p in phases:
        failures.update(p.failures)
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "stamp": stamp,
        "inputs_sha256": inputs_sha256,
        "inputs_per_pass": len(inputs),
        "passes": [p.passes for p in phases],
        "elapsed_s": [p.elapsed for p in phases],
        "failures": dict(sorted(failures.items())) | {"wrong": wrong},
        "latency_tail_pct": workload.tail_pct,
        "latency_samples": len(inputs),
        "setup_samples_s": setup,
        "setup_wall_samples_s": setup_walls,
        "cpu": cpu,
        "nominal_loop_s": speed.NOMINAL_LOOP_S,
        "wall": wall_figures(workload, phases[0]),
    }
    print(json.dumps({"report": report}, sort_keys=True))
    result = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
