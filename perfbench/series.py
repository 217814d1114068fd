"""Repeat the benchmark over seeds and summarise the spread of each metric.

    python3 perfbench/series.py --workload exact_heavy --seeds 1-10 --out runs.jsonl
    python3 perfbench/series.py --summarize runs.jsonl [--against parent.jsonl]

Each run appends its report and result to the JSONL file.  The summary gives,
per workload and end-to-end metric, the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and their distance as a
share of the median next to the metric's bound from BENCHMARK.json.  With
``--against`` it also shows the change of each median against another file
and flags results whose environment stamps differ, since a compiled kernel
or gmpy2 changes the numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_series(spec, workloads, seeds, trace: int, out: Path) -> None:
    with out.open("a") as sink:
        for workload in workloads:
            for seed in seeds:
                argv = spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
                ]
                done = subprocess.run(
                    argv, cwd=ROOT, capture_output=True, text=True, timeout=900
                )
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or len(lines) < 2:
                    sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n"
                             + done.stderr)
                report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
                sink.write(json.dumps({"report": report, "result": result}) + "\n")
                sink.flush()
                print(f"{workload} seed {seed}: {result['metrics']}", file=sys.stderr)


def load(path: Path) -> dict:
    """workload -> metric -> values, plus workload -> set of stamp ids."""
    values: dict = defaultdict(lambda: defaultdict(list))
    stamps: dict = defaultdict(set)
    for line in path.read_text().splitlines():
        row = json.loads(line)
        workload = row["report"]["workload"]
        stamps[workload].add(row["report"]["stamp"]["stamp_id"])
        for name, metric in row["result"]["metrics"].items():
            values[workload][name].append(metric["value"])
    return {"values": values, "stamps": stamps}


def summarize(spec, path: Path, against: Path | None) -> bool:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    data = load(path)
    base = load(against) if against else None
    steady = True
    for workload, metrics in data["values"].items():
        print(f"{workload}  (stamps {sorted(data['stamps'][workload])})")
        before = base["values"].get(workload, {}) if base else {}
        if before and base["stamps"][workload] != data["stamps"][workload]:
            print("  WARNING: environment stamps differ; medians are not comparable")
        for name, values in metrics.items():
            median = statistics.median(values)
            line = f"  {name:<44} n={len(values):<3} median={median:<14.6g}"
            if len(values) >= 2 and median:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / abs(median)
                line += f" q1={q1:<12.6g} q3={q3:<12.6g} spread={spread:.4f}"
                if name in bounds:
                    bound = bounds[name]["bound"]
                    ok = name == "setup_s" or spread < bound / 3
                    steady &= ok
                    line += f" bound={bound} {'ok' if ok else 'WIDE'}"
            if before.get(name) and statistics.median(before[name]):
                old = statistics.median(before[name])
                line += f" change={(median - old) / abs(old):+.4f}"
            print(line)
    return steady


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--summarize", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    path = args.summarize or args.out
    if path is None:
        parser.error("give --out to run, or --summarize to read")
    if args.out:
        names = args.workload or [w["name"] for w in spec["workloads"]]
        run_series(spec, names, _seeds(args.seeds), args.trace, args.out)
    return 0 if summarize(spec, path, args.against) else 1


if __name__ == "__main__":
    sys.exit(main())
