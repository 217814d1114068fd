"""Set-up probe: a fresh interpreter imports the library from the checkout,
completes the workload's fixed first operation and prints the monotonic
clock, which is shared with the parent process, and the CPU time this
process has used since it started.

Run by ``run.py`` as ``python3 perfbench/first_op.py <src-dir> <workload>``.
"""

import sys
import time


def main() -> int:
    src, name = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src)
    import workloads

    workload = workloads.WORKLOADS[name]
    failure, _ = workload.run(workload.prepare(workload.setup_input))
    if failure is not None:
        print(f"first operation failed: {failure}", file=sys.stderr)
        return 1
    print(repr(time.monotonic()), repr(time.process_time()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
