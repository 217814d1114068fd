"""Operation costs in units of a fixed reference loop, measured on the same
CPU around and during each operation.

On a shared host a CPU's speed changes in steps, often several times a
second, because other machines' work competes for the same cores and
caches: the same operation then takes up to twice as long, at times for
minutes.  Wall times, and even the fastest of several repeats, carry that
change into every metric.  The reference loop below slows down in the same
steps, so an operation's time divided by the loop's time at that moment
cancels most of it.

Both are measured in this thread's CPU time, so time in which the process
waits for the CPU behind another process counts for neither.  The library is
single-threaded and does no I/O in an operation, so on an idle machine its
CPU time is its wall time.

``Meter.time`` runs the loop before and after each operation and, while the
operation runs, every ``TICK_S`` seconds from a ``SIGALRM`` handler.  Each
stretch of the operation between two loop runs is divided by the mean of
those two loop times; the sum is the operation's cost in loop units.  The
loop's own time is taken out of the operation's time.

``NOMINAL_LOOP_S`` turns loop units back into seconds: a cost in seconds
reads as the operation's time on a machine where the loop takes that long.
It is about the loop's median time on the machine the benchmark was
defined on (see README.md).
"""

from __future__ import annotations

import signal
import time

TICK_S = 0.02
NOMINAL_LOOP_S = 3.0e-4

_cpu = time.thread_time
_wall = time.perf_counter
_MODULUS = (1 << 127) - 1
_FACTOR = (1 << 200) + 1


def reference_loop() -> int:
    """Fixed big- and small-integer arithmetic, like the library's inner
    loops.  It allocates no containers, so it never starts the garbage
    collector, and it calls nothing outside the interpreter."""
    acc = 1
    for k in range(1, 480):
        acc = (acc * _FACTOR + k) % _MODULUS
        acc ^= k << 3
    return acc


def loop_time() -> float:
    """CPU seconds of one run of the reference loop."""
    started = _cpu()
    reference_loop()
    return _cpu() - started


class Meter:
    """Times operations in reference-loop units; use as a context manager,
    which installs and removes the ``SIGALRM`` handler."""

    def __init__(self):
        self._armed = False
        # (CPU time at start, CPU seconds, wall seconds) of each loop run.
        self._marks: list[tuple[float, float, float]] = []
        self._previous_handler = None
        self.last_loop = loop_time()

    def _tick(self, signum, frame) -> None:
        if self._armed:
            wall, started = _wall(), _cpu()
            reference_loop()
            self._marks.append((started, _cpu() - started, _wall() - wall))

    def __enter__(self):
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        return self

    def __exit__(self, *exc) -> None:
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)

    def time(self, call, args):
        """Run ``call(args)``; return (wall seconds without the loop runs,
        cost in loop units, failure kind or None, output)."""
        before, marks = self.last_loop, self._marks
        marks.clear()
        output = None
        wall, start = _wall(), _cpu()
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            failure, output = call(args)
        except Exception as exc:  # noqa: BLE001 - a failed request, not a crash
            failure = type(exc).__name__
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._armed = False
            end, wall = _cpu(), _wall() - wall
        after = self.last_loop = loop_time()
        units, mark, loop = 0.0, start, before
        for started, took, took_wall in marks:
            units += (started - mark) / ((loop + took) / 2)
            mark, loop = started + took, took
            wall -= took_wall
        units += (end - mark) / ((loop + after) / 2)
        return wall, units, failure, output
