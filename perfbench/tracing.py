"""Per-layer tracing by wrapping library functions where callers look them up.

Nothing under ``src/`` is changed: ``install`` replaces module attributes
(for example ``entropy.lauricella_fa`` or ``mpmath.quad``) with timing
wrappers and ``uninstall`` puts the original objects back.  Stage names
follow ROADMAP item 1 so that an in-program trace can later report under the
same names.

A span's self time is its duration minus the durations of the spans it
directly encloses.  Counters are computed from arguments and results, so for
the same inputs they repeat exactly.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from fractions import Fraction

import mpmath
from mpmath.libmp import NoConvergence

from hydrenyi import cli, entropy, oracle, states
from hydrenyi.exactnum import ExactScalar
from hydrenyi.hyperfun import TermBudgetExceeded

_clock = time.perf_counter


def _fraction_bits(value: Fraction) -> int:
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _w_bits(result) -> int:
    """Largest numerator/denominator bit length of an exact entropy argument."""
    if isinstance(result, entropy.RenyiBreakdown):
        result = result.total
    if isinstance(result, entropy.EntropyValue):
        result = result.w
    if isinstance(result, ExactScalar):
        return max((_fraction_bits(r) for _, r in result.terms()), default=0)
    return 0


class Tracer:
    """Span self times, call counts and work counters for one traced phase."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self._children: list[float] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _close(self, name: str, started: float) -> None:
        duration = _clock() - started
        self.self_s[name] += duration - self._children.pop()
        self.calls[name] += 1
        if self._children:
            self._children[-1] += duration

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; after(args, result) may record counters."""

        def traced(*args, **kwargs):
            self._children.append(0.0)
            started = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, started)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def bump(self, name: str, amount: float = 1) -> None:
        self.counts[name] += amount

    def peak(self, name: str, value: float) -> None:
        if value > self.maxima[name]:
            self.maxima[name] = value

    # -- layer hooks ---------------------------------------------------------

    def _hyperfun(self, fn):
        """Box-sum counters; not a span, so the enclosing closed.*.sum span
        keeps the summation time as its self time."""

        def counted(spec):
            terms = math.prod(bound + 1 for bound in spec.bounds())
            started = _clock()
            try:
                result = fn(spec)
            except TermBudgetExceeded:
                self.bump("hyperfun.refused")
                raise
            self.bump("hyperfun.seconds", _clock() - started)
            self.bump("hyperfun.box_terms", terms)
            self.peak("hyperfun.result_bits_max", _fraction_bits(result))
            return result

        counted.__wrapped__ = fn
        return counted

    def _w_hook(self, args, result) -> None:
        self.peak("exactnum.w_bits_max", _w_bits(result))

    def _poly_pow_hook(self, args, result) -> None:
        self.bump("oracle.poly_pow.out_degree_sum", result.degree)

    def _returns(self, name: str, fn):
        """Count calls and the calls that returned, without a span."""

        def counted(*args, **kwargs):
            self.bump(f"{name}.attempted")
            result = fn(*args, **kwargs)
            self.bump(f"{name}.returned")
            return result

        counted.__wrapped__ = fn
        return counted

    def _roots(self, fn):
        def roots(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except NoConvergence:
                self.bump("float.roots.failed")
                raise

        return self.span("float.roots", roots)

    def _quad(self, fn):
        def quad(f, *args, **kwargs):
            def integrand(*x):
                self.counts["float.quad.evals"] += 1
                return f(*x)

            value, err = fn(integrand, *args, **kwargs)
            if value:
                self.peak("float.quad.rel_err_max", float(abs(err / value)))
            return value, err

        return self.span("float.quad", quad)

    # -- installation --------------------------------------------------------

    def _replace(self, module, attr: str, wrapper) -> None:
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        plan = [
            (entropy, "radial_lauricella_factor", "closed.radial_position.sum", None),
            (entropy, "momentum_daoust_factor", "closed.radial_momentum.sum", None),
            (entropy, "angular_daoust_factor", "closed.angular.sum", None),
            (entropy, "gamma_exact", "closed.prefactor", None),
            (entropy, "pochhammer", "closed.prefactor", None),
            (entropy, "angular_pochhammer_factor", "closed.prefactor", None),
            (entropy, "position_entropy", "entropy.assemble", self._w_hook),
            (entropy, "momentum_entropy", "entropy.assemble", self._w_hook),
            (entropy, "radial_position_entropy", "entropy.assemble", self._w_hook),
            (entropy, "radial_momentum_entropy", "entropy.assemble", self._w_hook),
            (entropy, "angular_entropy", "entropy.assemble", self._w_hook),
            (entropy, "log_float", "log_float", None),
            (states, "validate", "states.validate", None),
            (entropy, "validate", "states.validate", None),
            (oracle, "validate", "states.validate", None),
            (cli, "validate", "states.validate", None),
            (oracle, "poly_pow", "oracle.poly_pow", self._poly_pow_hook),
            (oracle, "radial_position_w_exact", "oracle.moments", self._w_hook),
            (oracle, "angular_w_exact", "oracle.moments", self._w_hook),
            (oracle, "radial_momentum_w_exact", "oracle.moments", self._w_hook),
            (oracle, "_compare", "oracle.compare", None),
        ]
        for module, attr, name, after in plan:
            self._replace(module, attr, self.span(name, getattr(module, attr), after))
        for attr in ("lauricella_fa", "srivastava_daoust"):
            self._replace(entropy, attr, self._hyperfun(getattr(entropy, attr)))
        renyi = self._returns("float.renyi", oracle.renyi_float)
        self._replace(oracle, "renyi_float", renyi)
        self._replace(mpmath, "polyroots", self._roots(mpmath.polyroots))
        self._replace(mpmath, "quad", self._quad(mpmath.quad))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
