"""Terminating multivariate hypergeometric sums over exact rationals.

Two families are needed: the Lauricella function of type A and the
Srivastava-Daoust function with one coupled numerator/denominator parameter
pair.  All in-scope instances terminate because every per-axis numerator
parameter is a nonpositive integer, so the nominally infinite series is a
finite box sum.  ``kernels`` evaluates it as one univariate polynomial
product; ``multi_index_sum`` walks a box term by term and serves as the
brute-force reference in tests.
"""

from __future__ import annotations

import itertools
import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from hydrenyi import kernels
from hydrenyi.exactnum import RationalLike

TERM_CAP_ENV = "HYDRENYI_TERM_CAP"
DEFAULT_TERM_CAP = 10**8
_ONE = Fraction(1)


class HypergeometricSpecError(ValueError):
    """Raised for non-terminating axes or parameter poles."""


class TermBudgetExceeded(RuntimeError):
    """Raised when a sum would exceed the term cap.  The hypergeometric sums
    count coefficient products; multi_index_sum counts box terms."""

    def __init__(self, term_count: int, cap: int, unit: str = "coefficient products"):
        super().__init__(f"sum needs {term_count} {unit}, cap is {cap}")
        self.term_count = term_count
        self.cap = cap


def active_term_cap() -> int:
    raw = os.environ.get(TERM_CAP_ENV)
    if raw is None:
        return DEFAULT_TERM_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{TERM_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{TERM_CAP_ENV} must be positive, got {cap}")
    return cap


def _as_fractions(values: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def _termination_bound(b: Fraction, axis: int) -> int:
    if b.denominator != 1 or b > 0:
        raise HypergeometricSpecError(
            f"axis {axis}: parameter {b} is not a nonpositive integer, sum does not terminate"
        )
    return -b.numerator


def _check_no_pole(param: Fraction, bound: int, role: str, axis: str) -> None:
    # (param)_j hits zero iff param is an integer in [-(bound-1), 0]
    if bound > 0 and param.denominator == 1 and -(bound - 1) <= param.numerator <= 0:
        raise HypergeometricSpecError(
            f"{role} parameter {param} at {axis} hits a pole within the summation range"
        )


def _grouped_axes(
    params: Sequence[tuple[tuple[Fraction, ...], tuple[Fraction, ...], Fraction]],
    bounds: Sequence[int],
) -> list[kernels.Axis]:
    """Identical axes merged into one with a multiplicity, first-seen order;
    the cap is checked on the work before any of it is done."""
    counts = Counter((*axis, bound) for axis, bound in zip(params, bounds))
    axes = [(*axis, mult) for axis, mult in counts.items()]
    count = kernels.coupled_sum_products([(bound, mult) for *_, bound, mult in axes])
    cap = active_term_cap()
    if count > cap:
        raise TermBudgetExceeded(count, cap)
    return axes


@dataclass(frozen=True)
class LauricellaSpec:
    """Parameter pack for a terminating type-A Lauricella sum."""

    a: Fraction
    b: tuple[Fraction, ...]
    c: tuple[Fraction, ...]
    x: tuple[Fraction, ...]

    def __init__(
        self,
        a: RationalLike,
        b: Iterable[RationalLike],
        c: Iterable[RationalLike],
        x: Iterable[RationalLike],
    ):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", _as_fractions(b))
        object.__setattr__(self, "c", _as_fractions(c))
        object.__setattr__(self, "x", _as_fractions(x))

    def bounds(self) -> list[int]:
        if not (len(self.b) == len(self.c) == len(self.x)) or len(self.b) < 1:
            raise HypergeometricSpecError("b, c, x must have equal length >= 1")
        bounds = [_termination_bound(bi, i) for i, bi in enumerate(self.b)]
        for i, (ci, bound) in enumerate(zip(self.c, bounds)):
            _check_no_pole(ci, bound, "c", f"axis {i}")
        return bounds


@dataclass(frozen=True)
class SrivastavaDaoustSpec:
    """Parameter pack for the Srivastava-Daoust sum used here: one coupled
    (a0)/(d0) pair across axes, per-axis (b, c) numerator and e denominator."""

    a0: Fraction
    pairs: tuple[tuple[Fraction, Fraction], ...]
    d0: Fraction
    e: tuple[Fraction, ...]
    x: tuple[Fraction, ...]

    def __init__(
        self,
        a0: RationalLike,
        pairs: Iterable[tuple[RationalLike, RationalLike]],
        d0: RationalLike,
        e: Iterable[RationalLike],
        x: Iterable[RationalLike],
    ):
        object.__setattr__(self, "a0", Fraction(a0))
        object.__setattr__(
            self, "pairs", tuple((Fraction(b), Fraction(c)) for b, c in pairs)
        )
        object.__setattr__(self, "d0", Fraction(d0))
        object.__setattr__(self, "e", _as_fractions(e))
        object.__setattr__(self, "x", _as_fractions(x))

    def bounds(self) -> list[int]:
        if not (len(self.pairs) == len(self.e) == len(self.x)) or len(self.pairs) < 1:
            raise HypergeometricSpecError("pairs, e, x must have equal length >= 1")
        bounds = [_termination_bound(b, i) for i, (b, _) in enumerate(self.pairs)]
        for i, (ei, bound) in enumerate(zip(self.e, bounds)):
            _check_no_pole(ei, bound, "e", f"axis {i}")
        _check_no_pole(self.d0, sum(bounds), "d0", "the coupled index")
        return bounds


def lauricella_fa(spec: LauricellaSpec) -> Fraction:
    """Exact value of the terminating Lauricella type-A sum."""
    axes = _grouped_axes(
        [((b,), (c, _ONE), x) for b, c, x in zip(spec.b, spec.c, spec.x)],
        spec.bounds(),
    )
    return Fraction(*kernels.coupled_sum((spec.a,), (), axes))


def srivastava_daoust(spec: SrivastavaDaoustSpec) -> Fraction:
    """Exact value of the terminating Srivastava-Daoust sum."""
    axes = _grouped_axes(
        [((b, c), (e, _ONE), x) for (b, c), e, x in zip(spec.pairs, spec.e, spec.x)],
        spec.bounds(),
    )
    return Fraction(*kernels.coupled_sum((spec.a0,), (spec.d0,), axes))


def multi_index_sum(
    bounds: Sequence[int],
    term: Callable[[tuple[int, ...]], Fraction],
    cap: int | None = None,
) -> Fraction:
    """Exact sum of term(j) over the multi-index box prod [0, bounds[i]].

    Iterates in lexicographic order; the result is order-independent because
    the arithmetic is exact.  The empty box has exactly one point.
    """
    count = math.prod(bound + 1 for bound in bounds)
    limit = cap if cap is not None else active_term_cap()
    if count > limit:
        raise TermBudgetExceeded(count, limit, "box terms")
    acc = Fraction(0)
    for idx in itertools.product(*(range(bound + 1) for bound in bounds)):
        acc += term(idx)
    return acc
