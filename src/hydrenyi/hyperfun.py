"""Terminating multivariate hypergeometric sums over exact rationals.

Two families are needed: the Lauricella function of type A and the
Srivastava-Daoust function with one coupled numerator/denominator parameter
pair.  All in-scope instances terminate because every per-axis numerator
parameter is a nonpositive integer, so the nominally infinite series is a
finite box sum.  A spec lists its axes in groups of identical axes, each
with its multiplicity: the sums here linearize a power of one polynomial,
so their callers know the multiplicity and hand it over.  ``kernels``
evaluates the sum as one univariate polynomial product, raising each
group's polynomial to its multiplicity; ``multi_index_sum`` walks a box
term by term and serves as the brute-force reference in tests.
"""

from __future__ import annotations

import itertools
import math
import os
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


def _termination_bound(b: Fraction, mult: int, group: int) -> int:
    if mult < 1:
        raise HypergeometricSpecError(f"group {group}: multiplicity {mult} is below 1")
    if b.denominator != 1 or b > 0:
        raise HypergeometricSpecError(
            f"group {group}: parameter {b} is not a nonpositive integer, sum does not terminate"
        )
    return -b.numerator


def _check_no_pole(param: Fraction, bound: int, role: str, where: str) -> None:
    # (param)_j hits zero iff param is an integer in [-(bound-1), 0]
    if bound > 0 and param.denominator == 1 and -(bound - 1) <= param.numerator <= 0:
        raise HypergeometricSpecError(
            f"{role} parameter {param} at {where} hits a pole within the summation range"
        )


def _check_nonempty(groups: tuple) -> None:
    if not groups:
        raise HypergeometricSpecError("a sum needs at least one group of axes")


def _per_axis(groups: tuple, bounds: list[int]) -> list[int]:
    """Group bounds repeated by each group's multiplicity, its last entry."""
    return [bound for group, bound in zip(groups, bounds) for _ in range(group[-1])]


def _axes_within_cap(axes: list[kernels.Axis]) -> list[kernels.Axis]:
    """The kernel's axis groups, once the cap is checked on the work they
    need, before any of it is done."""
    count = kernels.coupled_sum_products([(bound, mult) for *_, bound, mult in axes])
    cap = active_term_cap()
    if count > cap:
        raise TermBudgetExceeded(count, cap)
    return axes


@dataclass(frozen=True)
class LauricellaSpec:
    """Parameter pack for a terminating type-A Lauricella sum.

    ``groups`` holds (b, c, x, multiplicity): one group stands for
    ``multiplicity`` identical axes with parameters b, c and argument x.
    """

    a: Fraction
    groups: tuple[tuple[Fraction, Fraction, Fraction, int], ...]

    def __init__(
        self,
        a: RationalLike,
        groups: Iterable[tuple[RationalLike, RationalLike, RationalLike, int]],
    ):
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(
            self,
            "groups",
            tuple((Fraction(b), Fraction(c), Fraction(x), mult) for b, c, x, mult in groups),
        )

    def group_bounds(self) -> list[int]:
        """Termination bound of each group, after the pole checks."""
        _check_nonempty(self.groups)
        bounds = []
        for i, (b, c, _, mult) in enumerate(self.groups):
            bound = _termination_bound(b, mult, i)
            _check_no_pole(c, bound, "c", f"group {i}")
            bounds.append(bound)
        return bounds

    def bounds(self) -> list[int]:
        """Termination bound of each axis."""
        return _per_axis(self.groups, self.group_bounds())


@dataclass(frozen=True)
class SrivastavaDaoustSpec:
    """Parameter pack for the Srivastava-Daoust sum used here: one coupled
    (a0)/(d0) pair across axes, per-axis (b, c) numerator and e denominator.

    ``groups`` holds (b, c, e, x, multiplicity): one group stands for
    ``multiplicity`` identical axes.
    """

    a0: Fraction
    d0: Fraction
    groups: tuple[tuple[Fraction, Fraction, Fraction, Fraction, int], ...]

    def __init__(
        self,
        a0: RationalLike,
        d0: RationalLike,
        groups: Iterable[
            tuple[RationalLike, RationalLike, RationalLike, RationalLike, int]
        ],
    ):
        object.__setattr__(self, "a0", Fraction(a0))
        object.__setattr__(self, "d0", Fraction(d0))
        object.__setattr__(
            self,
            "groups",
            tuple(
                (Fraction(b), Fraction(c), Fraction(e), Fraction(x), mult)
                for b, c, e, x, mult in groups
            ),
        )

    def group_bounds(self) -> list[int]:
        """Termination bound of each group, after the pole checks."""
        _check_nonempty(self.groups)
        bounds, coupled = [], 0
        for i, (b, _, e, _, mult) in enumerate(self.groups):
            bound = _termination_bound(b, mult, i)
            _check_no_pole(e, bound, "e", f"group {i}")
            bounds.append(bound)
            coupled += bound * mult
        _check_no_pole(self.d0, coupled, "d0", "the coupled index")
        return bounds

    def bounds(self) -> list[int]:
        """Termination bound of each axis."""
        return _per_axis(self.groups, self.group_bounds())


def lauricella_fa(spec: LauricellaSpec) -> Fraction:
    """Exact value of the terminating Lauricella type-A sum."""
    axes = _axes_within_cap(
        [
            ((b,), (c, _ONE), x, bound, mult)
            for (b, c, x, mult), bound in zip(spec.groups, spec.group_bounds())
        ]
    )
    return Fraction(*kernels.coupled_sum((spec.a,), (), axes))


def srivastava_daoust(spec: SrivastavaDaoustSpec) -> Fraction:
    """Exact value of the terminating Srivastava-Daoust sum."""
    axes = _axes_within_cap(
        [
            ((b, c), (e, _ONE), x, bound, mult)
            for (b, c, e, x, mult), bound in zip(spec.groups, spec.group_bounds())
        ]
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
