"""Terminating multivariate hypergeometric sums over exact rationals.

Two families are needed: the Lauricella function of type A and the
Srivastava-Daoust function with one coupled numerator/denominator parameter
pair.  All in-scope instances terminate because every per-axis numerator
parameter is a nonpositive integer, so the nominally infinite series is a
finite box sum.  Every sum here linearizes a power of one polynomial, so a
spec holds one set of identical axes and their multiplicity, and
``kernels`` evaluates it as one univariate polynomial power.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from hydrenyi import kernels
from hydrenyi.exactnum import RationalLike, exact_rational
from hydrenyi.states import brief

# The most work one step of the closed forms may take, counted before the
# step: kernels.coupled_sum_work for a sum, and the square of the 32-bit
# words that the factors of a W reach for their product (entropy._ExactLedger).
# It is the largest such work, rounded up, over the states that the former
# bound on the digits of W let through (README, section "CLI").
WORK_CAP = 1_200_000_000
_ONE = Fraction(1)


class HypergeometricSpecError(ValueError):
    """Raised for non-terminating axes or parameter poles."""


class TermBudgetExceeded(RuntimeError):
    """Raised when a step of the closed forms would need more work than the
    cap."""

    def __init__(self, work: int, cap: int):
        super().__init__(f"the closed forms need {brief(work)} units of work, cap is {cap}")
        self.work = work
        self.cap = cap


def check_work(work: int) -> None:
    """Refuse a step before it starts when its work passes WORK_CAP."""
    if work > WORK_CAP:
        raise TermBudgetExceeded(work, WORK_CAP)


def _termination_bound(b: Fraction, mult: int) -> int:
    if mult < 1:
        raise HypergeometricSpecError(f"multiplicity {mult} is below 1")
    if b.denominator != 1 or b > 0:
        raise HypergeometricSpecError(
            f"parameter {b} is not a nonpositive integer, sum does not terminate"
        )
    return -b.numerator


def _check_no_pole(param: Fraction, bound: int, role: str) -> None:
    # (param)_j hits zero iff param is an integer in [-(bound-1), 0]
    if bound > 0 and param.denominator == 1 and -(bound - 1) <= param.numerator <= 0:
        raise HypergeometricSpecError(
            f"{role} parameter {param} hits a pole within the summation range"
        )


def _hold_exact(spec, names: tuple[str, ...]) -> None:
    """Hold the named parameters of a spec as Fractions."""
    for name in names:
        object.__setattr__(spec, name, exact_rational(getattr(spec, name)))


@dataclass(frozen=True)
class LauricellaSpec:
    """Parameter pack for a terminating type-A Lauricella sum with ``mult``
    identical axes, each with parameters b, c and argument x."""

    a: RationalLike
    b: RationalLike
    c: RationalLike
    x: RationalLike
    mult: int

    def __post_init__(self):
        _hold_exact(self, ("a", "b", "c", "x"))

    def bound(self) -> int:
        """Termination bound of every axis, after the pole check."""
        bound = _termination_bound(self.b, self.mult)
        _check_no_pole(self.c, bound, "c")
        return bound

    def bounds(self) -> list[int]:
        """Termination bound of each axis."""
        return [self.bound()] * self.mult


@dataclass(frozen=True)
class SrivastavaDaoustSpec:
    """Parameter pack for the Srivastava-Daoust sum used here: one coupled
    (a0)/(d0) pair across ``mult`` identical axes, each with numerator
    parameters (b, c), denominator parameter e and argument x."""

    a0: RationalLike
    d0: RationalLike
    b: RationalLike
    c: RationalLike
    e: RationalLike
    x: RationalLike
    mult: int

    def __post_init__(self):
        _hold_exact(self, ("a0", "d0", "b", "c", "e", "x"))

    def bound(self) -> int:
        """Termination bound of every axis, after the pole checks."""
        bound = _termination_bound(self.b, self.mult)
        _check_no_pole(self.e, bound, "e")
        _check_no_pole(self.d0, bound * self.mult, "d0")
        return bound

    def bounds(self) -> list[int]:
        """Termination bound of each axis."""
        return [self.bound()] * self.mult


def lauricella_fa(spec: LauricellaSpec) -> Fraction:
    """Exact value of the terminating Lauricella type-A sum."""
    return Fraction(
        *kernels.coupled_sum(
            (spec.a,), (), (spec.b,), (spec.c, _ONE), spec.x, spec.bound(), spec.mult,
            check_work,
        )
    )


def srivastava_daoust(spec: SrivastavaDaoustSpec) -> Fraction:
    """Exact value of the terminating Srivastava-Daoust sum."""
    return Fraction(
        *kernels.coupled_sum(
            (spec.a0,), (spec.d0,), (spec.b, spec.c), (spec.e, _ONE), spec.x, spec.bound(),
            spec.mult, check_work,
        )
    )
