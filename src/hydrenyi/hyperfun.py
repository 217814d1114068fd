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

# The most coefficient products one sum may take, counted before any work.
TERM_CAP = 10**8
_ONE = Fraction(1)


class HypergeometricSpecError(ValueError):
    """Raised for non-terminating axes or parameter poles."""


class TermBudgetExceeded(RuntimeError):
    """Raised when a sum would need more coefficient products than the cap."""

    def __init__(self, term_count: int, cap: int):
        super().__init__(f"sum needs {term_count} coefficient products, cap is {cap}")
        self.term_count = term_count
        self.cap = cap


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


def _check_cap(bound: int, mult: int) -> None:
    """Refuse the sum before any work when the products it needs pass the cap."""
    count = kernels.coupled_sum_products(bound, mult)
    if count > TERM_CAP:
        raise TermBudgetExceeded(count, TERM_CAP)


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
    bound = spec.bound()
    _check_cap(bound, spec.mult)
    return Fraction(
        *kernels.coupled_sum(
            (spec.a,), (), (spec.b,), (spec.c, _ONE), spec.x, bound, spec.mult
        )
    )


def srivastava_daoust(spec: SrivastavaDaoustSpec) -> Fraction:
    """Exact value of the terminating Srivastava-Daoust sum."""
    bound = spec.bound()
    _check_cap(bound, spec.mult)
    return Fraction(
        *kernels.coupled_sum(
            (spec.a0,), (spec.d0,), (spec.b, spec.c), (spec.e, _ONE), spec.x, bound, spec.mult
        )
    )
