"""Exact scalar arithmetic for entropy arguments.

Every closed-form entropy argument W at integer order, and every
brute-force integral that checks one, is a monomial ``r * pi**(k/2)`` with
rational ``r`` and integer half-exponent ``k``: the powers of pi come from
Gamma values at half-integers, and the Pochhammer symbols and terminating
sums are rational.  Keeping values as such monomials until the final
logarithm makes equality checks structural instead of numeric.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

import mpmath
from mpmath.libmp import (
    from_float,
    from_int,
    from_rational,
    mpf_add,
    mpf_log,
    mpf_mul,
    mpf_pi,
    mpf_shift,
    mpf_sub,
)
from mpmath.libmp import to_float as to_float_raw

RationalLike = Union[int, Fraction]

DEFAULT_PRECISION_BITS = 128

# log_float adds ln r and (k/2) ln pi, which may nearly cancel; these bits
# keep the float it rounds to the nearest of ln W.
_LOG_GUARD_BITS = 20


def exact_rational(value) -> RationalLike:
    """An int or a Fraction unchanged, anything else (a bool too) through
    Fraction, which rejects what is not a rational."""
    return value if type(value) in (int, Fraction) else Fraction(value)


def twice_value(value: RationalLike) -> int:
    """2 * value, for an integer or half-integer value such as a Gamma
    argument."""
    frac = exact_rational(value)
    if frac.denominator not in (1, 2):
        raise ValueError(f"{value} is not an integer or half-integer")
    return frac.numerator * (2 // frac.denominator)


class ExactScalar:
    """The monomial ``coef * pi**(half/2)`` with rational ``coef`` and
    integer ``half``.

    Zero is stored with half = 0, so equality is structural.  Instances are
    immutable values.
    """

    __slots__ = ("_coef", "_half")

    def __init__(self, r: RationalLike = 0):
        self._coef = Fraction(r)
        self._half = 0

    @classmethod
    def from_rational(cls, r: RationalLike) -> "ExactScalar":
        return cls.pi_power(0, r)

    @classmethod
    def pi_power(cls, half: int, coef: RationalLike = 1) -> "ExactScalar":
        """The monomial ``coef * pi**(half/2)``."""
        out = object.__new__(cls)
        out._coef = coef if type(coef) is Fraction else Fraction(coef)
        out._half = half if out._coef else 0
        return out

    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        """((half, coef),), or () for zero."""
        return ((self._half, self._coef),) if self._coef else ()

    def monomial(self) -> tuple[Fraction, int]:
        """Return (coefficient, half-exponent)."""
        return self._coef, self._half

    @property
    def is_positive_monomial(self) -> bool:
        return self._coef > 0

    # -- products -----------------------------------------------------------

    @staticmethod
    def _coerce(other: "ExactScalar | RationalLike") -> "ExactScalar | None":
        if isinstance(other, ExactScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return ExactScalar(other)
        return None

    def __mul__(self, other: "ExactScalar | RationalLike") -> "ExactScalar":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return ExactScalar.pi_power(self._half + rhs._half, self._coef * rhs._coef)

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        if not self._coef:
            raise ZeroDivisionError("inverse of zero")
        return ExactScalar.pi_power(-self._half, 1 / self._coef)

    def __truediv__(self, other: "ExactScalar | RationalLike") -> "ExactScalar":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.inverse()

    def __pow__(self, exponent: int) -> "ExactScalar":
        if not isinstance(exponent, int):
            frac = Fraction(exponent)
            if frac.denominator != 1:
                raise ValueError("scalar powers must have integer exponents")
            exponent = frac.numerator
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return ExactScalar.pi_power(self._half * exponent, self._coef**exponent)

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)  # type: ignore[arg-type]
        if rhs is None:
            return NotImplemented
        return self._coef == rhs._coef and self._half == rhs._half

    def __hash__(self) -> int:
        return hash((self._coef, self._half))

    def __bool__(self) -> bool:
        return bool(self._coef)

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Canonical string: the coefficient, then the power of pi."""
        r, k = self._coef, self._half
        if k == 0:
            return str(r)
        if k % 2:
            pi_part = f"pi^({k}/2)"
        elif k == 2:
            pi_part = "pi"
        elif k > 0:
            pi_part = f"pi^{k // 2}"
        else:
            pi_part = f"pi^({k // 2})"
        if r == 1:
            return pi_part
        if r == -1:
            return f"-{pi_part}"
        return f"{r}*{pi_part}"

    def __repr__(self) -> str:
        return f"ExactScalar({self.render()!r})"


def parse_scalar(text: str) -> ExactScalar:
    """Inverse of :meth:`ExactScalar.render`; a sum of terms is an error."""
    part = text.strip()
    if not part:
        raise ValueError("empty scalar string")
    if " + " in part or " - " in part:
        raise ValueError(f"not a monomial: {text!r}")
    coef = Fraction(1)
    k = 0
    if part.startswith("-") and part[1:].lstrip().startswith("pi"):
        coef = Fraction(-1)
        part = part[1:].lstrip()
    for chunk in part.split("*"):
        chunk = chunk.strip()
        if chunk == "pi":
            k += 2
        elif chunk.startswith("pi^"):
            exp = chunk[3:]
            if exp.startswith("(") and exp.endswith(")"):
                exp = exp[1:-1]
            if exp.endswith("/2"):
                k += int(exp[:-2])
            else:
                k += 2 * int(exp)
        else:
            coef *= Fraction(chunk)
    return ExactScalar.pi_power(k, coef)


def gamma_integers(twice: int) -> tuple[int, int, int]:
    """Gamma(twice/2) at a positive integer or half-integer as integers
    (num, den, half) in lowest terms, Gamma = num/den * pi^(half/2).

    Integer arguments give a factorial; half-integer arguments give
    Gamma(m + 1/2) = (2m-1)!! / 2^m sqrt(pi), whose odd numerator leaves
    the power of two in lowest terms.
    """
    if twice <= 0:
        raise ValueError(f"gamma_exact requires a positive argument, got {Fraction(twice, 2)}")
    if twice % 2 == 0:
        return math.factorial(twice // 2 - 1), 1, 0
    return math.prod(range(1, twice - 1, 2)), 1 << (twice // 2), 1


def gamma_exact(x: RationalLike) -> ExactScalar:
    """Gamma at a positive integer or half-integer argument, from
    gamma_integers."""
    num, den, half = gamma_integers(twice_value(x))
    return ExactScalar.pi_power(half, Fraction(num, den))


def rising_product(p: int, d: int, k: int) -> int:
    """p (p+d) ... (p+(k-1)d), which is d^k times the rising factorial
    (p/d)_k; 1 when k = 0."""
    num = 1
    for i in range(k):
        num *= p + i * d
        if not num:
            return 0
    return num


def pochhammer(z: RationalLike, k: int) -> Fraction:
    """Rising factorial z (z+1) ... (z+k-1); 1 when k = 0.

    With z = p/d this is rising_product(p, d, k) / d^k, one integer product.
    """
    if k < 0:
        raise ValueError("pochhammer order must be nonnegative")
    base = exact_rational(z)
    p, d = base.numerator, base.denominator
    return Fraction(rising_product(p, d, k), d**k)


def to_mpf(a: ExactScalar, precision_bits: int = DEFAULT_PRECISION_BITS) -> mpmath.mpf:
    """Evaluate at the requested binary precision; result keeps its mantissa."""
    if precision_bits < 53:
        raise ValueError("precision must be at least 53 bits")
    r, k = a.monomial()
    with mpmath.workprec(precision_bits):
        value = mpmath.mpf(r.numerator) / mpmath.mpf(r.denominator)
        if k:
            value *= mpmath.pi ** (mpmath.mpf(k) / 2)
    return value


def to_float(a: ExactScalar, precision_bits: int = DEFAULT_PRECISION_BITS) -> float:
    return float(to_mpf(a, precision_bits))


def _log_raw(a: ExactScalar) -> tuple:
    """ln of a positive scalar r * pi^(k/2), as ln r + (k/2) ln pi on
    mpmath's raw values at DEFAULT_PRECISION_BITS plus _LOG_GUARD_BITS."""
    r, k = a.monomial()
    if r <= 0:
        raise ValueError(f"log of non-positive scalar {a.render()}")
    wp = DEFAULT_PRECISION_BITS + _LOG_GUARD_BITS
    value = mpf_log(from_rational(r.numerator, r.denominator, wp, "n"), wp, "n")
    if k:
        half_ln_pi = mpf_shift(mpf_log(mpf_pi(wp), wp, "n"), -1)
        value = mpf_add(value, mpf_mul(from_int(k), half_ln_pi, wp, "n"), wp, "n")
    return value


def log_float(a: ExactScalar) -> float:
    """Natural log of a positive scalar r * pi^(k/2), as ln r + (k/2) ln pi
    on mpmath's raw values at DEFAULT_PRECISION_BITS plus _LOG_GUARD_BITS
    (148 bits), rounded once to the nearest float.

    Works far outside double range because r never becomes a float.
    """
    # to_float's default rounding is toward zero
    return to_float_raw(_log_raw(a), rnd="n")


def log_float_parts(a: ExactScalar) -> tuple[float, float]:
    """ln a as an unevaluated sum hi + lo of two floats: hi is log_float(a)
    and lo the float nearest to ln a - hi, so that a float sum with ln a can
    round once."""
    value = _log_raw(a)
    hi = to_float_raw(value, rnd="n")
    lo = mpf_sub(value, from_float(hi), DEFAULT_PRECISION_BITS + _LOG_GUARD_BITS, "n")
    return hi, to_float_raw(lo, rnd="n")
