"""Exact scalar arithmetic for entropy arguments.

Every closed-form entropy argument and every brute-force integral in this
package lives in the ring of finite sums ``sum_i r_i * pi**(k_i/2)`` with
rational coefficients ``r_i`` and integer half-exponents ``k_i``.  Keeping
values in this ring until the final logarithm makes equality checks
structural instead of numeric.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Mapping, Union

import mpmath

RationalLike = Union[int, Fraction]

DEFAULT_PRECISION_BITS = 128


class HalfInt:
    """A number of the form k/2, used for Gamma arguments.

    Stored as twice the value so that integers and half-integers share one
    exact representation.
    """

    __slots__ = ("twice_value",)

    def __init__(self, twice_value: int):
        self.twice_value = int(twice_value)

    @classmethod
    def from_value(cls, value: "HalfInt | RationalLike") -> "HalfInt":
        if isinstance(value, HalfInt):
            return value
        frac = Fraction(value)
        if frac.denominator not in (1, 2):
            raise ValueError(f"{value} is not an integer or half-integer")
        return cls(frac.numerator * (2 // frac.denominator))

    @property
    def value(self) -> Fraction:
        return Fraction(self.twice_value, 2)

    @property
    def is_integer(self) -> bool:
        return self.twice_value % 2 == 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, HalfInt):
            return self.twice_value == other.twice_value
        if isinstance(other, (int, Fraction)):
            return self.value == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)

    def __repr__(self) -> str:
        return f"HalfInt({self.twice_value})"


def as_rational(value: "HalfInt | RationalLike") -> Fraction:
    if isinstance(value, HalfInt):
        return value.value
    return Fraction(value)


class ExactScalar:
    """Finite sum of terms ``r * pi**(k/2)`` with rational ``r``, integer ``k``.

    The term map is canonical: no zero coefficients are stored, so equality
    is structural.  Instances are immutable values.  The public constructor
    canonicalises its input; the ring operations build their results with
    ``_canonical``, since they drop zero terms as they go.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: "Mapping[int, RationalLike] | RationalLike" = 0):
        canonical: dict[int, Fraction] = {}
        if isinstance(terms, (int, Fraction)):
            if terms != 0:
                canonical[0] = Fraction(terms)
        else:
            for k, r in terms.items():
                r = Fraction(r)
                if r == 0:
                    continue
                k = int(k)
                acc = canonical.get(k, Fraction(0)) + r
                if acc == 0:
                    canonical.pop(k, None)
                else:
                    canonical[k] = acc
        self._terms = canonical

    @classmethod
    def _canonical(cls, terms: dict[int, Fraction]) -> "ExactScalar":
        """Wrap a term map that already holds nonzero Fractions only."""
        out = object.__new__(cls)
        out._terms = terms
        return out

    @classmethod
    def from_rational(cls, r: RationalLike) -> "ExactScalar":
        return cls.pi_power(0, r)

    @classmethod
    def pi_power(cls, k: int, coeff: RationalLike = 1) -> "ExactScalar":
        """The monomial ``coeff * pi**(k/2)``."""
        coeff = Fraction(coeff)
        return cls._canonical({int(k): coeff} if coeff else {})

    def terms(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple(sorted(self._terms.items()))

    def __iter__(self) -> Iterator[tuple[int, Fraction]]:
        return iter(self.terms())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_monomial(self) -> bool:
        return len(self._terms) == 1

    @property
    def is_rational(self) -> bool:
        return not self._terms or set(self._terms) == {0}

    def monomial(self) -> tuple[Fraction, int]:
        """Return (coefficient, half-exponent); error unless exactly one term."""
        if not self.is_monomial:
            raise ValueError(f"not a monomial: {self.render()}")
        ((k, r),) = self._terms.items()
        return r, k

    def as_fraction(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_rational:
            raise ValueError(f"not rational: {self.render()}")
        return self._terms[0]

    @property
    def is_positive_monomial(self) -> bool:
        return self.is_monomial and self.monomial()[0] > 0

    # -- ring operations ---------------------------------------------------

    @staticmethod
    def _coerce(other: "ExactScalar | RationalLike") -> "ExactScalar | None":
        if isinstance(other, ExactScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return ExactScalar(other)
        return None

    def __add__(self, other: "ExactScalar | RationalLike") -> "ExactScalar":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        merged = dict(self._terms)
        for k, r in rhs._terms.items():
            acc = merged.pop(k, None)
            acc = r if acc is None else acc + r
            if acc:
                merged[k] = acc
        return ExactScalar._canonical(merged)

    __radd__ = __add__

    def __neg__(self) -> "ExactScalar":
        return ExactScalar._canonical({k: -r for k, r in self._terms.items()})

    def __sub__(self, other: "ExactScalar | RationalLike") -> "ExactScalar":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other: "ExactScalar | RationalLike") -> "ExactScalar":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def __mul__(self, other: "ExactScalar | RationalLike") -> "ExactScalar":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        out: dict[int, Fraction] = {}
        for ka, ra in self._terms.items():
            for kb, rb in rhs._terms.items():
                k = ka + kb
                acc = out.get(k)
                out[k] = ra * rb if acc is None else acc + ra * rb
        return ExactScalar._canonical({k: r for k, r in out.items() if r})

    __rmul__ = __mul__

    def inverse(self) -> "ExactScalar":
        """Reciprocal; defined only for nonzero monomials."""
        r, k = self.monomial()
        if r == 0:
            raise ZeroDivisionError("inverse of zero")
        return ExactScalar._canonical({-k: 1 / r})

    def __truediv__(self, other: "ExactScalar | RationalLike") -> "ExactScalar":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        if rhs.is_zero:
            raise ZeroDivisionError("division by zero scalar")
        return self * rhs.inverse()

    def __rtruediv__(self, other: "ExactScalar | RationalLike") -> "ExactScalar":
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs * self.inverse()

    def __pow__(self, exponent: int) -> "ExactScalar":
        if not isinstance(exponent, int):
            frac = Fraction(exponent)
            if frac.denominator != 1:
                raise ValueError("scalar powers must have integer exponents")
            exponent = frac.numerator
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if exponent == 0:
            return ExactScalar(1)
        if self.is_monomial:
            r, k = self.monomial()
            return ExactScalar._canonical({k * exponent: r**exponent})
        out = self
        for _ in range(exponent - 1):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        rhs = self._coerce(other)  # type: ignore[arg-type]
        if rhs is None:
            return NotImplemented
        return self._terms == rhs._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # -- rendering ----------------------------------------------------------

    @staticmethod
    def _render_pi(k: int) -> str:
        if k % 2 == 0:
            power = k // 2
            if power == 1:
                return "pi"
            if power > 0:
                return f"pi^{power}"
            return f"pi^({power})"
        return f"pi^({k}/2)"

    def render(self) -> str:
        """Canonical string, terms ordered by ascending pi exponent."""
        if not self._terms:
            return "0"
        parts = []
        for k, r in self.terms():
            if k == 0:
                parts.append(str(r))
                continue
            pi_part = self._render_pi(k)
            if r == 1:
                parts.append(pi_part)
            elif r == -1:
                parts.append(f"-{pi_part}")
            else:
                parts.append(f"{r}*{pi_part}")
        out = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                out += f" - {part[1:]}"
            else:
                out += f" + {part}"
        return out

    def __repr__(self) -> str:
        return f"ExactScalar({self.render()!r})"


def parse_scalar(text: str) -> ExactScalar:
    """Inverse of :meth:`ExactScalar.render`."""
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty scalar string")
    if stripped == "0":
        return ExactScalar(0)
    normalized = stripped.replace(" - ", " + -")
    terms: dict[int, Fraction] = {}
    for part in normalized.split(" + "):
        part = part.strip()
        coeff = Fraction(1)
        k = 0
        if part.startswith("-") and part[1:].lstrip().startswith("pi"):
            coeff = Fraction(-1)
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
                coeff *= Fraction(chunk)
        terms[k] = terms.get(k, Fraction(0)) + coeff
    return ExactScalar(terms)


def gamma_exact(x: "HalfInt | RationalLike") -> ExactScalar:
    """Gamma at a positive integer or half-integer argument.

    Integer arguments give a factorial; half-integer arguments give a
    rational multiple of sqrt(pi) via Gamma(m + 1/2) = (2m)!/(4^m m!) sqrt(pi).
    """
    h = HalfInt.from_value(x)
    if h.twice_value <= 0:
        raise ValueError(f"gamma_exact requires a positive argument, got {h.value}")
    if h.is_integer:
        return ExactScalar.from_rational(math.factorial(h.twice_value // 2 - 1))
    m = (h.twice_value - 1) // 2
    coeff = Fraction(math.factorial(2 * m), 4**m * math.factorial(m))
    return ExactScalar.pi_power(1, coeff)


def rising_product(p: int, d: int, k: int) -> int:
    """p (p+d) ... (p+(k-1)d), which is d^k times the rising factorial
    (p/d)_k; 1 when k = 0."""
    num = 1
    for i in range(k):
        num *= p + i * d
        if not num:
            return 0
    return num


def pochhammer(z: "HalfInt | RationalLike", k: int) -> Fraction:
    """Rising factorial z (z+1) ... (z+k-1); 1 when k = 0.

    With z = p/d this is rising_product(p, d, k) / d^k, one integer product.
    """
    if k < 0:
        raise ValueError("pochhammer order must be nonnegative")
    base = as_rational(z)
    p, d = base.numerator, base.denominator
    return Fraction(rising_product(p, d, k), d**k)


def to_mpf(a: ExactScalar, precision_bits: int = DEFAULT_PRECISION_BITS) -> mpmath.mpf:
    """Evaluate at the requested binary precision; result keeps its mantissa."""
    if precision_bits < 53:
        raise ValueError("precision must be at least 53 bits")
    with mpmath.workprec(precision_bits):
        total = mpmath.mpf(0)
        for k, r in a.terms():
            term = mpmath.mpf(r.numerator) / mpmath.mpf(r.denominator)
            if k:
                term *= mpmath.pi ** (mpmath.mpf(k) / 2)
            total += term
    return total


def to_float(a: ExactScalar, precision_bits: int = DEFAULT_PRECISION_BITS) -> float:
    return float(to_mpf(a, precision_bits))


def log_float(a: ExactScalar, precision_bits: int = DEFAULT_PRECISION_BITS) -> float:
    """Natural log of a positive scalar, evaluated at extended precision.

    Works far outside double range because the argument never leaves mpf.
    """
    with mpmath.workprec(precision_bits):
        value = to_mpf(a, precision_bits)
        if value <= 0:
            raise ValueError(f"log of non-positive scalar {a.render()}")
        return float(mpmath.log(value))
