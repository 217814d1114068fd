"""Exact scalar arithmetic for entropy arguments.

Every closed-form entropy argument W at integer order, and every
brute-force integral that checks one, is a monomial ``r * pi**(k/2)`` with
rational ``r`` and integer half-exponent ``k``: the powers of pi come from
Gamma values at half-integers, and the Pochhammer symbols and terminating
sums are rational.  Keeping values as such monomials until the final
logarithm makes equality checks structural instead of numeric.

That logarithm is taken in integers too: ``log_float`` rounds ln W to the
nearest float from a fixed-point series and built-in ln 2 and ln pi, so the
exact paths load no multiprecision library.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

RationalLike = Union[int, Fraction]


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


# ln 2 and ln pi times 2^_CONST_BITS, rounded down.  Settling a rounding
# takes about 65 bits below the leading bit of ln W (115 for
# log_float_parts), so they serve every ln W above about 2^-900 in
# magnitude.  A smaller one, which only a rational r agreeing with
# pi^(-k/2) to some 900 bits can give, raises ValueError.  A rational W
# near 1 needs neither constant and has no such limit.
_CONST_BITS = 1024
_LN2 = int(
    "b17217f7d1cf79abc9e3b39803f2f6af40f343267298b62d8a0d175b8baafa2b"
    "e7b876206debac98559552fb4afa1b10ed2eae35c138214427573b291169b825"
    "3e96ca16224ae8c51acbda11317c387eb9ea9bc3b136603b256fa0ec7657f74b"
    "72ce87b19d6548caf5dfa6bd38303248655fa1872f20e3a2da2d97c50f3fd5c6",
    16,
)
_LN_PI = int(
    "1250d048e7a1bd0bd5f956c6a843f49985e6ddbf3b3f2606e33802ecaefa9308"
    "e5aa6c4df523160e6d2402c256db0b866738aa8787561937377769e99dceda3b"
    "fe63817c3283e2689462f32db3a05f4ae6abf069ce37d96c128a137805c99cbb"
    "24ae077cbf543f894946b1a01a945f274440e0550ada6dcf19d80363239d56d6"
    "2",
    16,
)

# The first pass has _LOG_BITS + _LOG_GUARD_BITS fractional bits (see
# log_ratio); a retry adds _LOG_GUARD_BITS, or as many as ln W lacked of
# _LOG_BITS significant bits.
_LOG_BITS = 148
_LOG_GUARD_BITS = 20
_SQRT2 = math.sqrt(2)


def _fixed_log(e: int, num: int, den: int, k: int, bits: int) -> tuple[int, int]:
    """(L, E) with |L - 2^bits ln W| <= E, for W = 2^e m pi^(k/2) and
    m = (1 + y)/(1 - y), y = num/den, |y| <= 0.18.

    ln m = 2 atanh y = 2 (y + y^3/3 + y^5/5 + ...), summed in integers at
    bits fractional bits on |y|; each term is truncated once, so the sum is
    off by less than 1.5 units per term, and each constant by less than
    1.5 units per multiple of it.
    """
    y = (abs(num) << bits) // den
    y2 = (y * y) >> bits
    total, term, j = y, y, 1
    while term:
        term = (term * y2) >> bits
        j += 2
        total += term // j
    value = 2 * total if num >= 0 else -2 * total
    if e or k:
        shift = _CONST_BITS - bits
        value += e * (_LN2 >> shift) + ((k * (_LN_PI >> shift)) >> 1)
    return value, 2 * j + 2 * abs(e) + abs(k) + 4


def _rounded(value: int, err: int, bits: int) -> float | None:
    """The float nearest to every number within err of value, in units of
    2^-bits, or None if the interval holds a rounding boundary.  int / int
    rounds correctly, and rounding is monotone, so both ends decide it."""
    scale = 1 << bits
    low, high = (value - err) / scale, (value + err) / scale
    return low if low == high else None


def log_ratio(num: int, den: int, half: int = 0, parts: bool = True) -> tuple[float, float]:
    """(hi, lo) with hi the float nearest ln W, W = num/den pi^(half/2), and,
    if parts, lo the float nearest ln W - hi (else 0.0).  num/den need not
    be in lowest terms: every step below depends on the ratio alone, and
    the rounding is correct either way.

    ln W = e ln 2 + ln m + (half/2) ln pi with num/den = 2^e m and m within
    a factor sqrt 2 of 1, so that num/den - 1 enters the series exactly
    when e = 0.  The fixed point starts with _LOG_BITS + _LOG_GUARD_BITS
    fractional bits, and as many more as |ln W| has leading zeros when W
    is a rational near 1; where ln(num/den) and (half/2) ln pi cancel, or
    the result lies near a rounding boundary, it grows until both floats
    are settled (Ziv's strategy).  num = den, half = 0 is the only W whose
    log is exactly 0: pi^(half/2) is irrational for half != 0.
    """
    if num <= 0 or den <= 0:
        raise ValueError(f"log of non-positive value {num}/{den} * pi^({half}/2)")
    if num == den and not half:
        return 0.0, 0.0
    e = num.bit_length() - den.bit_length()
    p, q = (num, den << e) if e >= 0 else (num << -e, den)
    m = p / q
    if m > _SQRT2:
        e, q = e + 1, q << 1
    elif m < 1 / _SQRT2:
        e, p = e - 1, p << 1
    y_num, y_den = p - q, p + q
    bits = _LOG_BITS + _LOG_GUARD_BITS
    constants = bool(e or half)
    if not constants:
        bits += max(0, y_den.bit_length() - abs(y_num).bit_length())
    while True:
        value, err = _fixed_log(e, y_num, y_den, half, bits)
        hi = _rounded(value, err, bits)
        if hi is not None and not parts:
            return hi, 0.0
        if hi is not None:
            hi_num, hi_den = hi.as_integer_ratio()
            lift = bits - hi_den.bit_length() + 1
            if lift >= 0:
                lo = _rounded(value - (hi_num << lift), err, bits)
                if lo is not None:
                    return hi, lo
        if constants and bits == _CONST_BITS:
            raise ValueError(f"ln 2 and ln pi to {_CONST_BITS} bits do not settle ln W")
        significant = abs(value).bit_length() - err.bit_length()
        bits += max(_LOG_GUARD_BITS, _LOG_BITS - significant)
        if constants:
            bits = min(bits, _CONST_BITS)


def log_float(a: ExactScalar) -> float:
    """Natural log of a positive scalar r * pi^(k/2), rounded correctly to
    the nearest float, in integer arithmetic (see log_ratio).

    Works far outside double range because r never becomes a float.
    """
    r, k = a.monomial()
    return log_ratio(r.numerator, r.denominator, k, False)[0]


def log_float_parts(a: ExactScalar) -> tuple[float, float]:
    """ln a as an unevaluated sum hi + lo of two floats: hi is log_float(a)
    and lo the float nearest to ln a - hi, so that a float sum with ln a can
    round once."""
    r, k = a.monomial()
    return log_ratio(r.numerator, r.denominator, k)
