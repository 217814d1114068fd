"""Classical orthogonal polynomials with exact rational coefficients.

A polynomial is integer numerators over one common denominator.  Laguerre
and Gegenbauer come from their explicit coefficient sums, built in integers.
``poly_pow`` raises the oracle's polynomials to a power by a recurrence on
their numerators.  This module serves the oracle, so it imports none of the
hypergeometric sum code that the closed forms use.  The float Laguerre and
Gegenbauer evaluators at the end serve the real-order quadrature.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

from hydrenyi.exactnum import RationalLike, exact_rational, rising_product


class PolyExact:
    """Dense univariate polynomial over the rationals, index = degree.

    Stored as integer numerators ``nums`` over one positive common
    denominator ``den``, in lowest terms (no prime divides den and every
    numerator); ``coeffs`` is the Fraction view.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Sequence[RationalLike]):
        fracs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in fracs))
        self._set([c.numerator * (den // c.denominator) for c in fracs], den)

    @classmethod
    def over(cls, nums: Sequence[int], den: int) -> "PolyExact":
        """The polynomial sum_k nums[k]/den x^k, for integers nums and den > 0."""
        out = object.__new__(cls)
        out._set(list(nums), den)
        return out

    def _set(self, nums: list[int], den: int) -> None:
        while nums and not nums[-1]:
            nums.pop()
        common = math.gcd(den, *nums)
        if common > 1:
            nums = [c // common for c in nums]
            den //= common
        self.nums = tuple(nums)
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.nums):
            return Fraction(self.nums[k], self.den)
        return Fraction(0)

    def _combine(self, other: "PolyExact", sign: int) -> "PolyExact":
        den = math.lcm(self.den, other.den)
        a = [c * (den // self.den) for c in self.nums]
        b = [sign * c * (den // other.den) for c in other.nums]
        if len(a) < len(b):
            a, b = b, a
        for k, c in enumerate(b):
            a[k] += c
        return PolyExact.over(a, den)

    def __add__(self, other: "PolyExact") -> "PolyExact":
        return self._combine(other, 1)

    def __sub__(self, other: "PolyExact") -> "PolyExact":
        return self._combine(other, -1)

    def __mul__(self, other: "PolyExact | RationalLike") -> "PolyExact":
        if isinstance(other, (int, Fraction)):
            r = Fraction(other)
            return PolyExact.over([c * r.numerator for c in self.nums], self.den * r.denominator)
        if not self.nums or not other.nums:
            return PolyExact([])
        out = [0] * (len(self.nums) + len(other.nums) - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in enumerate(other.nums):
                    out[i + j] += a * b
        return PolyExact.over(out, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, r: int) -> "PolyExact":
        if r < 0:
            raise ValueError("polynomial powers must be nonnegative")
        out = PolyExact([1])
        base = self
        for _ in range(r):
            out = out * base
        return out

    def shift_degree(self, k: int) -> "PolyExact":
        """Multiply by x**k."""
        if not self.nums:
            return self
        return PolyExact.over([0] * k + list(self.nums), self.den)

    def scale_arg(self, t: RationalLike) -> "PolyExact":
        """Substitute x -> t*x."""
        t = exact_rational(t)
        top, bottom, degree = t.numerator, t.denominator, self.degree
        return PolyExact.over(
            [c * top**k * bottom ** (degree - k) for k, c in enumerate(self.nums)],
            self.den * bottom ** max(degree, 0),
        )

    def translate(self, c: int) -> "PolyExact":
        """Substitute x -> x + c for an integer c, by a Taylor shift of the
        numerators: degree^2 / 2 integer multiply-adds."""
        a = list(self.nums)
        for i in range(len(a) - 1):
            for j in range(len(a) - 2, i - 1, -1):
                a[j] += c * a[j + 1]
        return PolyExact.over(a, self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyExact):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def __repr__(self) -> str:
        return f"PolyExact({[str(c) for c in self.coeffs]})"


def laguerre(n: int, alpha: RationalLike) -> PolyExact:
    """Generalized Laguerre polynomial, orthogonal (not orthonormal) form.

    Coefficient of x**j is (-1)**j binom(n+alpha, n-j) / j!.  With
    alpha = a/b that is (-1)**j binom(n, j) b**j prod_{m=j+1..n} (a + m b)
    over the common denominator n! b**n.
    """
    alpha = exact_rational(alpha)
    a, b = alpha.numerator, alpha.denominator
    if a <= -b:
        raise ValueError("laguerre requires alpha > -1")
    tails = [1] * (n + 1)
    for j in range(n - 1, -1, -1):
        tails[j] = tails[j + 1] * (a + (j + 1) * b)
    nums = []
    binom = b_power = 1
    for j in range(n + 1):
        term = binom * b_power * tails[j]
        nums.append(-term if j % 2 else term)
        binom = binom * (n - j) // (j + 1)
        b_power *= b
    return PolyExact.over(nums, math.factorial(n) * b**n)


def gegenbauer(n: int, lam: RationalLike) -> PolyExact:
    """Gegenbauer polynomial C_n^(lam).

    Coefficient of x**(n-2m) is (-1)**m 2**(n-2m) (lam)_(n-m) / (m! (n-2m)!).
    With lam = a/b that is (-1)**m 2**(n-2m) b**m a(a+b)...(a+(n-m-1)b)
    n!/(m! (n-2m)!) over the common denominator n! b**n.
    """
    lam = exact_rational(lam)
    a, b = lam.numerator, lam.denominator
    if n > 0 and (2 * a <= -b or a == 0):
        raise ValueError("gegenbauer requires lambda > -1/2, lambda != 0")
    half = n // 2
    rising = [1] * (half + 1)
    rising[half] = rising_product(a, b, n - half)
    for m in range(half - 1, -1, -1):
        rising[m] = rising[m + 1] * (a + (n - m - 1) * b)
    nums = [0] * (n + 1)
    weight = b_power = 1  # n!/(m! (n-2m)!) and b**m
    for m in range(half + 1):
        term = (weight * b_power * rising[m]) << (n - 2 * m)
        nums[n - 2 * m] = -term if m % 2 else term
        weight = weight * (n - 2 * m) * (n - 2 * m - 1) // (m + 1)
        b_power *= b
    return PolyExact.over(nums, math.factorial(n) * b**n)


# Float evaluation.  Monomial coefficients of these polynomials alternate in
# sign, and Horner's rule on them loses digits to cancellation as the degree
# grows; the three-term recurrence is stable in floats (Gautschi, SIAM Rev.
# 9, 1967).  The evaluators return ln|P(x)|, -inf at an exact zero.  Each
# recurrence starts at 2^-e, which is exact, with e >= 0 the least that brings
# a bound on |P| under e^600; that leaves room for its intermediate terms.  At
# most e = 910 keeps the start, and 2^-112 times it, a normal float.
_LOG_HEADROOM = 600.0


def _recurrence_start(log_bound: float) -> tuple[float, float]:
    """The start 2^-e and the offset e ln 2 for a bound e^log_bound on |P|."""
    e = min(max(0, math.ceil((log_bound - _LOG_HEADROOM) / math.log(2))), 910)
    return math.ldexp(1.0, -e), e * math.log(2)


# Past x = 1 the Laguerre recurrence is rescaled by _HUGE whenever its value
# has decayed below _TINY and below the start.  Eleven steps keep the pair
# above 2^-112 times the start at every x > 1 for alpha up to 10^6 (measured
# on a grid of 6,000 x to 1e300), so they run unchecked; n <= 11 runs no check.
_LAGUERRE_UNCHECKED, _TINY, _HUGE, _LOG_HUGE = 11, 2.0**-400, 2.0**400, 400 * math.log(2)


def laguerre_log_abs(n: int, alpha: float) -> Callable[[float], float]:
    """The function x -> ln|L_n^(alpha)(x)| for x >= 0 and alpha >= 0, by the
    recurrence (j+1) L_{j+1} = (2j+1+alpha-x) L_j - (j+alpha) L_{j-1}.

    Szego's bound |L_j^(alpha)(x)| <= C(j+alpha, j) e^(x/2) sets the start.
    Past x = 1 it runs on L_j(x) / x^j, which stays bounded for any float x."""
    steps = [((2 * j + 1 + alpha) / (j + 1), 1 / (j + 1), (j + alpha) / (j + 1)) for j in range(n)]
    head, tail = steps[:_LAGUERRE_UNCHECKED], steps[_LAGUERRE_UNCHECKED:]
    log_binomial = math.lgamma(n + alpha + 1) - math.lgamma(alpha + 1) - math.lgamma(n + 1)
    start, offset = _recurrence_start(log_binomial + 0.5)
    tiny = min(_TINY, start)

    def log_abs(x: float) -> float:
        prev, cur = 0.0, start
        if x <= 1.0:
            for a, b, c in steps:
                prev, cur = cur, (a - b * x) * cur - c * prev
            return math.log(abs(cur)) + offset if cur else -math.inf
        inv = 1.0 / x
        x_scaled, inv2 = x * inv, inv * inv
        for a, b, c in head:
            prev, cur = cur, (a * inv - b * x_scaled) * cur - c * inv2 * prev
        rescaled = 0
        for a, b, c in tail:
            prev, cur = cur, (a * inv - b * x_scaled) * cur - c * inv2 * prev
            if abs(cur) < tiny:
                prev, cur, rescaled = prev * _HUGE, cur * _HUGE, rescaled + 1
        if not cur:
            return -math.inf
        return math.log(abs(cur)) + n * math.log(x) - rescaled * _LOG_HUGE + offset

    return log_abs


def gegenbauer_log_abs(n: int, lam: float) -> Callable[[float], float]:
    """The function x -> ln|C_n^(lam)(x)| on [-1, 1], by the recurrence
    (j+1) C_{j+1} = 2(j+lam) x C_j - (j+2lam-1) C_{j-1}, for lam > 0.

    For lam > 0, |C_n^(lam)| on [-1, 1] peaks at C_n^(lam)(1) =
    Gamma(2lam+n) / (Gamma(2lam) n!), the bound that sets the start.
    """
    steps = [(2 * (j + lam) / (j + 1), (j + 2 * lam - 1) / (j + 1)) for j in range(n)]
    log_peak = math.lgamma(2 * lam + n) - math.lgamma(2 * lam) - math.lgamma(n + 1)
    start, offset = _recurrence_start(log_peak)

    def log_abs(x: float) -> float:
        prev, cur = 0.0, start
        for a, c in steps:
            prev, cur = cur, a * x * cur - c * prev
        return math.log(abs(cur)) + offset if cur else -math.inf

    return log_abs


def poly_pow(p: PolyExact, r: int) -> PolyExact:
    """Exact r-th power, over the r-th power of the denominator.

    Write the integer numerators as x^v Q(x) with Q(0) != 0; odd
    Gegenbauer polynomials have v = 1.  Comparing coefficients of x^(s-1)
    in Q (Q^r)' = r Q' Q^r gives each coefficient of Q^r from the k before
    it: s Q_0 c_s = sum_{j=1..k} ((r+1) j - s) Q_j c_(s-j), an exact
    integer division.  This is J.C.P. Miller's recurrence; the closed forms
    keep their own copy, so the oracle shares no code with them.
    """
    if r < 1:
        raise ValueError("poly_pow requires r >= 1")
    if not p.nums:
        return p
    v = next(j for j, c in enumerate(p.nums) if c)
    base = p.nums[v:]
    b0, k = base[0], len(base) - 1
    steps = [(j, (r + 1) * j, c) for j, c in enumerate(base) if j and c]
    out = [b0**r]
    for s in range(1, r * k + 1):
        acc = 0
        for j, weight, c in steps:
            if j > s:
                break
            acc += (weight - s) * c * out[s - j]
        out.append(acc // (s * b0))
    return PolyExact.over([0] * (r * v) + out, p.den**r)
