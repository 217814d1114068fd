"""Classical orthogonal polynomials with exact rational coefficients.

Laguerre comes from its closed-form coefficients; Gegenbauer and Jacobi come
from their three-term recurrences, which keeps every intermediate Gamma away
from nonpositive arguments.  The two power-linearization routines exist to
cross-check the hypergeometric route used by the entropy formulas; the
production path never calls them.  The float evaluators at the end serve the
pointwise densities and the real-order quadrature.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

from hydrenyi import kernels
from hydrenyi.exactnum import RationalLike, pochhammer
from hydrenyi.hyperfun import LauricellaSpec, lauricella_fa


class PolyExact:
    """Dense univariate polynomial over exact rationals, index = degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[RationalLike]):
        trimmed = [Fraction(c) for c in coeffs]
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        self.coeffs = tuple(trimmed)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __add__(self, other: "PolyExact") -> "PolyExact":
        size = max(len(self.coeffs), len(other.coeffs))
        return PolyExact(
            [self.coeff(k) + other.coeff(k) for k in range(size)] or [0]
        )

    def __sub__(self, other: "PolyExact") -> "PolyExact":
        size = max(len(self.coeffs), len(other.coeffs))
        return PolyExact(
            [self.coeff(k) - other.coeff(k) for k in range(size)] or [0]
        )

    def __mul__(self, other: "PolyExact | RationalLike") -> "PolyExact":
        if isinstance(other, (int, Fraction)):
            return PolyExact([c * other for c in self.coeffs])
        if not self.coeffs or not other.coeffs:
            return PolyExact([])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return PolyExact(out)

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
        if not self.coeffs:
            return self
        return PolyExact([Fraction(0)] * k + list(self.coeffs))

    def scale_arg(self, t: RationalLike) -> "PolyExact":
        """Substitute x -> t*x."""
        t = Fraction(t)
        return PolyExact([c * t**k for k, c in enumerate(self.coeffs)])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyExact):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"PolyExact({[str(c) for c in self.coeffs]})"


def laguerre(n: int, alpha: RationalLike) -> PolyExact:
    """Generalized Laguerre polynomial, orthogonal (not orthonormal) form.

    Coefficient of x**k is (-1)**k binom(n+alpha, n-k) / k!.
    """
    alpha = Fraction(alpha)
    if alpha <= -1:
        raise ValueError("laguerre requires alpha > -1")
    coeffs = []
    for k in range(n + 1):
        binom = pochhammer(alpha + k + 1, n - k) / math.factorial(n - k)
        coeffs.append(Fraction(-1) ** k * binom / math.factorial(k))
    return PolyExact(coeffs)


def gegenbauer(n: int, lam: RationalLike) -> PolyExact:
    """Gegenbauer polynomial via the three-term recurrence."""
    lam = Fraction(lam)
    if n > 0 and (lam <= Fraction(-1, 2) or lam == 0):
        raise ValueError("gegenbauer requires lambda > -1/2, lambda != 0")
    prev = PolyExact([1])
    if n == 0:
        return prev
    cur = PolyExact([0, 2 * lam])
    for k in range(2, n + 1):
        nxt = PolyExact([0, Fraction(2 * (k + lam - 1), k)]) * cur - PolyExact(
            [Fraction(k + 2 * lam - 2, k)]
        ) * prev
        prev, cur = cur, nxt
    return cur


# Float evaluation.  Monomial coefficients of these polynomials alternate in
# sign, and Horner's rule on them loses digits to cancellation as the degree
# grows; the three-term recurrences are stable in floats (Gautschi, SIAM Rev.
# 9, 1967).  Both evaluators return ln|P(x)|, -inf at an exact zero, so that
# callers can form a density in the log domain and exponentiate once.


def laguerre_log_abs(n: int, alpha: float) -> Callable[[float], float]:
    """The function x -> ln|L_n^(alpha)(x)|, by the recurrence
    (j+1) L_{j+1} = (2j+1+alpha-x) L_j - (j+alpha) L_{j-1}.

    The recurrence runs on L_j(x) / s^j with s = max(1, |x|), which stays
    bounded, so arguments up to the float range do not overflow.
    """
    steps = [
        ((2 * j + 1 + alpha) / (j + 1), 1.0 / (j + 1), (j + alpha) / (j + 1))
        for j in range(n)
    ]

    def log_abs(x: float) -> float:
        s = max(1.0, abs(x))
        inv = 1.0 / s
        x_scaled, inv2 = x * inv, inv * inv
        prev, cur = 0.0, 1.0
        for a, b, c in steps:
            prev, cur = cur, (a * inv - b * x_scaled) * cur - c * inv2 * prev
        if not cur:
            return -math.inf
        return math.log(abs(cur)) + n * math.log(s)

    return log_abs


def gegenbauer_log_abs(n: int, lam: float) -> Callable[[float], float]:
    """The function x -> ln|C_n^(lam)(x)| on [-1, 1], by the recurrence
    (j+1) C_{j+1} = 2(j+lam) x C_j - (j+2lam-1) C_{j-1}."""
    steps = [(2 * (j + lam) / (j + 1), (j + 2 * lam - 1) / (j + 1)) for j in range(n)]

    def log_abs(x: float) -> float:
        prev, cur = 0.0, 1.0
        for a, c in steps:
            prev, cur = cur, a * x * cur - c * prev
        return math.log(abs(cur)) if cur else -math.inf

    return log_abs


def jacobi(n: int, alpha: RationalLike, beta: RationalLike) -> PolyExact:
    """Jacobi polynomial via the three-term recurrence."""
    a = Fraction(alpha)
    b = Fraction(beta)
    if a <= -1 or b <= -1:
        raise ValueError("jacobi requires alpha, beta > -1")
    prev = PolyExact([1])
    if n == 0:
        return prev
    cur = PolyExact([Fraction(a - b, 2), Fraction(a + b + 2, 2)])
    for k in range(2, n + 1):
        c1 = 2 * k * (k + a + b) * (2 * k + a + b - 2)
        c2 = (2 * k + a + b - 1) * (a * a - b * b)
        c3 = (2 * k + a + b - 1) * (2 * k + a + b) * (2 * k + a + b - 2)
        c4 = 2 * (k + a - 1) * (k + b - 1) * (2 * k + a + b)
        nxt = (PolyExact([c2, c3]) * cur - PolyExact([c4]) * prev) * (Fraction(1) / c1)
        prev, cur = cur, nxt
    return cur


def gegenbauer_as_jacobi(kappa: int, lam: RationalLike) -> tuple[Fraction, PolyExact]:
    """Rational scale s and Jacobi polynomial P such that s*P = gegenbauer.

    The Gamma-ratio prefactor collapses to the rational (2 lam)_kappa /
    (lam + 1/2)_kappa because the sqrt(pi) parts cancel.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("gegenbauer_as_jacobi requires lambda > 0")
    scale = pochhammer(2 * lam, kappa) / pochhammer(lam + Fraction(1, 2), kappa)
    return scale, jacobi(kappa, lam - Fraction(1, 2), lam - Fraction(1, 2))


def poly_pow(p: PolyExact, r: int) -> PolyExact:
    """Exact r-th power by repeated convolution.

    The convolutions run in integers: p is scaled by the lcm of its
    coefficient denominators, and the power divided by its r-th power once.
    """
    if r < 1:
        raise ValueError("poly_pow requires r >= 1")
    den = 1
    for c in p.coeffs:
        den = math.lcm(den, c.denominator)
    out = [c.numerator * (den // c.denominator) for c in p.coeffs]
    base = [(j, b) for j, b in enumerate(out) if b]
    for _ in range(r - 1):
        nxt = [0] * (len(out) + len(p.coeffs) - 1)
        for i, a in enumerate(out):
            if a:
                for j, b in base:
                    nxt[i + j] += a * b
        out = nxt
    scale = den**r
    return PolyExact([Fraction(c, scale) for c in out])


def laguerre_power_linearization(
    a: int,
    r: int,
    t: RationalLike,
    k: int,
    alpha: RationalLike,
    gamma: RationalLike,
    i_max: int,
) -> list[Fraction]:
    """Coefficients c_i expanding y**a * laguerre(k, alpha)(t*y)**r in the
    laguerre(i, gamma) basis, for i = 0..i_max.

    Each coefficient is one terminating Lauricella sum with r+1 axes: one
    group of r identical axes of order k for the power, plus one axis of
    order i for the target index.
    """
    if a < 0:
        raise ValueError("the monomial degree a must be a nonnegative integer")
    t = Fraction(t)
    alpha = Fraction(alpha)
    gamma = Fraction(gamma)
    ratio = pochhammer(alpha + 1, k) / math.factorial(k)
    prefactor = pochhammer(gamma + 1, a) * ratio**r
    power = ((-k, alpha + 1, t, r),) if r else ()
    out = []
    for i in range(i_max + 1):
        spec = LauricellaSpec(a=gamma + a + 1, groups=power + ((-i, gamma + 1, 1, 1),))
        out.append(prefactor * lauricella_fa(spec))
    return out


def jacobi_power_linearization(
    kappa: int,
    q: int,
    alpha: RationalLike,
    beta: RationalLike,
    gamma: RationalLike,
    delta: RationalLike,
    i_max: int,
) -> list[Fraction]:
    """Coefficients expanding jacobi(kappa, alpha, beta)**(2q) in the
    jacobi(i, gamma, delta) basis, for i = 0..i_max."""
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    gamma = Fraction(gamma)
    delta = Fraction(delta)
    r = 2 * q
    base = (pochhammer(alpha + 1, kappa) / math.factorial(kappa)) ** r

    # The r power axes share one term table and enter the coupled factor only
    # through their sum s, so they collapse into one polynomial power.
    terms, den = kernels.hypergeometric_terms(
        kernels.rising_steps(
            (Fraction(-kappa), alpha + beta + kappa + 1),
            (alpha + 1, Fraction(1)),
            Fraction(1),
            kappa,
        )
    )
    power = [Fraction(c, den**r) for c in kernels.power(terms, r)]

    out = []
    for i in range(i_max + 1):
        head = Fraction(gamma + delta + 2 * i + 1) / (gamma + delta + i + 1)
        last = [
            pochhammer(-i, j) / (pochhammer(gamma + 1, j) * math.factorial(j))
            for j in range(i + 1)
        ]
        top = [pochhammer(gamma + 1, s) for s in range(r * kappa + i + 1)]
        total = sum(
            power[s]
            / pochhammer(gamma + delta + i + 2, s)
            * sum(last[j] * top[s + j] for j in range(i + 1))
            for s in range(r * kappa + 1)
        )
        out.append(base * head * total)
    return out
