"""Closed-form Renyi entropies of D-dimensional hydrogenic states.

Each entropy is assembled as an exact argument W of a single logarithm,
R_q = ln(W) / (1 - q), instead of summing floating log terms.  That makes
the published table values reproducible bit for bit and lets the integration
oracle compare arguments structurally.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from hydrenyi.exactnum import (
    DEFAULT_PRECISION_BITS,
    ExactScalar,
    exact_rational,
    gamma_exact,
    log_float,
    pochhammer,  # unused here; perfbench/tracing.py wraps entropy.pochhammer
    rising_product,
)
from hydrenyi.hyperfun import (
    LauricellaSpec,
    SrivastavaDaoustSpec,
    lauricella_fa,
    srivastava_daoust,
)
from hydrenyi.states import (
    HydrogenicState,
    ValidationError,
    check_chain,
    check_momentum_order,
    validate,
)


@dataclass(frozen=True)
class EntropyValue:
    """A value coef * ln(w) with rational coef and exact positive monomial w."""

    coef: Fraction
    w: ExactScalar
    q: Fraction

    def __post_init__(self):
        if not self.w.is_positive_monomial:
            raise ValueError(f"entropy argument must be a positive monomial, got {self.w.render()}")

    @property
    def value(self) -> float:
        return self.value_at()

    def value_at(self, precision_bits: int = DEFAULT_PRECISION_BITS) -> float:
        return float(self.coef) * log_float(self.w, precision_bits)

    def exact_str(self) -> str:
        """Canonical display; with coef = -1 this is ln of the reciprocal."""
        if self.coef == -1:
            return f"ln({self.w.inverse().render()})"
        if self.coef == 1:
            return f"ln({self.w.render()})"
        if self.coef < 0:
            return f"{-self.coef}*ln({self.w.inverse().render()})"
        return f"{self.coef}*ln({self.w.render()})"

    def __add__(self, other: "EntropyValue") -> "EntropyValue":
        if not isinstance(other, EntropyValue):
            return NotImplemented
        if self.coef != other.coef or self.q != other.q:
            raise ValueError("can only add entropy parts sharing coef and q")
        return EntropyValue(self.coef, self.w * other.w, self.q)


@dataclass(frozen=True)
class RenyiBreakdown:
    radial: EntropyValue
    angular: EntropyValue
    total: EntropyValue


def _check_integer_order(q) -> int:
    q = exact_rational(q)
    if q.denominator != 1 or q < 2:
        raise ValueError(f"closed forms need an integer order q >= 2, got {q}")
    return q.numerator


def _entropy_coef(q: int) -> Fraction:
    return Fraction(1, 1 - q)


# -- prefactors in integers --------------------------------------------------
#
# Each closed form folds its Gamma values, Pochhammer symbols and rational
# powers into one integer numerator, one integer denominator and one pi
# half-exponent, and makes one ExactScalar of them at the end.  The oracle
# builds the same factors from exactnum.gamma_exact instead, so a wrong
# Gamma on either side shows up as a mismatch.


def _gamma_parts(twice: int) -> tuple[int, int, int]:
    """Gamma(twice/2) at a positive integer or half-integer as (num, den, k),
    Gamma = num/den * pi^(k/2), via Gamma(m + 1/2) = (2m)!/(4^m m!) sqrt(pi)."""
    if twice < 1:
        raise ValueError(f"Gamma needs a positive argument, got {Fraction(twice, 2)}")
    if twice % 2 == 0:
        return math.factorial(twice // 2 - 1), 1, 0
    m = twice // 2
    return math.factorial(2 * m), 4**m * math.factorial(m), 1


def _gamma_product(*factors: tuple[int, int]) -> tuple[int, int, int]:
    """prod Gamma(twice/2)^power over (twice, power) pairs, as (num, den, k)
    like _gamma_parts; a negative power divides."""
    num = den = 1
    half = 0
    for twice, power in factors:
        g_num, g_den, g_half = _gamma_parts(twice)
        if power < 0:
            g_num, g_den, g_half, power = g_den, g_num, -g_half, -power
        num *= g_num**power
        den *= g_den**power
        half += g_half * power
    return num, den, half


def radial_lauricella_factor(D: int, n: int, l: int, q: int) -> Fraction:
    """The terminating 2q-axis Lauricella sum entering the radial position
    entropy; equals 1 when l = n - 1.  Its 2q axes are identical: one group."""
    if l == n - 1:
        return Fraction(1)
    spec = LauricellaSpec(
        a=2 * l * q + D,
        groups=((-(n - l - 1), 2 * l + D - 1, Fraction(1, q), 2 * q),),
    )
    return lauricella_fa(spec)


def radial_position_entropy(state: HydrogenicState, q: int) -> EntropyValue:
    """Radial part of the position-space Renyi entropy, exact.

    W = lambda^(D(1-q)) ((eta-L)_(2l+D-2) / (2 eta))^q F_A
        Gamma(D+2lq) / (q^(D+2lq) Gamma(2l+D-1)^(2q)),
    with lambda = eta/(2Z), eta - L = n - l and 2 eta = 2n+D-3.
    """
    q = _check_integer_order(q)
    l = validate(state).l
    D, n, Z = state.D, state.n, state.Z
    two_eta = 2 * n + D - 3
    lam_power = D * (q - 1)  # lambda^(D(1-q)) = (4Z / 2eta)^(D(q-1))
    hyper = radial_lauricella_factor(D, n, l, q)
    g_num, g_den, _ = _gamma_product(
        (2 * (D + 2 * l * q), 1), (2 * (2 * l + D - 1), -2 * q)
    )
    num = (
        (4 * Z.numerator) ** lam_power
        * rising_product(n - l, 1, 2 * l + D - 2) ** q
        * hyper.numerator
        * g_num
    )
    den = (
        (two_eta * Z.denominator) ** lam_power
        * two_eta**q
        * hyper.denominator
        * q ** (D + 2 * l * q)
        * g_den
    )
    w = ExactScalar.from_rational(Fraction(num, den))
    return EntropyValue(_entropy_coef(q), w, Fraction(q))


def _chain_segments(D: int, mu: tuple[int, ...]):
    """Yield (alpha_j, mu_j, mu_{j+1}) for j = 1..D-2 on the canonical chain."""
    chain = mu[:-1] + (abs(mu[-1]),)
    for j in range(1, D - 1):
        alpha = Fraction(D - j - 1, 2)
        yield alpha, chain[j - 1], chain[j]


def angular_pochhammer_factor(alpha: Fraction, mu_j: int, mu_j1: int, q: int) -> Fraction:
    """The rational Pochhammer block attached to one angular degree of
    freedom; equals 1 when the two chain entries coincide:

    (2a+2mu'+1)_(2k)^q (q mu'+a+1)_(qk)
      / (k!^q (2a+mu+mu')_k^q (a+mu'+1)_k^q),  a = alpha, k = mu - mu'.
    """
    k = mu_j - mu_j1
    if k == 0:
        return Fraction(1)
    a2 = 2 * alpha.numerator // alpha.denominator
    # the last two symbols are each over 2^(qk), which cancels
    num = rising_product(a2 + 2 * mu_j1 + 1, 1, 2 * k) ** q * rising_product(
        2 * q * mu_j1 + a2 + 2, 2, q * k
    )
    den = (
        math.factorial(k)
        * rising_product(a2 + mu_j + mu_j1, 1, k)
        * rising_product(a2 + 2 * mu_j1 + 2, 2, k)
    ) ** q
    return Fraction(num, den)


def angular_daoust_factor(alpha: Fraction, mu_j: int, mu_j1: int, q: int) -> Fraction:
    """The terminating Srivastava-Daoust sum attached to one angular degree
    of freedom; equals 1 when the two chain entries coincide.  Its 2q axes
    are identical: one group."""
    k = mu_j - mu_j1
    if k == 0:
        return Fraction(1)
    a2 = 2 * alpha.numerator // alpha.denominator
    spec = SrivastavaDaoustSpec(
        a0=Fraction(a2 + 2 * q * mu_j1 + 1, 2),
        d0=2 * q * mu_j1 + a2 + 1,
        groups=((-k, a2 + mu_j1 + mu_j, Fraction(a2 + 2 * mu_j1 + 1, 2), 1, 2 * q),),
    )
    return srivastava_daoust(spec)


def angular_entropy(D: int, mu: tuple[int, ...], q: int) -> EntropyValue:
    """Renyi entropy of a hyperspherical harmonic, exact.

    Shared by position and momentum space; depends on the chain only through
    the canonical (|m|) form.  W = (2 pi^(D/2))^(1-q) Gamma(l+D/2)^q (qm)!
    / (Gamma(ql+D/2) m!^q) times each chain segment's Pochhammer block and
    sum.
    """
    q = _check_integer_order(q)
    check_chain(D, mu)
    if D == 2:
        l = abs(mu[0])
    else:
        l = mu[0]
    m = abs(mu[-1])
    num, den, half = _gamma_product((2 * l + D, q), (2 * q * l + D, -1))
    num *= math.factorial(q * m)
    den *= 2 ** (q - 1) * math.factorial(m) ** q
    for alpha, mu_j, mu_j1 in _chain_segments(D, tuple(mu)):
        for factor in (
            angular_pochhammer_factor(alpha, mu_j, mu_j1, q),
            angular_daoust_factor(alpha, mu_j, mu_j1, q),
        ):
            num *= factor.numerator
            den *= factor.denominator
    w = ExactScalar.pi_power(half + D * (1 - q), Fraction(num, den))
    return EntropyValue(_entropy_coef(q), w, Fraction(q))


def position_entropy(state: HydrogenicState, q: int) -> RenyiBreakdown:
    """Total position-space Renyi entropy split into radial and angular parts."""
    radial = radial_position_entropy(state, q)
    angular = angular_entropy(state.D, state.mu, q)
    return RenyiBreakdown(radial=radial, angular=angular, total=radial + angular)


def momentum_daoust_factor(D: int, n: int, l: int, q: int) -> Fraction:
    """The terminating Srivastava-Daoust sum entering the radial momentum
    entropy; equals 1 when l = n - 1.  Its 2q axes are identical: one group.

    With eta = n + (D-3)/2 and L = l + (D-3)/2 the parameters are
    a0 = (L + 3/2) q + D(1-q)/2, d0 = q (2L + 4), c = eta + L + 1 and
    e = L + 3/2, written below in n, l and D.
    """
    if l == n - 1:
        return Fraction(1)
    spec = SrivastavaDaoustSpec(
        a0=Fraction(2 * l * q + D, 2),
        d0=q * (2 * l + D + 1),
        groups=((-(n - l - 1), n + l + D - 2, Fraction(2 * l + D, 2), 1, 2 * q),),
    )
    return srivastava_daoust(spec)


def radial_momentum_entropy(state: HydrogenicState, q: int) -> EntropyValue:
    """Radial part of the momentum-space Renyi entropy, exact.

    W = (Z/eta)^(D(1-q)) (2 eta (eta-L)_(2l+D-2))^q S 2^(2q-1)
        Gamma(D/2+ql) Gamma(q(D+l+1)-D/2) / (Gamma(l+D/2)^(2q) Gamma(q(D+2l+1))),
    with eta - L = n - l and 2 eta = 2n+D-3.
    """
    q = _check_integer_order(q)
    l = validate(state).l
    D, n, Z = state.D, state.n, state.Z
    two_eta = 2 * n + D - 3
    scale_power = D * (q - 1)  # (Z/eta)^(D(1-q)) = (2eta / 2Z)^(D(q-1))
    hyper = momentum_daoust_factor(D, n, l, q)
    g_num, g_den, half = _gamma_product(
        (D + 2 * q * l, 1),
        (2 * q * (D + l + 1) - D, 1),
        (D + 2 * l, -2 * q),
        (2 * q * (D + 2 * l + 1), -1),
    )
    num = (
        (two_eta * Z.denominator) ** scale_power
        * (two_eta * rising_product(n - l, 1, 2 * l + D - 2)) ** q
        * hyper.numerator
        * 2 ** (2 * q - 1)
        * g_num
    )
    den = (2 * Z.numerator) ** scale_power * hyper.denominator * g_den
    w = ExactScalar.pi_power(half, Fraction(num, den))
    return EntropyValue(_entropy_coef(q), w, Fraction(q))


def momentum_entropy(state: HydrogenicState, q: int) -> RenyiBreakdown:
    """Total momentum-space Renyi entropy; the angular part is the same as
    in position space."""
    radial = radial_momentum_entropy(state, q)
    angular = angular_entropy(state.D, state.mu, q)
    return RenyiBreakdown(radial=radial, angular=angular, total=radial + angular)


# -- digit bound --------------------------------------------------------------
#
# An upper bound on the decimal digits of each W above, from the quantum
# numbers alone, before any Gamma value or sum is formed.  The Gamma values,
# Pochhammer symbols and integer powers are written as a ledger of factorial
# and integer powers, prod m!^e a^f, whose reduced numerator and denominator
# follow exactly from Legendre's formula v_p(m!) = sum_i floor(m / p^i).
# What cannot be factored that way adds its digits in full: the powers of
# the charge, and each terminating sum S, as the integer S * M for a
# multiple M of its denominator (M enters the ledger as a divisor) whose
# size is bounded by M times the sum of the absolute values of the terms.

# Orders whose factorials pass this argument get no finite bound: sieving
# the primes up to it and reducing over them would take about a second.
_SIEVE_LIMIT = 2 * 10**5


class _DigitLedger:
    """prod m!^e * prod a^f * prod lcm(1..x)^g over a few m, a and x, times
    integers whose log10 is only bounded.

    Each entry also adds its size to a first bound, in natural logarithms,
    that lets no factor cancel another.
    """

    def __init__(self):
        self.factorials: list[tuple[int, int]] = []  # (m, e), m repeating
        self.integers: list[tuple[int, int]] = []
        self.lcms: list[tuple[int, int]] = []
        self.twos = 0  # the power of 2, kept apart: most entries carry one
        self.num_ln = self.den_ln = 0.0
        self.extra_num = 0.0  # log10 bounds of factors outside the ledger
        self.extra_den = 0.0
        self.sums: list[tuple[_DigitLedger, float]] = []

    def _size(self, ln_value: float) -> None:
        if ln_value > 0:
            self.num_ln += ln_value
        else:
            self.den_ln -= ln_value

    def fact(self, m: int, e: int) -> None:
        if m > 1:
            self.factorials.append((m, e))
            self._size(e * math.lgamma(m + 1))

    def integer(self, a: int, e: int) -> None:
        if a == 2:
            self.twos += e
        elif a > 1:
            self.integers.append((a, e))
            self._size(e * math.log(a))

    def lcm(self, x: int, e: int) -> None:
        """lcm(1..x)^e, at most e^(1.03883 x) (Rosser and Schoenfeld,
        Illinois J. Math. 6, 1962)."""
        self.lcms.append((x, e))
        self._size(e * 1.03883 * x)

    def rising(self, p: int, d: int, k: int, e: int) -> None:
        """rising_product(p, d, k)^e for p >= 1 and d in (1, 2)."""
        if d == 1:
            if k:
                self.factorials += ((p + k - 1, e), (p - 1, -e))
                # (p)_k^|e| counts in full on its side
                self._size(e * (math.lgamma(p + k) - math.lgamma(p)))
        elif p % 2 == 0:  # 2^k (p/2)_k
            self.integer(2, k * e)
            self.rising(p // 2, 1, k, e)
        else:  # (p + 2k - 2)!! / (p - 2)!!, with N!! = (N+1)! / (2^((N+1)/2) ((N+1)/2)!)
            self.rising(p, 1, 2 * k, e)
            self.integer(2, -k * e)
            self.rising((p + 1) // 2, 1, k, -e)

    def gamma(self, twice: int, e: int) -> None:
        """Gamma(twice/2)^e without its power of sqrt(pi)."""
        if twice % 2 == 0:
            self.fact(twice // 2 - 1, e)
        else:  # Gamma(m + 1/2) = (2m)! / (4^m m!) sqrt(pi)
            m = twice // 2
            self.fact(2 * m, e)
            self.fact(m, -e)
            self.integer(2, -2 * m * e)

    def terminating_sum(self, multiple: _DigitLedger, log10_abs_sum: float) -> None:
        """A sum S with S * M an integer for M = multiple's value, and
        sum |terms| <= 10^log10_abs_sum: M divides the ledger, and S * M adds
        at most log10 M + log10_abs_sum digits to the numerator."""
        self.factorials += [(m, -e) for m, e in multiple.factorials]
        self.integers += [(a, -e) for a, e in multiple.integers]
        self.lcms += [(x, -e) for x, e in multiple.lcms]
        self.twos -= multiple.twos
        self.den_ln += multiple.num_ln
        self.sums.append((multiple, log10_abs_sum))

    def _merged(self) -> list[tuple[int, int]]:
        """The factorial powers with equal m combined, and none of power 0."""
        merged: dict[int, int] = {}
        for m, e in self.factorials:
            merged[m] = merged.get(m, 0) + e
        return [(m, e) for m, e in merged.items() if e]

    def _valuations(self) -> Callable[[int], int]:
        """The function p -> exponent of the prime p in the ledger's value."""
        factorials, integers, lcms, twos = self._merged(), self.integers, self.lcms, self.twos

        def valuation(p: int) -> int:
            v = twos if p == 2 else 0
            for m, e in factorials:
                power = p
                while power <= m:
                    v += e * (m // power)
                    power *= p
            for a, e in integers:
                while a % p == 0:
                    v += e
                    a //= p
            for x, e in lcms:
                power = p
                while power <= x:
                    v += e
                    power *= p
            return v

        return valuation

    def crude_digits(self) -> tuple[float, float]:
        """Like digits, with no factor cancelling another."""
        twos = self.twos * math.log(2)
        num = (self.num_ln + max(twos, 0)) / math.log(10) + self.extra_num + 2
        den = (self.den_ln - min(twos, 0)) / math.log(10) + self.extra_den + 2
        for multiple, log10_abs in self.sums:
            num += multiple.crude_digits()[0] + log10_abs
        return num, den

    def digits(self) -> tuple[float, float]:
        """Upper bounds on the digits of the reduced numerator and
        denominator of the ledger's value."""
        arguments = [m for m, _ in self._merged()] + [a for a, _ in self.integers]
        top = max([2, *arguments, *(x for x, _ in self.lcms)])
        if top > _SIEVE_LIMIT:
            return math.inf, math.inf
        sieve = bytearray([1]) * (top + 1)
        sieve[:2] = b"\x00\x00"
        for p in range(2, math.isqrt(top) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, top + 1, p)))
        valuation = self._valuations()
        multiples = [multiple._valuations() for multiple, _ in self.sums]
        num, den = self.extra_num, self.extra_den
        for p in itertools.compress(range(top + 1), sieve):
            log_p = math.log10(p)
            v = valuation(p)
            if v > 0:
                num += v * log_p
            elif v < 0:
                den -= v * log_p
            for multiple in multiples:
                num += multiple(p) * log_p
        num += sum(log10_abs for _, log10_abs in self.sums)
        # the float sums round; one digit more covers that and floor(log10) + 1
        return num + 2, den + 2


def _log10_rising(p: float, k: int) -> float:
    return (math.lgamma(p + k) - math.lgamma(p)) / math.log(10)


def _daoust_digits(out: _DigitLedger, a2: int, d0: int, c: int, e2: int, k: int, q: int) -> None:
    """The terminating Srivastava-Daoust sum with a0 = a2/2 <= d0, one group
    of 2q axes (-k, c; e2/2) at x = 1 and c >= e2/2.

    Its terms are rho_s prod_i (-1)^m_i binom(k, m_i) (c)_m_i / (e)_m_i with
    rho_s = (a0)_s / (d0)_s <= 1 and s = sum_i m_i <= N = 2qk, so their
    absolute values sum to at most (2^k (c)_k / (e)_k)^(2q).  The product
    over i has its denominator in rising_product(e2, 2, k)^(2q).  rho_s is
    rising_product(a2, 2, s) / (2^s (d0)_s): for an odd prime p, the two
    runs of s factors hold equally many multiples of p^j up to one, so p
    divides the denominator at most floor(log_p X) times, X the largest
    factor; the same holds for p = 2 when a2 is even, and an odd a2 adds at
    most 2N more factors of 2.  So every term is cleared by
    lcm(1..X) 2^(2N) rising_product(e2, 2, k)^(2q).
    """
    n_total = 2 * q * k
    multiple = _DigitLedger()
    if a2 % 2:
        multiple.lcm(max(d0 + n_total - 1, a2 + 2 * n_total - 2), 1)
        multiple.integer(2, 2 * n_total)
    else:
        multiple.lcm(max(d0, a2 // 2) + n_total - 1, 1)
    multiple.rising(e2, 2, k, 2 * q)
    per_axis = k * math.log10(2) + _log10_rising(c, k) - _log10_rising(e2 / 2, k)
    out.terminating_sum(multiple, 2 * q * per_axis)


def _lauricella_digits(out: _DigitLedger, a: int, c: int, k: int, q: int) -> None:
    """The terminating Lauricella sum with integers a, c >= 1 and one group
    of 2q axes (-k, c) at x = 1/q.  Its terms are
    (a)_|m| prod_i (-1)^m_i binom(k, m_i) / ((c)_m_i q^m_i), so
    ((c)_k q^k)^(2q) clears every denominator, and the absolute terms sum to
    at most (a)_(2qk) (1 + 1/(cq))^(2qk)."""
    multiple = _DigitLedger()
    multiple.rising(c, 1, k, 2 * q)
    multiple.integer(q, 2 * q * k)
    log10_abs = _log10_rising(a, 2 * q * k) + 2 * q * k * math.log10(1 + 1 / (c * q))
    out.terminating_sum(multiple, log10_abs)


def _radial_digits(state: HydrogenicState, q: int, space: str, l: int) -> _DigitLedger:
    D, n, Z = state.D, state.n, state.Z
    k, two_eta, scale_power = n - l - 1, 2 * n + D - 3, D * (q - 1)
    out = _DigitLedger()
    out.rising(n - l, 1, 2 * l + D - 2, q)
    out.integer(two_eta, -q if space == "position" else q)
    if space == "position":
        # (4Z / 2eta)^(D(q-1)) Gamma(D+2lq) / (q^(D+2lq) Gamma(2l+D-1)^(2q))
        out.integer(4, scale_power)
        out.integer(two_eta, -scale_power)
        out.integer(q, -(D + 2 * l * q))
        out.gamma(2 * (D + 2 * l * q), 1)
        out.gamma(2 * (2 * l + D - 1), -2 * q)
        top, bottom = Z.numerator, Z.denominator
        if k:
            _lauricella_digits(out, 2 * l * q + D, 2 * l + D - 1, k, q)
    else:
        # (2eta / 2Z)^(D(q-1)) 2^(2q-1) Gamma(D/2+ql) Gamma(q(D+l+1)-D/2)
        #   / (Gamma(l+D/2)^(2q) Gamma(q(D+2l+1)))
        out.integer(two_eta, scale_power)
        out.integer(2, 2 * q - 1 - scale_power)
        out.gamma(D + 2 * q * l, 1)
        out.gamma(2 * q * (D + l + 1) - D, 1)
        out.gamma(D + 2 * l, -2 * q)
        out.gamma(2 * q * (D + 2 * l + 1), -1)
        top, bottom = Z.denominator, Z.numerator
        if k:
            _daoust_digits(out, 2 * l * q + D, q * (2 * l + D + 1), n + l + D - 2, 2 * l + D, k, q)
    out.extra_num += scale_power * math.log10(top)
    out.extra_den += scale_power * math.log10(bottom)
    return out


def _angular_digits(D: int, mu: tuple[int, ...], q: int, l: int) -> _DigitLedger:
    m = abs(mu[-1])
    out = _DigitLedger()
    # Gamma(l+D/2)^q (qm)! / (2^(q-1) Gamma(ql+D/2) m!^q)
    out.gamma(2 * l + D, q)
    out.gamma(2 * q * l + D, -1)
    out.fact(q * m, 1)
    out.fact(m, -q)
    out.integer(2, 1 - q)
    for alpha, mu_j, mu_j1 in _chain_segments(D, tuple(mu)):
        k = mu_j - mu_j1
        if not k:
            continue
        a2 = 2 * alpha.numerator // alpha.denominator
        # angular_pochhammer_factor
        out.rising(a2 + 2 * mu_j1 + 1, 1, 2 * k, q)
        out.rising(2 * q * mu_j1 + a2 + 2, 2, q * k, 1)
        out.fact(k, -q)
        out.rising(a2 + mu_j + mu_j1, 1, k, -q)
        out.rising(a2 + 2 * mu_j1 + 2, 2, k, -q)
        # angular_daoust_factor
        _daoust_digits(
            out, a2 + 2 * q * mu_j1 + 1, 2 * q * mu_j1 + a2 + 1, a2 + mu_j1 + mu_j,
            a2 + 2 * mu_j1 + 1, k, q,
        )
    return out


def w_digits_bound(
    state: HydrogenicState, q: int, spaces: "tuple[str, ...]", enough: float = 0.0
) -> float:
    """An upper bound on the decimal digits of the numerator and of the
    denominator of the radial, angular and total W of each space, for a
    valid state, from the quantum numbers alone.

    A first bound lets no factor cancel another; when it exceeds ``enough``
    the prefactors are reduced exactly by Legendre's formula, which sieves
    the primes up to the largest factorial (the bound is infinite past
    _SIEVE_LIMIT).  The sums are bounded generously either way: the bound
    can exceed the true size of a W with a nontrivial sum severalfold.
    """
    q = _check_integer_order(q)
    if q > _SIEVE_LIMIT:  # q! is in every radial ledger
        return math.inf
    l = state.l
    angular = _angular_digits(state.D, state.mu, q, l)
    radials = [_radial_digits(state, q, space, l) for space in spaces]
    for digits in (_DigitLedger.crude_digits, _DigitLedger.digits):
        an, ad = digits(angular)
        bound = max(max(rn + an, rd + ad) for rn, rd in map(digits, radials))
        if bound <= enough:
            break
    return bound


# -- quasi-spherical shortcuts (l = n-1, whole chain equal) ------------------


def _require_ns_inputs(n: int, D: int, Z) -> tuple[Fraction, Fraction]:
    if n < 1 or D < 2:
        raise ValidationError("ns shortcut needs n >= 1 and D >= 2")
    Z = Fraction(Z)
    if Z <= 0:
        raise ValidationError("ns shortcut needs Z > 0")
    eta = n + Fraction(D - 3, 2)
    return eta, Z


def ns_radial_position_w(n: int, D: int, Z, q: int) -> ExactScalar:
    q = _check_integer_order(q)
    eta, Z = _require_ns_inputs(n, D, Z)
    lam = eta / (2 * Z)
    return (
        ExactScalar.from_rational(lam ** (D * (1 - q)))
        * Fraction(1, math.factorial(2 * n + D - 3) ** q)
        * Fraction(math.factorial(D + 2 * n * q - 2 * q - 1), q ** (D + 2 * n * q - 2 * q))
    )


def ns_angular_w(n: int, D: int, q: int) -> ExactScalar:
    q = _check_integer_order(q)
    l = n - 1
    return (
        ExactScalar.pi_power(D, 2) ** (1 - q)
        * gamma_exact(Fraction(2 * l + D, 2)) ** q
        * Fraction(math.factorial(q * l), math.factorial(l) ** q)
        / gamma_exact(Fraction(2 * q * l + D, 2))
    )


def ns_radial_momentum_w(n: int, D: int, Z, q: int) -> ExactScalar:
    q = _check_integer_order(q)
    eta, Z = _require_ns_inputs(n, D, Z)
    return (
        ExactScalar.from_rational((Z / eta) ** (D * (1 - q)))
        * Fraction(4 ** q * math.factorial(2 * n + D - 3) ** q, 2)
        * gamma_exact(Fraction(D + 2 * q * (n - 1), 2))
        * gamma_exact(Fraction(2 * q * (D + n) - D, 2))
        / (
            gamma_exact(Fraction(2 * n + D - 2, 2)) ** (2 * q)
            * gamma_exact(q * (D + 2 * n - 1))
        )
    )


def ns_position_entropy_exact(n: int, D: int, Z, q: int) -> EntropyValue:
    """Total position entropy of a quasi-spherical state, exact integer q."""
    q = _check_integer_order(q)
    w = ns_radial_position_w(n, D, Z, q) * ns_angular_w(n, D, q)
    return EntropyValue(_entropy_coef(q), w, Fraction(q))


def ns_momentum_entropy_exact(n: int, D: int, Z, q: int) -> EntropyValue:
    """Total momentum entropy of a quasi-spherical state, exact integer q."""
    q = _check_integer_order(q)
    w = ns_radial_momentum_w(n, D, Z, q) * ns_angular_w(n, D, q)
    return EntropyValue(_entropy_coef(q), w, Fraction(q))


def _ns_angular_float(n: int, D: int, q: float) -> float:
    l = n - 1
    return math.log(2.0) + (D / 2.0) * math.log(math.pi) + (
        q * math.lgamma(l + D / 2.0)
        + math.lgamma(q * l + 1.0)
        - q * math.lgamma(l + 1.0)
        - math.lgamma(q * l + D / 2.0)
    ) / (1.0 - q)


def ns_position_entropy(n: int, D: int, Z, q: float) -> float:
    """Total position entropy of a quasi-spherical state, any real q > 0,
    q != 1.  These shortcuts are Gamma-only, so no terminating sums restrict
    the order."""
    q = float(q)
    if q <= 0 or q == 1:
        raise ValueError("need q > 0, q != 1")
    eta, Z = _require_ns_inputs(n, D, Z)
    radial = (
        D * math.log(float(eta) / (2 * float(Z)))
        - q / (1 - q) * math.lgamma(2 * float(eta) + 1)
        + (math.lgamma(D + 2 * n * q - 2 * q) - (D + 2 * n * q - 2 * q) * math.log(q))
        / (1 - q)
    )
    return radial + _ns_angular_float(n, D, q)


def ns_momentum_entropy(n: int, D: int, Z, q: float) -> float:
    """Total momentum entropy of a quasi-spherical state, any real q > 0,
    q != 1; infinite, so a ValueError, for q <= D/(2n+2D) (see
    states.check_momentum_order)."""
    order, q = q, float(q)
    if q <= 0 or q == 1:
        raise ValueError("need q > 0, q != 1")
    eta, Z = _require_ns_inputs(n, D, Z)
    check_momentum_order(D, n - 1, order)
    radial = (
        D * math.log(float(Z) / float(eta))
        + q / (1 - q) * (math.log(4.0) + math.lgamma(2 * float(eta) + 1))
        + (
            math.lgamma(D / 2.0 + q * n - q)
            + math.lgamma(q * (D + n) - D / 2.0)
            - math.log(2.0)
            - 2 * q * math.lgamma(n + D / 2.0 - 1)
            - math.lgamma(q * (D + 2 * n - 1))
        )
        / (1 - q)
    )
    return radial + _ns_angular_float(n, D, q)


def ground_state_radial_position_entropy(D: int, Z, q: float) -> float:
    """Radial position entropy of the ground state.

    The leading term is ln Gamma(D); substituting n = 1 into the
    quasi-spherical formula confirms the logarithm belongs there.
    """
    q = float(q)
    if q <= 0 or q == 1:
        raise ValueError("need q > 0, q != 1")
    _, Z = _require_ns_inputs(1, D, Z)
    return math.lgamma(D) + D * (
        math.log((D - 1) / (4 * float(Z))) - math.log(q) / (1 - q)
    )


def ground_state_radial_position_w(D: int, Z, q: int) -> ExactScalar:
    """Exact entropy argument matching ground_state_radial_position_entropy."""
    q = _check_integer_order(q)
    _, Z = _require_ns_inputs(1, D, Z)
    lam = Fraction(D - 1) / (4 * Z)
    return ExactScalar.from_rational(
        lam ** (D * (1 - q))
        * Fraction(1, math.factorial(D - 1) ** (q - 1))
        * Fraction(1, q**D)
    )


def ground_state_radial_momentum_entropy(D: int, Z, q: float) -> float:
    """Radial momentum entropy of the ground state, Gamma-only form;
    infinite, so a ValueError, for q <= D/(2D+2)."""
    order, q = q, float(q)
    if q <= 0 or q == 1:
        raise ValueError("need q > 0, q != 1")
    _, Z = _require_ns_inputs(1, D, Z)
    check_momentum_order(D, 0, order)
    return (
        D * math.log(2 * float(Z) / (D - 1))
        + q / (1 - q) * (math.log(4.0) + math.lgamma(D))
        + (
            (1 - 2 * q) * math.lgamma(D / 2.0)
            + math.lgamma(D * (q - 0.5) + q)
            - math.log(2.0)
            - math.lgamma(D * q + q)
        )
        / (1 - q)
    )


# -- position-momentum uncertainty sum ---------------------------------------


class UncertaintySum(NamedTuple):
    total: float
    bound: float
    satisfied: bool


UNCERTAINTY_TOLERANCE = 1e-9


def conjugate_order(q: Fraction) -> Fraction:
    """The order p with 1/p + 1/q = 2."""
    q = Fraction(q)
    if q <= Fraction(1, 2):
        raise ValueError(f"conjugate order undefined for q <= 1/2, got {q}")
    if q == 1:
        raise ValueError("q = 1 is excluded")
    return q / (2 * q - 1)


def uncertainty_bound(D: int, q: Fraction) -> float:
    q = Fraction(q)
    p = conjugate_order(q)
    return D * (
        math.log(2 * math.pi)
        + math.log(2 * float(q)) / (2 - 2 * float(q))
        + math.log(2 * float(p)) / (2 - 2 * float(p))
    )


def uncertainty_sum(state: HydrogenicState, q) -> UncertaintySum:
    """Joint position-momentum Renyi sum against its dimensional lower bound.

    Exact closed forms serve integer orders >= 2; the conjugate side falls
    back to the floating integration oracle otherwise.
    """
    from hydrenyi import oracle

    q = Fraction(q)
    p = conjugate_order(q)
    validate(state)
    if q.denominator == 1 and q >= 2:
        position = position_entropy(state, int(q)).total.value
    else:
        position = oracle.renyi_float(state, q, "position").value
    if p.denominator == 1 and p >= 2:
        momentum = momentum_entropy(state, int(p)).total.value
    else:
        momentum = oracle.renyi_float(state, p, "momentum").value
    total = position + momentum
    bound = uncertainty_bound(state.D, q)
    return UncertaintySum(total, bound, total >= bound - UNCERTAINTY_TOLERANCE)


def ns_uncertainty_sum(n: int, D: int, Z, q) -> UncertaintySum:
    """Uncertainty sum for a quasi-spherical state from the Gamma-only
    shortcuts; usable at any D without quadrature."""
    q = Fraction(q)
    p = conjugate_order(q)
    total = ns_position_entropy(n, D, Z, float(q)) + ns_momentum_entropy(
        n, D, Z, float(p)
    )
    bound = uncertainty_bound(D, q)
    return UncertaintySum(total, bound, total >= bound - UNCERTAINTY_TOLERANCE)
