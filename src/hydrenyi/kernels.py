"""Terminating hypergeometric sums as one univariate polynomial power.

The Lauricella F_A and Srivastava-Daoust sums used here have r identical
axes and the form

    F = sum over 0 <= j_i <= k of g(|j|) * prod_i f(j_i),

where the coupled factor g depends on the multi-index only through
|j| = j_1 + ... + j_r, and f(j) = h(j) x^j.  Hence
F = sum_s g(s) x^s [u^s] Q(u)^r with Q(u) = sum_j h(j) u^j, and Q is raised
to its power by J.C.P. Miller's recurrence for powers of a power series
(Knuth, TAOCP vol. 2, sec. 4.7).  The cost is polynomial in k and r, not
the (k + 1)^r terms of the box.

The axis term sequence is held as integers over one common denominator
and reduced by its content once, which keeps the input to the power small;
the argument x stays out of it, since x = 1/q would add bits to every
coefficient of the power.  The power and the sum after it take no gcd.
The coupled factor is never tabulated: the sum against g(s) x^s runs by
nested evaluation from the top coefficient down, and the caller reduces the
final ratio once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

BACKEND = "python"


def rising_steps(
    upper: Sequence[Fraction], lower: Sequence[Fraction], x: Fraction, count: int
) -> list[tuple[int, int]]:
    """Integer (numerator, denominator) pairs of the term ratios
    prod (u + j) / prod (v + j) * x for j = 0..count-1, built one parameter
    at a time over all j."""
    nums = [x.numerator * math.prod(v.denominator for v in lower)] * count
    dens = [x.denominator * math.prod(u.denominator for u in upper)] * count
    for u in upper:
        a, b = u.numerator, u.denominator
        nums = [c * (a + j * b) for j, c in enumerate(nums)]
    for v in lower:
        a, b = v.numerator, v.denominator
        dens = [c * (a + j * b) for j, c in enumerate(dens)]
    return list(zip(nums, dens))


def hypergeometric_terms(steps: Sequence[tuple[int, int]]) -> tuple[list[int], int]:
    """Integers T_0..T_K and a denominator d such that T_j / d is the
    product of the first j step ratios; every denominator must be nonzero."""
    suffix = [1]
    for _, den in reversed(steps):
        suffix.append(suffix[-1] * den)
    suffix.reverse()
    terms, prefix = [], 1
    for j, (num, _) in enumerate(steps):
        terms.append(prefix * suffix[j])
        prefix *= num
    terms.append(prefix)
    common = math.gcd(*terms, suffix[0])
    return [t // common for t in terms], suffix[0] // common


def power(p: Sequence[int], r: int) -> list[int]:
    """Coefficients of p(t)**r for r >= 1 and p[0] != 0, by Miller's
    recurrence s p_0 c_s = sum_j ((r+1) j - s) p_j c_{s-j}, over the nonzero
    p_j only."""
    if r == 1:
        return list(p)
    k = len(p) - 1
    p0 = p[0]
    steps = [(j, (r + 1) * j, c) for j, c in enumerate(p) if j and c]
    out = [p0**r]
    for s in range(1, r * k + 1):
        acc = 0
        for j, weight, c in steps:
            if j > s:
                break
            acc += (weight - s) * c * out[s - j]
        # exact: the coefficients of an integer polynomial's power are integers
        out.append(acc // (s * p0))
    return out


def power_products(k: int, r: int) -> int:
    """Coefficient products power() does for a degree-k polynomial with no
    zero coefficient."""
    if r == 1:
        return 0
    return k * (k + 1) // 2 + (r - 1) * k * k


def coupled_sum_work(k: int, r: int, bits: int, g_bits: int) -> int:
    """The work of coupled_sum for r axes of bound k, as integer operations
    times the bits they touch: the power's coefficient products on at most
    ``bits`` bits, then four operations per step of the sum against the
    coupled factor (two products, a sum and the growth of g's denominator)
    on at most bits + g_bits, g_bits bounding that denominator's bits."""
    return power_products(k, r) * bits + 4 * (r * k + 1) * (bits + g_bits)


def power_bits(p: Sequence[int], r: int) -> int:
    """A bound on the bit length of every coefficient of p(t)**r, each of
    which is at most (sum |p_j|)**r in absolute value."""
    return r * sum(map(abs, p)).bit_length()


def coupled_sum(
    coupled_upper: Sequence[Fraction],
    coupled_lower: Sequence[Fraction],
    upper: Sequence[Fraction],
    lower: Sequence[Fraction],
    x: Fraction,
    bound: int,
    mult: int,
    check_work: Callable[[int], None],
) -> tuple[int, int]:
    """Numerator and denominator (not reduced) of
    sum_s g(s) x^s [u^s] Q(u)**mult, with g(s) = prod (a)_s / prod (d)_s over
    the coupled parameters and Q(u) = sum_j prod (u)_j / prod (v)_j u^j for
    0 <= j <= bound.

    The sum against g(s) x^s runs by nested evaluation from the top,
    c_s + (n_s / d_s) * (c_{s+1} + ...), in integers and with no gcd.

    check_work may refuse before each stage.  Each of the bound + 1 axis
    terms is a product of up to all the steps' integers, at least one bit
    each before the steps are listed and their bits once they are; then the
    power's products, before g's mult * bound steps are listed; and then the
    whole coupled_sum_work."""
    check_work((bound + 1) * bound)
    steps = rising_steps(upper, lower, Fraction(1), bound)
    check_work((bound + 1) * sum(n.bit_length() + d.bit_length() for n, d in steps))
    terms, den = hypergeometric_terms(steps)
    bits = power_bits(terms, mult)
    check_work(power_products(bound, mult) * bits)
    g_steps = rising_steps(coupled_upper, coupled_lower, x, bound * mult)
    check_work(coupled_sum_work(bound, mult, bits, sum(d.bit_length() for _, d in g_steps)))
    *rest, num = power(terms, mult)
    g_den = 1
    for c, (n, d) in zip(reversed(rest), reversed(g_steps)):
        g_den *= d
        num = c * g_den + n * num
    return num, den**mult * g_den
