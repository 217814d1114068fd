"""The polynomial-product kernel against the brute-force box sum.

``multi_index_sum`` walks every point of the box with from-scratch
Pochhammer products, so it shares nothing with the kernel but the spec.
"""

import inspect
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hydrenyi import kernels, oracle, polynomials
from hydrenyi.exactnum import pochhammer
from hydrenyi.hyperfun import (
    HypergeometricSpecError,
    LauricellaSpec,
    SrivastavaDaoustSpec,
    lauricella_fa,
    multi_index_sum,
    srivastava_daoust,
)

F = Fraction


def _random_groups(rng):
    """Groups of identical axes, at most 5 axes in all: (bound, c, e, x,
    multiplicity), c and e possibly negative, x possibly 0."""
    groups, axes = [], 0
    while not groups or (axes < 5 and rng.random() < 0.5):
        mult = min(rng.randint(1, 3), 5 - axes)
        groups.append(
            (
                rng.randint(0, 3),
                F(rng.randint(-6, 7), rng.choice([1, 2])),
                F(rng.randint(-6, 7), rng.choice([1, 2])),
                F(rng.randint(-3, 3), rng.randint(1, 4)),
                mult,
            )
        )
        axes += mult
    return groups


def _axis_term(upper, lower, x, j):
    value = x**j / math.factorial(j)
    for u in upper:
        value *= pochhammer(u, j)
    for v in lower:
        value /= pochhammer(v, j)
    return value


def _random_instances(seed, count):
    """(name, group-form value, brute-force value on the expanded box)."""
    rng = random.Random(seed)
    seen = set()
    done = 0
    while done < count:
        groups = _random_groups(rng)
        # the box of the groups, one entry per axis
        axes = [group[:4] for group in groups for _ in range(group[4])]
        bounds = [bound for bound, *_ in axes]
        a = F(rng.randint(-4, 9), rng.choice([1, 2]))
        d0 = F(rng.randint(-6, 9), rng.choice([1, 2]))
        if rng.random() < 0.5:
            spec = LauricellaSpec(a, [(-b, c, x, mult) for b, c, _, x, mult in groups])
            run = lauricella_fa

            def term(idx, axes=axes, a=a):
                value = pochhammer(a, sum(idx))
                for (bound, c, _, x), j in zip(axes, idx):
                    value *= _axis_term([-bound], [c], x, j)
                return value

        else:
            spec = SrivastavaDaoustSpec(
                a, d0, [(-b, c, e, x, mult) for b, c, e, x, mult in groups]
            )
            run = srivastava_daoust

            def term(idx, axes=axes, a=a, d0=d0):
                value = pochhammer(a, sum(idx)) / pochhammer(d0, sum(idx))
                for (bound, c, e, x), j in zip(axes, idx):
                    value *= _axis_term([-bound, c], [e], x, j)
                return value

        try:
            value = run(spec)
        except HypergeometricSpecError:
            continue
        assert spec.bounds() == bounds
        done += 1
        mults = [group[4] for group in groups]
        seen.add(("multiplicity 1", 1 in mults))
        seen.add(("identical", max(mults) > 1))
        seen.add(("mixed", len(groups) > 1 and max(mults) > 1))
        seen.add(("x=0", any(x == 0 and b > 0 for b, *_, x in axes)))
        seen.add(("x<0", any(x < 0 and b > 0 for b, *_, x in axes)))
        seen.add(("negative c/e", any(min(c, e) < 0 and b > 0 for b, c, e, _ in axes)))
        yield run.__name__, value, multi_index_sum(bounds, term)
    assert {flag for flag, hit in seen if hit} == {
        "multiplicity 1", "identical", "mixed", "x=0", "x<0", "negative c/e"
    }


def test_backend_is_python():
    assert kernels.BACKEND == "python"


def test_matches_brute_force_box_sum():
    names = set()
    for name, value, direct in _random_instances(20240817, 150):
        names.add(name)
        assert value == direct, name
    assert names == {"lauricella_fa", "srivastava_daoust"}


@pytest.mark.parametrize("seed", range(5))
def test_power_matches_repeated_product(seed):
    rng = random.Random(seed)
    p = [rng.choice([-3, 1, 2, 5])]
    p += [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]
    r = rng.randint(1, 6)
    expected = [1]
    for _ in range(r):
        expected = kernels.multiply(expected, p)
    assert kernels.power(p, r) == expected


def test_work_counts_miller_loop():
    for k in range(5):
        for r in range(1, 8):
            inner = 0 if r == 1 else sum(min(s, k) for s in range(1, r * k + 1))
            assert kernels.power_products(k, r) == inner
    # two groups: the powers, one product of the powers, the final sum
    assert kernels.coupled_sum_products([(2, 3), (1, 1)]) == 11 + 7 * 2 + 8


def test_oracle_keeps_its_own_convolution():
    assert "kernels" not in inspect.getsource(oracle)


def test_poly_pow_keeps_its_own_recurrence():
    assert "kernels" not in inspect.getsource(polynomials.poly_pow)


_params = st.lists(st.fractions(min_value=-12, max_value=12, max_denominator=7), max_size=3)


@given(_params, _params, st.fractions(min_value=-5, max_value=5, max_denominator=9),
       st.integers(min_value=0, max_value=7))
def test_rising_steps_match_the_per_step_products(upper, lower, x, count):
    scale_num = x.numerator * math.prod(v.denominator for v in lower)
    scale_den = x.denominator * math.prod(u.denominator for u in upper)
    assert kernels.rising_steps(upper, lower, x, count) == [
        (
            scale_num * math.prod(u.numerator + j * u.denominator for u in upper),
            scale_den * math.prod(v.numerator + j * v.denominator for v in lower),
        )
        for j in range(count)
    ]
