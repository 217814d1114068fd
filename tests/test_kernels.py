"""The polynomial-power kernel against the brute-force box sum.

``reference.multi_index_sum`` walks every point of the box with
from-scratch Pochhammer products, so it shares nothing with the kernel but
the spec.
"""

import ast
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
    srivastava_daoust,
)

from reference import multi_index_sum

F = Fraction


def _axis_term(upper, lower, x, j):
    value = x**j / math.factorial(j)
    for u in upper:
        value *= pochhammer(u, j)
    for v in lower:
        value /= pochhammer(v, j)
    return value


def _random_instances(seed, count):
    """(name, kernel value, brute-force value on the expanded box) for one
    set of 1 to 5 identical axes: bound, c and e possibly negative, x
    possibly 0."""
    rng = random.Random(seed)
    seen = set()
    done = 0
    while done < count:
        bound, mult = rng.randint(0, 3), rng.randint(1, 5)
        c = F(rng.randint(-6, 7), rng.choice([1, 2]))
        e = F(rng.randint(-6, 7), rng.choice([1, 2]))
        x = F(rng.randint(-3, 3), rng.randint(1, 4))
        a = F(rng.randint(-4, 9), rng.choice([1, 2]))
        d0 = F(rng.randint(-6, 9), rng.choice([1, 2]))
        if rng.random() < 0.5:
            spec = LauricellaSpec(a, -bound, c, x, mult)
            run = lauricella_fa

            def term(idx, a=a, bound=bound, c=c, x=x):
                value = pochhammer(a, sum(idx))
                for j in idx:
                    value *= _axis_term([-bound], [c], x, j)
                return value

        else:
            spec = SrivastavaDaoustSpec(a, d0, -bound, c, e, x, mult)
            run = srivastava_daoust

            def term(idx, a=a, d0=d0, bound=bound, c=c, e=e, x=x):
                value = pochhammer(a, sum(idx)) / pochhammer(d0, sum(idx))
                for j in idx:
                    value *= _axis_term([-bound, c], [e], x, j)
                return value

        try:
            value = run(spec)
        except HypergeometricSpecError:
            continue
        bounds = [bound] * mult
        assert spec.bounds() == bounds
        done += 1
        seen.add(("multiplicity 1", mult == 1))
        seen.add(("identical", mult > 1))
        seen.add(("x=0", x == 0 and bound > 0))
        seen.add(("x<0", x < 0 and bound > 0))
        seen.add(("negative c/e", min(c, e) < 0 and bound > 0))
        yield run.__name__, value, multi_index_sum(bounds, term)
    assert {flag for flag, hit in seen if hit} == {
        "multiplicity 1", "identical", "x=0", "x<0", "negative c/e"
    }


def test_backend_is_python():
    assert kernels.BACKEND == "python"


def test_matches_brute_force_box_sum():
    names = set()
    for name, value, direct in _random_instances(20240817, 150):
        names.add(name)
        assert value == direct, name
    assert names == {"lauricella_fa", "srivastava_daoust"}


def _repeated_product(p, r):
    expected = [1]
    for _ in range(r):
        product = [0] * (len(expected) + len(p) - 1)
        for i, a in enumerate(expected):
            for j, b in enumerate(p):
                product[i + j] += a * b
        expected = product
    return expected


@pytest.mark.parametrize("seed", range(5))
def test_power_matches_repeated_product(seed):
    rng = random.Random(seed)
    p = [rng.choice([-3, 1, 2, 5])]
    p += [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))]
    r = rng.randint(1, 6)
    assert kernels.power(p, r) == _repeated_product(p, r)


@given(
    st.sampled_from([-3, -1, 1, 2, 5]),
    st.lists(st.sampled_from([0, 0, 0, -7, -1, 1, 4]), max_size=8),
    st.integers(min_value=1, max_value=7),
)
def test_power_skips_zero_coefficients(p0, rest, r):
    # the loop runs over the nonzero coefficients only, and stops at the
    # first one past s
    p = [p0] + rest
    assert kernels.power(p, r) == _repeated_product(p, r)


@pytest.mark.parametrize("p", [[1, 0, 0, 3], [2, 0, 5, 0], [-1, 0, 0, 0, 0, 7], [3, 0, 0]])
def test_power_with_zero_interior_coefficients(p):
    for r in range(1, 7):
        assert kernels.power(p, r) == _repeated_product(p, r)


def test_work_counts_miller_loop():
    for k in range(5):
        for r in range(1, 8):
            inner = 0 if r == 1 else sum(min(s, k) for s in range(1, r * k + 1))
            assert kernels.power_products(k, r) == inner
            # the power, then four operations per step of the sum of its
            # r k + 1 coefficients against g
            work = kernels.coupled_sum_work(k, r, 10, 7)
            assert work == inner * 10 + 4 * (r * k + 1) * 17


@given(
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6).filter(lambda p: p[0]),
    st.integers(1, 8),
)
def test_power_bits_bound_every_coefficient(p, r):
    bits = kernels.power_bits(p, r)
    assert all(abs(c).bit_length() <= bits for c in kernels.power(p, r))


def test_oracle_keeps_its_own_convolution():
    assert "kernels" not in inspect.getsource(oracle)


def test_poly_pow_keeps_its_own_recurrence():
    assert "kernels" not in inspect.getsource(polynomials.poly_pow)


def test_oracle_modules_import_no_sum_layer():
    # the oracle checks the closed forms, so neither it nor the module of
    # its polynomials may import the code that evaluates them
    for module in (oracle, polynomials):
        imported = set()
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module)
                imported.update(f"{node.module}.{alias.name}" for alias in node.names)
        assert not imported & {"hydrenyi.kernels", "hydrenyi.hyperfun"}, module.__name__


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
