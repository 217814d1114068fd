"""Acceptance criteria, one test per criterion.

Every tolerance is pinned here: structural equality means zero tolerance on
exact values; floating checks carry the stated numeric bounds.  Each test
prints one [PASS]/[FAIL] line (run pytest -s to see them inline).
"""

import contextlib
import json
import time
from fractions import Fraction

import pytest

from hydrenyi import oracle
from hydrenyi.entropy import (
    momentum_entropy,
    ns_momentum_entropy_exact,
    ns_position_entropy_exact,
    position_entropy,
    radial_position_entropy,
    uncertainty_sum,
)
from hydrenyi.exactnum import ExactScalar, parse_scalar
from hydrenyi.polynomials import laguerre, poly_pow
from hydrenyi.states import HydrogenicState, enumerate_states

from reference import (
    ground_state_radial_position_w,
    jacobi,
    jacobi_power_linearization,
    laguerre_power_linearization,
    ns_uncertainty_sum,
)

F = Fraction


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name}")


TABLE_POSITION = {
    (1, 0, 0): "8*pi",
    (2, 0, 0): "2048/5*pi",
    (3, 0, 0): "20736/5*pi",
    (2, 1, 0): "2048/9*pi",
    (2, 1, 1): "1024/3*pi",
    (3, 1, 0): "27648/11*pi",
    (3, 1, 1): "41472/11*pi",
    (3, 2, 0): "9216/5*pi",
    (3, 2, 1): "13824/5*pi",
    (3, 2, 2): "13824/5*pi",
}

TABLE_MOMENTUM = {
    (1, 0, 0): "16/33*pi^2",
    (2, 0, 0): "2/151*pi^2",
    (3, 0, 0): "16/7533*pi^2",
    (2, 1, 0): "2/39*pi^2",
    (2, 1, 1): "1/13*pi^2",
    (3, 1, 0): "160/36207*pi^2",
    (3, 1, 1): "80/12069*pi^2",
    (3, 2, 0): "1120/78489*pi^2",
    (3, 2, 1): "560/26163*pi^2",
    (3, 2, 2): "560/26163*pi^2",
}


def _sweep_states():
    for D in (2, 3, 4, 5):
        yield from enumerate_states(D, 4)


def test_table1_position_reproduction():
    with criterion("Table 1: exact position entropies, D=3, Z=1, q=2"):
        started = time.perf_counter()
        for (n, l, m), expected in TABLE_POSITION.items():
            total = position_entropy(HydrogenicState(3, n, (l, m), 1), 2).total
            assert total.w == parse_scalar(expected).inverse(), (n, l, m)
            assert total.exact_str() == f"ln({expected})"
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"table took {elapsed:.3f}s"


def test_table2_momentum_reproduction():
    with criterion("Table 2: exact momentum entropies, D=3, Z=1, q=2"):
        started = time.perf_counter()
        for (n, l, m), expected in TABLE_MOMENTUM.items():
            total = momentum_entropy(HydrogenicState(3, n, (l, m), 1), 2).total
            assert total.w == parse_scalar(expected).inverse(), (n, l, m)
            assert total.exact_str() == f"ln({expected})"
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"table took {elapsed:.3f}s"


def test_oracle_equivalence_sweep():
    with criterion("Oracle sweep: closed-form W == brute-force W, both spaces"):
        started = time.perf_counter()
        triples = 0
        for state in _sweep_states():
            for q in (2, 3):
                verdict = oracle.verify_state(state, q)
                assert verdict.all_equal, json.dumps(verdict.to_dict(), sort_keys=True)
                triples += 2  # one per space
        elapsed = time.perf_counter() - started
        assert triples >= 400, f"only {triples} triples"
        assert elapsed < 600.0, f"sweep took {elapsed:.1f}s"


def test_normalization_at_first_order():
    with criterion("Normalization: every oracle W equals 1 at q=1"):
        one = ExactScalar(1)
        for state in _sweep_states():
            assert oracle.radial_position_w_exact(state, 1) == one, state.literal()
            assert oracle.radial_momentum_w_exact(state, 1) == one, state.literal()
            assert oracle.angular_w_exact(state.D, state.mu, 1) == one, state.literal()


def test_linearization_closure():
    with criterion("Linearization closure: k,kappa <= 3 and r,2q <= 6, exact"):
        laguerre_params = [
            (0, F(1), F(0), F(0)),
            (1, F(1, 2), F(1), F(1)),
            (2, F(1), F(2), F(1, 2)),
            (0, F(1, 3), F(3, 2), F(3, 2)),
            (2, F(1, 2), F(0), F(2)),
            (1, F(2), F(5, 2), F(1)),
        ]
        for k in range(4):
            for r in range(1, 7):
                a, t, alpha, gamma = laguerre_params[(k + r) % len(laguerre_params)]
                i_max = a + r * k
                coeffs = laguerre_power_linearization(a, r, t, k, alpha, gamma, i_max)
                rebuilt = sum(
                    (laguerre(i, gamma) * c for i, c in enumerate(coeffs)),
                    start=laguerre(0, gamma) * 0,
                )
                target = poly_pow(laguerre(k, alpha).scale_arg(t), r).shift_degree(a)
                assert rebuilt == target, (a, r, t, k, alpha, gamma)

        jacobi_params = [
            (F(0), F(0), F(0), F(0)),
            (F(1, 2), F(1, 2), F(3, 2), F(3, 2)),
            (F(1), F(1, 2), F(1, 2), F(0)),
        ]
        for kappa in range(4):
            for q in (1, 2, 3):
                alpha, beta, gamma, delta = jacobi_params[(kappa + q) % 3]
                i_max = 2 * q * kappa
                coeffs = jacobi_power_linearization(
                    kappa, q, alpha, beta, gamma, delta, i_max
                )
                rebuilt = sum(
                    (jacobi(i, gamma, delta) * c for i, c in enumerate(coeffs)),
                    start=jacobi(0, gamma, delta) * 0,
                )
                target = poly_pow(jacobi(kappa, alpha, beta), 2 * q)
                assert rebuilt == target, (kappa, q, alpha, beta, gamma, delta)


def _canonical_states(D, n_max):
    seen = set()
    for state in enumerate_states(D, n_max):
        canonical = state.canonical_mu()
        key = (state.n, canonical)
        if key in seen:
            continue
        seen.add(key)
        yield HydrogenicState(D, state.n, canonical, state.Z)


def test_uncertainty_bound():
    with criterion("Uncertainty sum >= dimensional bound; large-D gap shrinks"):
        started = time.perf_counter()
        for D in (3, 5):
            for state in _canonical_states(D, 3):
                for q in (2, 3):
                    result = uncertainty_sum(state, q)
                    assert result.total >= result.bound - 1e-8, (
                        state.literal(),
                        q,
                        result,
                    )
        gaps = []
        for D in (3, 10, 20, 40, 60):
            result = ns_uncertainty_sum(1, D, 1, 2)
            gaps.append((result.total - result.bound) / D)
        assert all(a > b for a, b in zip(gaps, gaps[1:])), gaps
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"uncertainty checks took {elapsed:.1f}s"


def test_ns_consistency():
    with criterion("Quasi-spherical shortcuts equal the general closed forms"):
        for D in range(2, 7):
            for n in range(1, 5):
                state = HydrogenicState(D, n, (n - 1,) * (D - 1), 1)
                for q in (2, 3):
                    assert (
                        ns_position_entropy_exact(n, D, 1, q).w
                        == position_entropy(state, q).total.w
                    ), (D, n, q)
                    assert (
                        ns_momentum_entropy_exact(n, D, 1, q).w
                        == momentum_entropy(state, q).total.w
                    ), (D, n, q)
        # ground-state radial form, with the log taken of Gamma(D)
        for D in range(2, 7):
            for q in (2, 3):
                ground = HydrogenicState(D, 1, (0,) * (D - 1), 1)
                assert ground_state_radial_position_w(D, 1, q) == (
                    radial_position_entropy(ground, q).w
                ), (D, q)


def test_z_scaling():
    with criterion("Charge scaling: R+D ln Z and R-D ln Z are Z-free, exactly"):
        charges = (F(1), F(2), F(5, 2))
        for D, chain, n in [(3, (1, 0), 2), (4, (2, 1, 0), 3), (2, (1,), 3)]:
            for q in (2, 3):
                reference_pos = None
                reference_mom = None
                for Z in charges:
                    state = HydrogenicState(D, n, chain, Z)
                    pos = position_entropy(state, q).total.w * Z ** (D * (1 - q))
                    mom = momentum_entropy(state, q).total.w * Z ** (D * (q - 1))
                    if reference_pos is None:
                        reference_pos, reference_mom = pos, mom
                    else:
                        assert pos == reference_pos, (D, chain, q, Z)
                        assert mom == reference_mom, (D, chain, q, Z)
        sums = [
            uncertainty_sum(HydrogenicState(3, 2, (1, 0), Z), 2).total
            for Z in charges
        ]
        assert max(sums) - min(sums) <= 1e-9, sums
