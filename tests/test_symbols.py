"""Exhaustive sweeps of the pointed 6j/R symbol calculus.

The quantifier ranges mirror how the scalars arise from an invertible object
of order M: its self-braiding eigenvalue q is an M-th root of unity when M
is odd and a 2M-th root when M is even.  (For odd M, a q of even order can
satisfy gcd(A+1, M) = 1 while q^M != 1, but no invertible object of odd
order realises such a q, so those pairs are outside every sweep.)
"""

from math import gcd

import pytest

from simplecurrents import currents
from simplecurrents.angles import RationalAngle, ZERO_ANGLE, angle
from simplecurrents.modular import InvertibleProfile


def realisable_qs(m):
    """All q that can be the self-braiding eigenvalue of an order-m object."""
    d = m if m % 2 else 2 * m
    return [angle(c, d) for c in range(d)]


def profile_for(m, q):
    q2 = q + q
    assert m % q2.order == 0
    return InvertibleProfile(g=0, label="g", M=m, q=q, q_squared=q2, A=m // q2.order)


def totient(n):
    return sum(1 for i in range(1, n + 1) if gcd(i, n) == 1)


class TestAlphaSymbol:
    def test_trivial_branch(self):
        assert currents.alpha_symbol(1, 1, 1, angle(3, 4), 4) == ZERO_ANGLE

    def test_wrap_branch_vanishes_for_mth_root(self):
        # n + p >= M picks up q^(M m), trivial whenever q^M = 1
        assert currents.alpha_symbol(1, 2, 2, angle(1, 3), 3) == ZERO_ANGLE

    def test_out_of_range_grades_canonicalise(self):
        assert currents.alpha_symbol(1, 3, 2, angle(1, 3), 3) == ZERO_ANGLE

    def test_zero_grade(self):
        assert currents.alpha_symbol(0, 3, 2, angle(1, 5), 5) == ZERO_ANGLE

    def test_wrap_branch_nontrivial(self):
        # q = i, M = 2: the associator picks up q^2 = -1
        assert currents.alpha_symbol(1, 1, 1, angle(1, 4), 2) == angle(1, 2)

    def test_order_validation(self):
        with pytest.raises(ValueError):
            currents.alpha_symbol(0, 0, 0, ZERO_ANGLE, 0)


class TestHexagon:
    def test_examples(self):
        assert currents.hexagon_holds(angle(3, 4), 4)
        assert not currents.hexagon_holds(angle(1, 4), 2)
        assert currents.hexagon_holds(ZERO_ANGLE, 7)

    def test_equivalent_to_all_alphas_trivial(self):
        for m in range(1, 7):
            for q in realisable_qs(m):
                all_trivial = all(
                    currents.alpha_symbol(a, b, c, q, m).is_zero
                    for a in range(m) for b in range(m) for c in range(m)
                    if b + c >= m) if m > 1 else True
                assert currents.hexagon_holds(q, m) == all_trivial or m == 1

    def test_coprimality_implies_hexagon_sweep(self):
        # gcd(A+1, M) = 1 forces q^M = 1, over every realisable q with M <= 24
        checked = 0
        for m in range(1, 25):
            for q in realisable_qs(m):
                p = profile_for(m, q)
                if currents.exists_autoequivalence(p):
                    assert currents.hexagon_holds(q, m), (m, str(q))
                    checked += 1
        assert checked > 100

    def test_odd_order_constraint_is_needed(self):
        # q = -1 with M = 3 passes the gate but fails the hexagon; such a q
        # never arises from an order-3 invertible, which is why the sweep
        # range restricts odd M to M-th roots.
        q = angle(1, 2)
        a = 3 // (q + q).order
        assert gcd(a + 1, 3) == 1
        assert not currents.hexagon_holds(q, 3)


class TestBraidedCondition:
    def test_symbol_examples(self):
        assert currents.braided_symbol_condition(angle(1, 4), angle(3, 4), 4)
        assert not currents.braided_symbol_condition(angle(3, 4), angle(3, 4), 4)
        assert currents.braided_symbol_condition(ZERO_ANGLE, ZERO_ANGLE, 1)

    def test_table_matches_symbol_condition_sweep(self):
        # the four-case table equals the exhaustive symbol condition on every
        # admissible (profile, zeta) with M <= 30, the largest invertible order
        # among the benchmark's categories (SU(30)_1, SU(2)xSU(3)xSU(5) at
        # level 1), and solutions exist only at M in {1, 2, 3, 4} with the
        # published (q, zeta) pairs
        solutions = set()
        for m in range(1, 31):
            for q in realisable_qs(m):
                p = profile_for(m, q)
                if not currents.exists_autoequivalence(p):
                    continue
                for zeta in currents.admissible_zetas(p):
                    table = currents.classify_braided(p, zeta)
                    symbol = currents.braided_symbol_condition(zeta, q, m)
                    assert table == symbol, (m, str(q), str(zeta))
                    if table:
                        solutions.add((m, q.pair, zeta.pair))
        assert solutions == {
            (1, (0, 1), (0, 1)),
            (2, (1, 2), (1, 2)),
            (3, (1, 3), (2, 3)),
            (3, (2, 3), (1, 3)),
            (4, (1, 4), (3, 4)),
            (4, (3, 4), (1, 4)),
        }


class TestEpsilonScalar:
    def test_empty_sum(self):
        assert currents.epsilon_scalar(angle(3, 4), 2, 1) == ZERO_ANGLE

    def test_k2_value(self):
        # exponent is (A+1)^1 = 3, so epsilon = q^(-3) = -i for q = -i
        assert currents.epsilon_scalar(angle(3, 4), 2, 2) == angle(3, 4)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            currents.epsilon_scalar(ZERO_ANGLE, 1, 0)

    def test_trivial_for_odd_k_sweep(self):
        # whenever (A+1)^K = 1 mod A*M with K odd, the scalar is 1
        checked = 0
        for m in range(1, 25):
            for q in realisable_qs(m):
                p = profile_for(m, q)
                if not currents.exists_autoequivalence(p):
                    continue
                mod = p.A * m
                for k in (1, 3, 5, 7, 9):
                    if pow(p.A + 1, k, mod) == 1 % mod:
                        assert currents.epsilon_scalar(q, p.A, k).is_zero, (m, str(q), k)
                        checked += 1
        assert checked > 30

    def test_matches_unreduced_exponent_at_large_k(self):
        # the exponent reduced mod the order of q gives the same angle as the
        # unreduced big-integer sum of (A+1)^j
        q, a, k = angle(5, 12), 2, 120
        exponent = sum((a + 1) ** j for i in range(1, k) for j in range(i, 2 * i))
        assert exponent.bit_length() > 300
        assert currents.epsilon_scalar(q, a, k) == q * (-exponent)

    def test_even_k_can_be_nontrivial(self):
        assert not currents.epsilon_scalar(angle(3, 4), 2, 2).is_zero


class TestOrderBoundArithmetic:
    def test_divides_euler_totient(self):
        for m in range(1, 13):
            for q in realisable_qs(m):
                p = profile_for(m, q)
                if not currents.exists_autoequivalence(p):
                    continue
                k0 = currents.order_bound(p)
                phi = totient(p.A * m)
                assert phi % k0 == 0, (m, str(q))

    def test_euler_fallback_satisfies_congruence(self):
        for m in range(1, 13):
            for q in realisable_qs(m):
                p = profile_for(m, q)
                if not currents.exists_autoequivalence(p):
                    continue
                mod = p.A * m
                assert pow(p.A + 1, totient(mod), mod) == 1 % mod
