"""Acceptance gate: one test per published-example criterion, plus the
abstract property suites and a cold high-rank build.  Each test prints a
pass/fail line; run with

    pytest tests/test_acceptance.py -v -s

Criterion 3 carries one strict-xfail companion: the claim that the two
order-3 auto-equivalences of the 21-object category are not braided
contradicts the braided classification table (at M = 3 the unique
admissible zeta is q^{-1}, which the table accepts), so that clause is
recorded as an expected failure rather than weakened.
"""

import time
from contextlib import contextmanager
from math import gcd

import pytest

from simplecurrents import (catfile, currents, fusion, golden, groups, lie,
                            modular)
from simplecurrents.angles import ZERO_ANGLE, angle
from simplecurrents.modular import InvertibleProfile

_timings: dict[str, float] = {}


@contextmanager
def criterion(name: str, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - t0
    _timings[name] = elapsed
    print(f"[acceptance] {name}: PASS ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"{name} took {elapsed:.2f}s, budget {budget}s"


def fresh(family, rank, level):
    """A cold build: the weight-diagram cache emptied first."""
    lie.weight_multiplicities.cache_clear()
    return modular.build_wzw_data(lie.lie_algebra(family, rank), level)


def test_criterion_1_sl4_level2_golden():
    with criterion("criterion 1 (sl4 level 2 golden data)", budget=1.0):
        data = fresh("A", 3, 2)
        ok, lines = golden.reproduce_sl4_level2()
        assert ok, "\n".join(lines)
        # spot-check the clauses directly, independent of the report
        assert data.size == 10
        g = data.ring.index("2L1")
        p = currents.profile(data, g)
        assert (p.M, p.q, p.A) == (4, angle(3, 4), 2)
        assert currents.admissible_zetas(p) == [angle(1, 4), angle(3, 4)]
        ae_i = currents.construct_autoeq(data, g, angle(1, 4))
        assert ae_i.braided and ae_i.permutation == data.ring.dual


def test_criterion_2_klein_four():
    with criterion("criterion 2 (Klein four-group of composites)"):
        data = modular.build_wzw_data(lie.lie_algebra("A", 3), 2)
        g = data.ring.index("2L1")
        identity = tuple(range(data.size))
        ae_i = currents.construct_autoeq(data, g, angle(1, 4))
        ae_mi = currents.construct_autoeq(data, g, angle(3, 4))
        ae_g2 = currents.construct_autoeq(data, data.ring.index("2L2"), angle(1, 2))
        assert currents.compose(ae_i, ae_i) == identity
        assert currents.compose(ae_mi, ae_mi) == identity
        assert currents.compose(ae_i, ae_mi) == ae_g2.permutation
        assert currents.compose(ae_mi, ae_i) == ae_g2.permutation
        perms = {identity, ae_i.permutation, ae_mi.permutation, ae_g2.permutation}
        assert len(perms) == 4
        rep = currents.generated_group([ae_i, ae_mi])
        assert set(rep.elements) == perms
        assert rep.iso_type == "Z2 x Z2"


def test_criterion_3_sl6_level2_golden():
    with criterion("criterion 3 (sl6 level 2 golden data)"):
        ok, lines = golden.reproduce_sl6_level2()
        assert ok, "\n".join(lines)


@pytest.mark.xfail(
    strict=True,
    reason="order-3 invertibles with primitive self-braiding admit only "
           "zeta = q^{-1}, which the braided classification table accepts, "
           "so the order-3 auto-equivalences here are braided and the "
           "exclusivity clause cannot hold; kept as a documented conflict. "
           "The permutations of 2L2 and 2L4 at zeta = 2/3 move 14 of the 21 "
           "simples and preserve every twist, so the permutation cannot "
           "settle the paper's 'not braided'; only the natural isomorphism can",
)
def test_criterion_3_braided_exclusivity_clause():
    print("[acceptance] criterion 3 braided-exclusivity clause: "
          "EXPECTED FAIL (documented classification conflict)")
    data = modular.build_wzw_data(lie.lie_algebra("A", 5), 2)
    ae2 = currents.construct_autoeq(data, data.ring.index("2L2"), angle(2, 3))
    ae4 = currents.construct_autoeq(data, data.ring.index("2L4"), angle(2, 3))
    assert not ae2.braided and not ae4.braided


def test_sl6_level2_order3_permutations_preserve_every_twist():
    # the fact recorded in the reason of the strict xfail above
    data = modular.build_wzw_data(lie.lie_algebra("A", 5), 2)
    for label in ("2L2", "2L4"):
        perm = currents.construct_autoeq(data, data.ring.index(label), angle(2, 3)).permutation
        assert sum(x != y for x, y in enumerate(perm)) == 14
        assert all(data.twist[y] == data.twist[x] for x, y in enumerate(perm))


def test_criterion_4_so8_level2_golden():
    with criterion("criterion 4 (so8 level 2 golden data)"):
        ok, lines = golden.reproduce_so8_level2()
        assert ok, "\n".join(lines)
        # the caveat must be emitted with the group report
        data = modular.build_wzw_data(lie.lie_algebra("D", 4), 2)
        aes = [currents.construct_autoeq(data, data.ring.index(lab), angle(1, 2))
               for lab in ("2L1", "2L3", "2L4")]
        rep = currents.generated_group(aes)
        assert rep.iso_type == "Z2 x Z2"
        assert "tensor structures" in rep.caveat


def test_criterion_5_sl4_level4_negative_control():
    with criterion("criterion 5 (sl4 level 4 negative control)", budget=10.0):
        data = fresh("A", 3, 4)
        assert data.size == 35
        assert data.ring.dual != tuple(range(data.size))
        aes = currents.all_autoequivalences(data)
        assert aes, "expected constructible auto-equivalences"
        assert all(ae.permutation != data.ring.dual for ae in aes)
        ok, lines = golden.reproduce_sl4_level4_negative()
        assert ok, "\n".join(lines)


# ---------------------------------------------------------------------------
# criterion 6: property suites


def _realisable_qs(m):
    d = m if m % 2 else 2 * m
    return [angle(c, d) for c in range(d)]


def _profile_for(m, q):
    q2 = q + q  # no category, so no charges: the gates read none
    return InvertibleProfile(g=0, label="g", M=m, q=q, q_squared=q2, A=m // q2.order,
                             charges=())


def _totient(n):
    return sum(1 for i in range(1, n + 1) if gcd(i, n) == 1)


def test_criterion_6a_coprimality_implies_trivial_hexagon():
    with criterion("criterion 6a (hexagon sweep, M <= 24)"):
        for m in range(1, 25):
            for q in _realisable_qs(m):
                p = _profile_for(m, q)
                if gcd(p.A + 1, m) == 1:
                    assert currents.hexagon_holds(q, m), (m, str(q))


def test_criterion_6b_braided_table_equals_symbol_condition():
    with criterion("criterion 6b (braided table vs symbol condition, M <= 12)"):
        solutions = set()
        for m in range(1, 13):
            for q in _realisable_qs(m):
                p = _profile_for(m, q)
                if not currents.exists_autoequivalence(p):
                    continue
                for zeta in currents.admissible_zetas(p):
                    table = currents.classify_braided(p, zeta)
                    assert table == currents.braided_symbol_condition(zeta, q, m)
                    if table:
                        solutions.add((m, q.pair, zeta.pair))
        assert {m for m, _, _ in solutions} == {1, 2, 3, 4}
        assert solutions == {
            (1, (0, 1), (0, 1)),
            (2, (1, 2), (1, 2)),
            (3, (1, 3), (2, 3)),
            (3, (2, 3), (1, 3)),
            (4, (1, 4), (3, 4)),
            (4, (3, 4), (1, 4)),
        }


def test_criterion_6c_invariants_on_example_categories(example_categories):
    with criterion("criterion 6c (structural invariants, three categories)"):
        for data in example_categories.values():
            for ae in currents.all_autoequivalences(data):
                p = currents.profile(data, ae.g)
                grades = modular.grading(p, ae.zeta)
                for x in range(data.size):
                    assert grades[ae.permutation[x]] == (ae.A + 1) * grades[x] % ae.M
                assert fusion.is_ring_automorphism(data.ring, ae.permutation)
                assert ae.order_bound % groups.perm_order(ae.permutation) == 0
                for (a, b), fiber in data.ring.tensor.items():
                    for c in fiber:
                        assert grades[c] == (grades[a] + grades[b]) % p.M


def test_criterion_6d_epsilon_trivial_for_odd_k():
    with criterion("criterion 6d (epsilon = 1 for odd K <= 9)"):
        hits = 0
        for m in range(1, 25):
            for q in _realisable_qs(m):
                p = _profile_for(m, q)
                if not currents.exists_autoequivalence(p):
                    continue
                mod = p.A * m
                for k in (1, 3, 5, 7, 9):
                    if pow(p.A + 1, k, mod) == 1 % mod:
                        assert currents.epsilon_scalar(q, p.A, k).is_zero
                        hits += 1
        assert hits > 30


def test_criterion_6e_order_bound_divides_totient():
    with criterion("criterion 6e (order bound divides phi(A*M))"):
        for m in range(1, 25):
            for q in _realisable_qs(m):
                p = _profile_for(m, q)
                if not currents.exists_autoequivalence(p):
                    continue
                assert _totient(p.A * m) % currents.order_bound(p) == 0


def test_criterion_6_combined_budget():
    parts = [v for k, v in _timings.items() if k.startswith("criterion 6")]
    assert len(parts) == 5, "all criterion-6 suites must have run"
    total = sum(parts)
    print(f"[acceptance] criterion 6 combined runtime: {total:.2f}s")
    assert total < 30.0


def test_criterion_7_high_rank_cold_build():
    with criterion("criterion 7 (cold A18 level 1 build)", budget=1.0):
        data = fresh("A", 18, 1)
        assert data.size == 19
        # the orbit fold reads two diagrams of the 19 alcove weights: L1's for
        # its candidate row, and the unit's, whose row fills the one orbit
        assert lie.weight_multiplicities.cache_info().misses == 2
