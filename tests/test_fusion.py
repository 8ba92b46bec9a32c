import dataclasses
import tracemalloc
from math import gcd

import numpy as np
import pytest
from hypothesis import given, strategies as st

from simplecurrents import fusion, lie, modular
from simplecurrents.fusion import FusionRing, NotInvertibleError, TooLargeError
from test_catfile import (GOLDEN_SHA256, cyclic_factor, deligne_payload, ising_payload,
                          semion_payload, z2xz2_payload)


def trivial_ring():
    return FusionRing(simples=("0",), unit_index=0, dual=(0,),
                      tensor={(0, 0): {0: 1}})


def z3_ring_with_bad_duality():
    # g is not self-dual (dual(g) = g^2), yet the table claims unit in g x g
    tensor = {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
              (1, 0): {1: 1}, (1, 1): {0: 1}, (1, 2): {0: 1},
              (2, 0): {2: 1}, (2, 1): {0: 1}, (2, 2): {1: 1}}
    return FusionRing(simples=("0", "g", "g2"), unit_index=0, dual=(0, 2, 1),
                      tensor=tensor)


class TestAxioms:
    def test_built_rings_satisfy_axioms(self, example_categories):
        for data in example_categories.values():
            assert fusion.verify_axioms(data.ring)

    @pytest.mark.parametrize("family,rank", [("A", 2), ("A", 4), ("D", 5)])
    def test_more_level2_rings_satisfy_axioms(self, family, rank):
        from simplecurrents import lie, modular
        data = modular.build_wzw_data(lie.lie_algebra(family, rank), 2)
        assert fusion.verify_axioms(data.ring)

    def test_trivial_ring(self):
        assert fusion.verify_axioms(trivial_ring())

    def test_duality_violation_reported(self):
        ring = z3_ring_with_bad_duality()
        msg = fusion.axiom_violation(ring)
        assert msg is not None and "dual" in msg
        assert not fusion.verify_axioms(ring)

    def test_associativity_violation_reported(self, sl4_level2):
        ring = sl4_level2.ring
        tampered = {k: dict(v) for k, v in ring.tensor.items()}
        a = ring.index("L1")
        fiber = tampered[(a, a)]
        c = next(iter(fiber))
        fiber[c] += 1
        bad = FusionRing(simples=ring.simples, unit_index=ring.unit_index,
                         dual=ring.dual, tensor=tampered)
        msg = fusion.axiom_violation(bad)
        assert msg is not None and "associativity" in msg

    def test_unit_violation_reported(self):
        ring = FusionRing(simples=("0", "x"), unit_index=0, dual=(0, 1),
                          tensor={(0, 0): {0: 1}, (0, 1): {0: 1},
                                  (1, 0): {1: 1}, (1, 1): {0: 1}})
        msg = fusion.axiom_violation(ring)
        assert msg is not None and "unit" in msg


def einsum_violation(ring):
    """The dense n^4 int64 associativity check that axiom_violation replaced,
    kept as its oracle: the first failing (a, b, c, d), or None."""
    t = ring.table
    lhs = np.einsum("abe,ecd->abcd", t, t)
    rhs = np.einsum("bcf,afd->abcd", t, t)
    if (lhs == rhs).all():
        return None
    a, b, c, d = map(int, np.argwhere(lhs != rhs)[0])
    return (f"associativity fails at (a,b,c,d)=({a},{b},{c},{d}): "
            f"{lhs[a, b, c, d]} != {rhs[a, b, c, d]}")


def full_loop_violation(ring):
    """The per-a float64 comparison over every simple that the generating-set
    check replaced, kept as its oracle: the first failing (a, b, c, d), or None."""
    t = ring.table
    n = ring.size
    f = t.astype(np.float64)
    by_e, by_f = f.reshape(n, n * n), f.reshape(n * n, n)
    for a in range(n):
        lhs = (f[a] @ by_e).reshape(n, n, n)
        rhs = (by_f @ f[a]).reshape(n, n, n)
        if not np.array_equal(lhs, rhs):
            b, c, d = map(int, np.argwhere(lhs != rhs)[0])
            return (f"associativity fails at (a,b,c,d)=({a},{b},{c},{d}): "
                    f"{int(lhs[b, c, d])} != {int(rhs[b, c, d])}")
    return None


def ring_with_table(ring, table):
    tensor = {}
    for (a, b, c), m in zip(np.argwhere(table).tolist(), table[table != 0].tolist()):
        tensor.setdefault((a, b), {})[c] = m
    return FusionRing(ring.simples, ring.unit_index, ring.dual, tensor)


def rank2_ring(m):
    # x (x) x = 1 + m x, associative for every m >= 0
    return FusionRing(simples=("0", "x"), unit_index=0, dual=(0, 1),
                      tensor={(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1},
                              (1, 1): {0: 1, 1: m}})


def deligne_product(r, s):
    """The product ring with simples (x, y) in lexicographic order."""
    n = r.size * s.size
    table = np.einsum("ikp,jlq->ijklpq", r.table, s.table).reshape(n, n, n)
    product = FusionRing([x + y for x in r.simples for y in s.simples],
                         r.unit_index * s.size + s.unit_index,
                         [i * s.size + j for i in r.dual for j in s.dual], {})
    return ring_with_table(product, table)


def payload_ring(payload):
    """The fusion ring of a category-file payload, with no other check."""
    tensor = {}
    for a, b, c, m in payload["fusion"]:
        tensor.setdefault((a, b), {})[c] = m
    return FusionRing(payload["simples"], 0, payload["dual"], tensor)


def built_ring(family, rank, level):
    return modular.build_wzw_data(lie.lie_algebra(family, rank), level).ring


# every category of the golden-hash suite small enough for the n^4 oracle
ORACLE_CATEGORIES = [("A", 3, 2), ("A", 5, 2), ("D", 4, 2), ("A", 7, 1), ("B", 4, 2),
                     ("C", 3, 3), ("A", 3, 4), ("E", 6, 2), ("E", 8, 2), ("A", 1, 12)]


def unit_and_duality_by_loops(ring):
    """The unit and duality laws of axiom_violation as they were checked before
    the array comparison, one entry at a time: the oracle of the first failure."""
    n, u, t = ring.size, ring.unit_index, ring.table
    for a in range(n):
        for c in range(n):
            if t[a, u, c] != (a == c):
                return f"right unit law fails: N^{c}_{{{a},unit}} = {t[a, u, c]}"
            if t[u, a, c] != (a == c):
                return f"left unit law fails: N^{c}_{{unit,{a}}} = {t[u, a, c]}"
    for a in range(n):
        for b in range(n):
            if t[a, b, u] != (b == ring.dual[a]):
                return f"duality fails: N^unit_{{{a},{b}}} = {t[a, b, u]}"
    return None


def cyclic_ring(n, edits=()):
    """Z_n on 0..n-1 (unit 0, dual -a) with each (a, b, c, N) of edits set."""
    tensor = {(a, b): {(a + b) % n: 1} for a in range(n) for b in range(n)}
    for a, b, c, m in edits:
        tensor[(a, b)] = {**tensor[(a, b)], c: m}
    return FusionRing(tuple(map(str, range(n))), 0, tuple(-a % n for a in range(n)), tensor)


FIRST_FAILURES = [
    # both unit laws fail, the left one at the earlier (a, c) = (1, 0)
    ([(1, 0, 2, 1), (0, 1, 0, 1)], "left unit law fails: N^0_{unit,1} = 1"),
    # both fail at (a, c) = (1, 2): the right law is named first
    ([(1, 0, 2, 1), (0, 1, 2, 1)], "right unit law fails: N^2_{1,unit} = 1"),
    # duality only: 1 x 2 lacks the unit, and later 2 x 2 has it twice
    ([(1, 2, 0, 0), (1, 2, 1, 1), (2, 2, 0, 2)], "duality fails: N^unit_{1,2} = 0"),
    # duality only, twice in one row: first b = 1, then b = 2
    ([(1, 1, 0, 1), (1, 2, 0, 0)], "duality fails: N^unit_{1,1} = 1"),
]


class TestFirstFailure:
    @pytest.mark.parametrize("edits,message", FIRST_FAILURES)
    def test_named_as_by_the_loops(self, edits, message):
        ring = cyclic_ring(3, edits)
        assert fusion.axiom_violation(ring) == unit_and_duality_by_loops(ring) == message

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(*[st.integers(0, n - 1)] * 3, st.integers(0, 2)),
                             max_size=4))))
    def test_random_edits_named_as_by_the_loops(self, case):
        ring = cyclic_ring(*case)
        expected = unit_and_duality_by_loops(ring)
        found = fusion.axiom_violation(ring)
        if expected is None:
            assert found is None or found.startswith("associativity fails")
        else:
            assert found == expected


class TestAssociativityOracle:
    @pytest.mark.parametrize("family,rank,level", ORACLE_CATEGORIES)
    def test_agrees_with_einsum_on_built_rings(self, family, rank, level):
        ring = built_ring(family, rank, level)
        assert fusion.axiom_violation(ring) is None
        assert einsum_violation(ring) is None
        assert full_loop_violation(ring) is None

    @pytest.mark.parametrize("family,rank,level", [("A", 2, 10), ("A", 1, 40), ("A", 3, 6),
                                                   ("D", 5, 2), ("G", 2, 3), ("F", 4, 2)])
    def test_agrees_with_the_full_loop_on_larger_built_rings(self, family, rank, level):
        ring = built_ring(family, rank, level)
        assert fusion.axiom_violation(ring) is None
        assert full_loop_violation(ring) is None

    @pytest.mark.parametrize("make,seed,trials", [
        (lambda: built_ring("A", 3, 2), 1, 40),
        (lambda: built_ring("A", 3, 4), 2, 12),
        (lambda: built_ring("A", 1, 12), 3, 40),
        (lambda: built_ring("C", 3, 3), 4, 40),
        # entries up to 2^25 with n * max(N)^2 = 2^52: sums near 2^52 that
        # differ by 1 must still be told apart
        (lambda: deligne_product(rank2_ring(2 ** 25), rank2_ring(1)), 5, 40),
    ])
    def test_agrees_with_einsum_on_mutated_rings(self, make, seed, trials):
        # change one or two entries away from the unit, so the unit and
        # duality laws still hold and associativity decides the verdict
        ring = make()
        assert fusion.axiom_violation(ring) is None
        rng = np.random.default_rng(seed)
        others = [x for x in range(ring.size) if x != ring.unit_index]
        failures = 0
        for _ in range(trials):
            table = ring.table.copy()
            for _ in range(rng.integers(1, 3)):
                a, b, c = rng.choice(others, size=3)
                table[a, b, c] += 1 if table[a, b, c] == 0 or rng.random() < 0.5 else -1
            bad = ring_with_table(ring, table)
            msg = fusion.axiom_violation(bad)
            assert msg == einsum_violation(bad) == full_loop_violation(bad)
            failures += msg is not None
        assert failures == trials

    @pytest.mark.parametrize("payload", [ising_payload, semion_payload, z2xz2_payload])
    def test_agrees_with_einsum_on_file_rings(self, payload):
        ring = payload_ring(payload())
        assert fusion.axiom_violation(ring) is None
        assert einsum_violation(ring) is None
        assert full_loop_violation(ring) is None

    def test_exact_just_below_the_float_bound(self):
        # n * max(N)^2 = 2 * (2^26 - 1)^2 < 2^53, and 1 + m^2 is summed exactly
        ring = rank2_ring(2 ** 26 - 1)
        assert fusion.axiom_violation(ring) is None
        assert einsum_violation(ring) is None

    def test_refuses_rings_past_the_float_bound(self):
        with pytest.raises(TooLargeError) as exc:
            fusion.axiom_violation(rank2_ring(2 ** 26))
        assert str(exc.value) == (
            "associativity check is exact only while n * max(N)^2 < 2^53 = "
            "9007199254740992: n = 2, max(N) = 67108864, "
            "n * max(N)^2 = 9007199254740992")

    def test_memory_is_a_few_n_cubed_arrays(self):
        # the einsum held two n^4 int64 operands, 303.6 MB at n = 66
        ring = built_ring("A", 2, 10)
        assert ring.size == 66
        tracemalloc.start()
        try:
            assert fusion.axiom_violation(ring) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


def relabelled(ring, perm):
    """The same ring with simple x moved to index perm[x]."""
    n, p = ring.size, list(perm)
    simples, dual = [None] * n, [None] * n
    for x in range(n):
        simples[p[x]] = ring.simples[x]
        dual[p[x]] = p[ring.dual[x]]
    table = np.zeros_like(ring.table)
    table[np.ix_(p, p, p)] = ring.table
    return ring_with_table(FusionRing(simples, p[ring.unit_index], dual, {}), table)


def reference_generating_set(ring):
    """generating_set as it was before the preallocated basis: the echelon form
    grown by one np.vstack and one np.outer per row, and the rows multiplied
    as they were added.  The oracle of the generating set."""
    n, p = ring.size, fusion.SPAN_PRIME
    basis = np.zeros((0, n), dtype=np.int64)
    pivots, found, gens, left = [], [], [], []

    def reduce(v):
        return (v - v[pivots] @ basis) % p

    def add(v):
        nonlocal basis
        v = reduce(v)
        nonzero = np.flatnonzero(v)
        if nonzero.size:
            q = int(nonzero[0])
            v = v * pow(int(v[q]), -1, p) % p
            basis = np.vstack([(basis - np.outer(basis[:, q], v)) % p, v])
            pivots.append(q)
            found.append(v)

    e = np.eye(n, dtype=np.int64)
    add(e[ring.unit_index])
    for x in range(n):
        if len(pivots) == n:
            break
        if not reduce(e[x]).any():
            continue
        gens.append(x)
        left.append(ring.table[x] % p)
        closed = len(found)
        for v in found[:closed]:
            add(v @ left[-1] % p)
        i = closed
        while i < len(found):
            for m in left:
                add(found[i] @ m % p)
            i += 1
    return gens


def pointed_ring(*moduli):
    """The fusion ring of SU(N1)_1 x ... x SU(Nm)_1: Z_N1 x ... x Z_Nm."""
    return payload_ring(deligne_payload(*map(cyclic_factor, moduli)))


@st.composite
def unassociative_rings(draw):
    """A ring on n <= 5 self-dual simples, unit 0, with the unit and duality
    laws and random multiplicities 0 to 3 elsewhere: mostly not associative,
    as generating_set sees it before the associativity check."""
    n = draw(st.integers(2, 5))
    table = np.zeros((n, n, n), dtype=np.int64)
    table[0] = table[:, 0] = np.eye(n, dtype=np.int64)
    for a in range(1, n):
        for b in range(1, n):
            table[a, b, 0] = a == b
            table[a, b, 1:] = draw(st.lists(st.integers(0, 3), min_size=n - 1,
                                            max_size=n - 1))
    return FusionRing([str(x) for x in range(n)], 0, range(n), table)


class TestGeneratingSetOracle:
    @pytest.mark.parametrize("family,rank,level", sorted(GOLDEN_SHA256))
    def test_golden_builds(self, family, rank, level):
        ring = built_ring(family, rank, level)
        assert fusion.generating_set(ring) == reference_generating_set(ring)

    @pytest.mark.parametrize("moduli", [(2,), (12,), (2, 2), (2, 2, 2), (3, 3), (2, 4),
                                        (2, 2, 6), (6, 6), (2, 3, 5)])
    def test_pointed(self, moduli):
        ring = pointed_ring(*moduli)
        gens = fusion.generating_set(ring)
        assert gens == reference_generating_set(ring)
        assert fusion.axiom_violation(ring) is None

    @pytest.mark.parametrize("moduli,shift", [((2, 2, 2), 5), ((3, 3), 4), ((6,), 1)])
    def test_pointed_unit_off_index_0(self, moduli, shift):
        ring = pointed_ring(*moduli)
        n = ring.size
        ring = relabelled(ring, [(x + shift) % n for x in range(n)])
        assert ring.unit_index == shift
        assert fusion.generating_set(ring) == reference_generating_set(ring)

    def test_built_unit_off_index_0(self, sl4_level2):
        n = sl4_level2.size
        for perm in [[(x + 3) % n for x in range(n)], list(reversed(range(n)))]:
            ring = relabelled(sl4_level2.ring, perm)
            assert ring.unit_index != 0
            assert fusion.generating_set(ring) == reference_generating_set(ring)

    @pytest.mark.parametrize("m", [0, 1, 2, 2 ** 26 - 1])
    def test_rank2_rings(self, m):
        ring = rank2_ring(m)
        assert fusion.generating_set(ring) == reference_generating_set(ring) == [1]

    @given(unassociative_rings())
    def test_unassociative_rings(self, ring):
        assert fusion.generating_set(ring) == reference_generating_set(ring)


class TestGeneratingSet:
    @pytest.mark.parametrize("family,rank,level,labels", [
        ("A", 2, 10, ["L2"]), ("A", 1, 40, ["L1"]), ("A", 3, 8, ["L3", "2L3"]),
        ("D", 4, 2, ["L4", "2L4", "L3", "L3+L4"]), ("E", 8, 2, ["L7"])])
    def test_built_rings(self, family, rank, level, labels):
        ring = built_ring(family, rank, level)
        assert [ring.simples[x] for x in fusion.generating_set(ring)] == labels

    def test_trivial_ring_has_no_generator(self):
        ring = trivial_ring()
        assert fusion.generating_set(ring) == []
        assert fusion.axiom_violation(ring) is None

    @pytest.mark.parametrize("m", [0, 1, 2, 2 ** 26 - 1])
    def test_rank2_rings_need_their_one_other_simple(self, m):
        # x (x) x = 1 + m x: every table with the unit and duality laws is associative
        ring = rank2_ring(m)
        assert fusion.generating_set(ring) == [1]
        assert fusion.axiom_violation(ring) is None
        assert full_loop_violation(ring) is None

    def test_unit_not_at_index_0(self, sl4_level2):
        n = sl4_level2.size
        ring = relabelled(sl4_level2.ring, [(x + 3) % n for x in range(n)])
        assert ring.unit_index == 3 and ring.unit_index not in fusion.generating_set(ring)
        assert fusion.axiom_violation(ring) is None
        rng = np.random.default_rng(6)
        others = [x for x in range(n) if x != ring.unit_index]
        for _ in range(20):
            table = ring.table.copy()
            a, b, c = rng.choice(others, size=3)
            table[a, b, c] += 1
            bad = ring_with_table(ring, table)
            msg = fusion.axiom_violation(bad)
            assert msg is not None and msg == einsum_violation(bad) == full_loop_violation(bad)

    def compared(self, monkeypatch, ring):
        """The simples each per-a comparison of axiom_violation(ring) walked."""
        checked, compare = [], fusion._associativity_failure

        def recorded(f, simples):
            checked.append(list(simples))
            return compare(f, simples)
        monkeypatch.setattr(fusion, "_associativity_failure", recorded)
        fusion.axiom_violation(ring)
        return checked

    def test_associative_ring_compares_only_the_generators(self, monkeypatch):
        ring = built_ring("A", 2, 10)
        assert self.compared(monkeypatch, ring) == [[ring.index("L2")]]

    def test_failure_reruns_every_simple(self, monkeypatch, sl4_level2):
        ring = sl4_level2.ring
        table = ring.table.copy()
        x, y = ring.index("L1"), ring.index("L2")
        table[x, y, y] += 1
        table[y, x, y] += 1
        bad = ring_with_table(ring, table)
        assert self.compared(monkeypatch, bad) == [fusion.generating_set(bad),
                                                    list(range(ring.size))]
        assert fusion.axiom_violation(bad) == einsum_violation(bad) == full_loop_violation(bad)

    def test_failure_at_a_later_generator(self, sl4_level2):
        # 0 x is the first generator of S x R and lies in the left nucleus
        # whatever S is, so a non-associative S fails only at later ones
        ring = sl4_level2.ring
        table = ring.table.copy()
        x, y = ring.index("L1"), ring.index("L2")
        table[x, y, y] += 1
        table[y, x, y] += 1
        product = deligne_product(ring_with_table(ring, table), rank2_ring(1))
        assert fusion.generating_set(product)[0] == 1
        msg = fusion.axiom_violation(product)
        assert msg is not None and not msg.startswith("associativity fails at (a,b,c,d)=(1,")
        assert msg == einsum_violation(product) == full_loop_violation(product)

    def test_span_prime_keeps_int64_dot_products_exact(self):
        p = fusion.SPAN_PRIME
        assert all(p % q for q in range(2, int(p ** 0.5) + 1))
        assert p < 2 ** 26 and fusion.MAX_SIMPLES * p * p < 2 ** 63


class TestInvertibles:
    def test_counts(self, example_categories):
        want = {"sl4-2": 4, "sl6-2": 6, "so8-2": 4}
        for name, data in example_categories.items():
            assert len(fusion.invertibles(data.ring)) == want[name]

    def test_sl4_invertible_labels(self, sl4_level2):
        ring = sl4_level2.ring
        labels = {ring.simples[i] for i in fusion.invertibles(ring)}
        assert labels == {"0", "2L1", "2L2", "2L3"}

    def test_orders(self, sl4_level2, sl6_level2):
        r4, r6 = sl4_level2.ring, sl6_level2.ring
        assert fusion.invertible_order(r4, r4.index("2L1")) == 4
        assert fusion.invertible_order(r6, r6.index("2L2")) == 3
        assert fusion.invertible_order(r4, r4.unit_index) == 1

    def test_invertibles_form_group(self, example_categories):
        for data in example_categories.values():
            ring = data.ring
            inv = set(fusion.invertibles(ring))
            for g in inv:
                assert ring.dual[g] in inv
                for h in inv:
                    (prod,) = ring.table[g, h].nonzero()
                    assert len(prod) == 1 and ring.table[g, h, prod[0]] == 1
                    assert set(prod.tolist()) <= inv

    def test_non_invertible_rejected(self, sl4_level2):
        ring = sl4_level2.ring
        with pytest.raises(NotInvertibleError):
            fusion.fuse_permutation(ring, ring.index("L1"))
        with pytest.raises(NotInvertibleError):
            fusion.invertible_order(ring, ring.index("L1"))


class TestFusePermutation:
    def test_sl4_current_shift(self, sl4_level2):
        ring = sl4_level2.ring
        perm = fusion.fuse_permutation(ring, ring.index("2L1"))
        assert ring.simples[perm[ring.index("L1")]] == "L1+L2"

    def test_so8_current_shift(self, so8_level2):
        ring = so8_level2.ring
        perm = fusion.fuse_permutation(ring, ring.index("2L3"))
        assert ring.simples[perm[ring.index("L4")]] == "L1+L3"

    def test_unit_gives_identity(self, example_categories):
        for data in example_categories.values():
            ring = data.ring
            assert (fusion.fuse_permutation(ring, ring.unit_index)
                    == tuple(range(ring.size)))

    def test_permutations_compose_like_the_group(self, example_categories):
        for data in example_categories.values():
            ring = data.ring
            for g in fusion.invertibles(ring):
                pg = fusion.fuse_permutation(ring, g)
                for h in fusion.invertibles(ring):
                    ph = fusion.fuse_permutation(ring, h)
                    (gh,) = ring.table[g, h].nonzero()[0].tolist()
                    pgh = fusion.fuse_permutation(ring, gh)
                    assert tuple(pg[ph[x]] for x in range(ring.size)) == pgh


class TestRingAutomorphism:
    def test_identity(self, sl4_level2):
        ring = sl4_level2.ring
        assert fusion.is_ring_automorphism(ring, tuple(range(ring.size)))

    def test_dual_involution_is_automorphism(self, example_categories):
        for data in example_categories.values():
            assert fusion.is_ring_automorphism(data.ring, data.ring.dual)

    def test_dimension_mismatched_transposition_fails(self, sl4_level2):
        ring = sl4_level2.ring
        a, b = ring.index("L1"), ring.index("2L1")
        perm = list(range(ring.size))
        perm[a], perm[b] = perm[b], perm[a]
        assert not fusion.is_ring_automorphism(ring, tuple(perm))

    def test_rejects_non_bijection(self, sl4_level2):
        with pytest.raises(ValueError):
            fusion.is_ring_automorphism(sl4_level2.ring, (0,) * 10)

    def test_rejects_unit_moving(self, sl4_level2):
        ring = sl4_level2.ring
        perm = list(range(ring.size))
        perm[0], perm[1] = perm[1], perm[0]
        with pytest.raises(ValueError):
            fusion.is_ring_automorphism(ring, tuple(perm))


class TestConstruction:
    @pytest.mark.parametrize("key", [(1, -1, 0), (-1, 1, 1), (1, 1, -2), (1, 1, 2),
                                     (2, 0, 1)])
    def test_keys_outside_the_simples_rejected(self, key):
        a, b, c = key
        tensor = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (a, b): {c: 1}}
        with pytest.raises(ValueError) as exc:
            FusionRing(("0", "x"), 0, (0, 1), tensor)
        assert str(exc.value) == f"fusion key (a, b, c) = ({a}, {b}, {c}) is outside [0, 2)"

    @pytest.mark.parametrize("m", [1.9, True, 1.0, "1", None])
    def test_non_integer_multiplicity_refused(self, m):
        tensor = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: m}}
        with pytest.raises(ValueError) as exc:
            FusionRing(("0", "x"), 0, (0, 1), tensor)
        assert str(exc.value) == (
            f"fusion multiplicity at (a, b, c) = (1, 1, 0) must be an integer, got {m!r}")

    @pytest.mark.parametrize("key", [(True, 1, 0), (1, True, 0), (1, 1, True), (1.0, 1, 0),
                                     (1, 1, 0.0), ("1", 1, 0), (1, 1, "0")])
    def test_keys_that_are_not_integers_rejected(self, key):
        a, b, c = key
        tensor = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (a, b): {c: 1}}
        with pytest.raises(ValueError) as exc:
            FusionRing(("0", "x"), 0, (0, 1), tensor)
        assert str(exc.value) == f"fusion key (a, b, c) = ({a!r}, {b!r}, {c!r}) must be integers"

    def test_bool_key_is_not_read_as_one(self):
        # with the key 1 this is the Fibonacci ring, x (x) x = 1 + x
        fibonacci = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1, 1: 1}}
        assert fusion.verify_axioms(FusionRing(("0", "x"), 0, (0, 1), fibonacci))
        fibonacci[1, 1] = {0: 1, True: 1}
        with pytest.raises(ValueError) as exc:
            FusionRing(("0", "x"), 0, (0, 1), fibonacci)
        assert str(exc.value) == "fusion key (a, b, c) = (1, 1, True) must be integers"

    @pytest.mark.parametrize("m", [2 ** 63, -2 ** 63 - 1, np.uint64(2 ** 63)])
    def test_multiplicity_outside_int64_refused(self, m):
        tensor = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: m}}
        with pytest.raises(ValueError) as exc:
            FusionRing(("0", "x"), 0, (0, 1), tensor)
        assert str(exc.value) == (
            f"fusion multiplicity at (a, b, c) = (1, 1, 0) must fit in int64, got {m}")

    def test_numpy_integer_keys_read_as_python_ones(self):
        tensor = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1}}
        ring = FusionRing(("0", "x"), 0, (0, 1), tensor)
        numpy_keys = {(np.int64(a), np.int32(b)): {np.uint8(c): m for c, m in fiber.items()}
                      for (a, b), fiber in tensor.items()}
        assert FusionRing(("0", "x"), 0, (0, 1), numpy_keys) == ring

    @pytest.mark.parametrize("m", [2 ** 63 - 1, -2 ** 63, np.int64(3)])
    def test_multiplicity_at_the_int64_bounds_kept(self, m):
        tensor = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: m}}
        assert FusionRing(("0", "x"), 0, (0, 1), tensor).table[1, 1, 0] == m

    def test_negative_multiplicity_kept_for_the_axiom_check(self):
        tensor = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: -1}}
        ring = FusionRing(("0", "x"), 0, (0, 1), tensor)
        assert ring.table[1, 1, 0] == -1
        assert fusion.axiom_violation(ring) == "negative multiplicity N^0_{1,1}"

    def test_too_many_simples_refused(self):
        labels = tuple(str(i) for i in range(fusion.MAX_SIMPLES + 1))
        with pytest.raises(TooLargeError) as exc:
            FusionRing(labels, 0, range(len(labels)), {})
        assert str(exc.value) == (
            f"fusion ring has {fusion.MAX_SIMPLES + 1} simple objects, "
            f"more than the limit of {fusion.MAX_SIMPLES}")

    def test_limit_admits_a3_level_8(self):
        assert len(lie.alcove_weights(lie.lie_algebra("A", 3), 8)) == 165
        assert fusion.MAX_SIMPLES >= 165


class TestTableInput:
    @staticmethod
    def z2_table(dtype=np.int64):
        table = np.zeros((2, 2, 2), dtype=dtype)
        table[0, 0, 0] = table[0, 1, 1] = table[1, 0, 1] = table[1, 1, 0] = 1
        return table

    def test_table_gives_the_ring_of_its_entries(self, sl4_level2):
        ring = sl4_level2.ring
        assert FusionRing(ring.simples, ring.unit_index, ring.dual, ring.table) == ring
        assert dataclasses.replace(ring, tensor=ring.table) == ring
        z2 = FusionRing(("0", "g"), 0, (0, 1), self.z2_table())
        assert z2.tensor == {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1}}

    @pytest.mark.parametrize("table,got", [
        (np.zeros((2, 2), dtype=np.int64), "int64 of shape (2, 2)"),
        (np.zeros((2, 2, 3), dtype=np.int64), "int64 of shape (2, 2, 3)"),
        (np.zeros((3, 3, 3), dtype=np.int64), "int64 of shape (3, 3, 3)"),
        (z2_table(np.float64), "float64 of shape (2, 2, 2)"),
        (z2_table(bool), "bool of shape (2, 2, 2)"),
        (z2_table(np.int32), "int32 of shape (2, 2, 2)")])
    def test_other_shapes_and_dtypes_refused(self, table, got):
        with pytest.raises(ValueError) as exc:
            FusionRing(("0", "g"), 0, (0, 1), table)
        assert str(exc.value) == (
            f"fusion table must be an int64 array of shape (2, 2, 2), got {got}")

    def test_table_is_a_read_only_copy(self):
        table = self.z2_table()
        ring = FusionRing(("0", "g"), 0, (0, 1), table)
        table[1, 1, 0] = 5
        assert ring.table[1, 1, 0] == 1 and not np.shares_memory(ring.table, table)
        with pytest.raises(ValueError):
            ring.table[1, 1, 0] = 5

    def test_too_many_simples_refused_before_the_table_is_read(self):
        labels = tuple(str(i) for i in range(fusion.MAX_SIMPLES + 1))
        with pytest.raises(TooLargeError):
            FusionRing(labels, 0, range(len(labels)), np.zeros((1, 1, 1), dtype=np.int64))


@st.composite
def keyed_entries(draw):
    """n and distinct keys (a, b, c) in [0, n), each with an int64 multiplicity,
    zero and negative ones included, in a random order."""
    n = draw(st.integers(1, 5))
    keys = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), unique=True, max_size=40))
    values = draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                           min_size=len(keys), max_size=len(keys)))
    return n, [(*key, m) for key, m in zip(keys, values)]


@st.composite
def faulty_entries(draw):
    """n and rows [a, b, c, N] of Python ints with up to two faults, each a
    zero N, a repeated key, a key outside [0, n) or a value past int64, in
    key order or shuffled."""
    n = draw(st.integers(1, 4))
    nonzero = st.integers(-2 ** 63, 2 ** 63 - 1).filter(bool)
    keys = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * 3), unique=True,
                         min_size=1, max_size=20))
    rows = [[*key, draw(nonzero)] for key in keys]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(rows) - 1))
        fault = draw(st.sampled_from(["zero", "repeat", "outside", "past int64"]))
        if fault == "zero":
            rows[i][3] = 0
        elif fault == "repeat":
            rows.insert(draw(st.integers(0, len(rows))), rows[i][:3] + [draw(nonzero)])
        elif fault == "outside":
            rows[i][draw(st.integers(0, 2))] = draw(st.sampled_from([-1, n, 2 ** 62]))
        else:
            rows[i][draw(st.integers(0, 3))] = draw(st.sampled_from([2 ** 63, -2 ** 63 - 1]))
    return n, sorted(rows) if draw(st.booleans()) else draw(st.permutations(rows))


def two_owner_refusal(rows, n):
    """The refusal of the rows as it was when the file reader owned the zero
    and repeat checks: its scan in row order, then the ring's check of each
    entry; None if the rows pass both.  The oracle of the ring's one gate."""
    fibers = {}
    for a, b, c, m in rows:
        if m == 0:
            return f"zero fusion entry for ({a},{b},{c})"
        fiber = fibers.setdefault((a, b), {})
        if c in fiber:
            return f"duplicate fusion entry for ({a},{b},{c})"
        fiber[c] = m
    for row in rows:
        try:
            fusion._check_entry(*row, n)
        except ValueError as exc:
            return str(exc)
    return None


def entry_forms(rows) -> list:
    """The rows as a list, and as an int64 array when every value fits."""
    if all(-2 ** 63 <= x < 2 ** 63 for row in rows for x in row):
        return [rows, np.array(rows, dtype=np.int64).reshape(-1, 4)]
    return [rows]


class TestQuadInput:
    @given(keyed_entries())
    def test_quads_give_the_ring_of_the_dict(self, case):
        # a drawn zero is refused in the rows, and read as no entry in the dict
        n, entries = case
        simples, dual = tuple(map(str, range(n))), tuple(range(n))
        tensor = {}
        for a, b, c, m in entries:
            tensor.setdefault((a, b), {})[c] = m
        quads = np.array(entries, dtype=np.int64).reshape(-1, 4)
        zeros = [(a, b, c) for a, b, c, m in entries if m == 0]
        if zeros:
            with pytest.raises(ValueError) as exc:
                FusionRing(simples, 0, dual, quads)
            assert str(exc.value) == "zero fusion entry for ({},{},{})".format(*zeros[0])
            return
        ring = FusionRing(simples, 0, dual, quads)
        assert ring == FusionRing(simples, 0, dual, tensor)
        assert {tuple(k): int(ring.table[tuple(k)]) for k in np.argwhere(ring.table).tolist()} \
            == {(a, b, c): m for a, b, c, m in entries}

    @pytest.mark.parametrize("rows,message", [
        ([[0, 0, 0, 1], [1, 1, 0, 0]], "zero fusion entry for (1,1,0)"),
        ([[1, 1, 0, 1], [0, 0, 0, 1], [1, 1, 0, 3]], "duplicate fusion entry for (1,1,0)"),
        ([[1, 1, 0, 1], [1, 1, 0, 0]], "zero fusion entry for (1,1,0)"),  # the zero is named
        ([[0, 2, 0, 1], [1, 1, 0, 1], [1, 1, 0, 1]], "duplicate fusion entry for (1,1,0)"),
        ([[2 ** 63 - 1, 0, 0, 1], [0, 1, 1, 1], [0, 1, 1, 2]],
         "duplicate fusion entry for (0,1,1)"),
        # past int64: the list form only
        ([[2 ** 70, 0, 0, 1], [0, 1, 1, 1], [0, 1, 1, 2]], "duplicate fusion entry for (0,1,1)"),
    ])
    def test_zero_and_repeated_entries_refused(self, rows, message):
        forms = entry_forms(rows)
        for tensor in forms:
            with pytest.raises(ValueError) as exc:
                FusionRing(("0", "x"), 0, (0, 1), tensor)
            assert str(exc.value) == message

    @given(faulty_entries())
    def test_refusals_equal_the_two_owner_path(self, case):
        n, rows = case
        simples, dual = tuple(map(str, range(n))), tuple(range(n))
        message = two_owner_refusal(rows, n)
        forms = entry_forms(rows)
        for tensor in forms:
            if message is None:
                tensor_dict = {}
                for a, b, c, m in rows:
                    tensor_dict.setdefault((a, b), {})[c] = m
                assert FusionRing(simples, 0, dual, tensor) \
                    == FusionRing(simples, 0, dual, tensor_dict)
            else:
                with pytest.raises(ValueError) as exc:
                    FusionRing(simples, 0, dual, tensor)
                assert str(exc.value) == message

    def test_rows_of_another_length_refused(self):
        # read four values at a time, these would be the rows [0, 0, 0, 1] and [1, 1, 0, 1]
        with pytest.raises(ValueError):
            FusionRing(("0", "x"), 0, (0, 1), [[0, 0, 0, 1, 1], [1, 0, 1]])

    def test_dict_zero_is_no_entry(self):
        tensor = {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: 1}}
        ring = FusionRing(("0", "x"), 0, (0, 1), tensor)
        for zero in (0, np.int64(0)):
            assert FusionRing(("0", "x"), 0, (0, 1), {**tensor, (0, 0): {0: 1, 1: zero}}) == ring
        for m in (False, 0.0):
            with pytest.raises(ValueError) as exc:
                FusionRing(("0", "x"), 0, (0, 1), {**tensor, (0, 0): {0: 1, 1: m}})
            assert str(exc.value) == (
                f"fusion multiplicity at (a, b, c) = (0, 0, 1) must be an integer, got {m!r}")

    def test_table_is_written_anew(self, sl4_level2):
        ring = sl4_level2.ring
        quads = np.array([(a, b, c, m) for (a, b), fiber in ring.tensor.items()
                          for c, m in fiber.items()], dtype=np.int64)
        built = FusionRing(ring.simples, ring.unit_index, ring.dual, quads)
        quads[:, 3] += 1
        assert built == ring and not np.shares_memory(built.table, quads)
        with pytest.raises(ValueError):
            built.table[0, 0, 0] = 2

    @pytest.mark.parametrize("bad,key", [
        ([[0, 0, 0, 1], [2, 1, 0, 1], [1, -1, 0, 1]], "(2, 1, 0)"),
        ([[0, 0, 0, 1], [1, -1, 0, 1], [2, 1, 0, 1]], "(1, -1, 0)"),
        ([[1, 1, 2 ** 62, 1]], f"(1, 1, {2 ** 62})"),
        ([[-2 ** 63, 0, 0, 1]], f"({-2 ** 63}, 0, 0)"),
    ])
    def test_first_key_outside_in_row_order_named(self, bad, key):
        with pytest.raises(ValueError) as exc:
            FusionRing(("0", "x"), 0, (0, 1), np.array(bad, dtype=np.int64))
        assert str(exc.value) == f"fusion key (a, b, c) = {key} is outside [0, 2)"

    @pytest.mark.parametrize("quads,got", [
        (np.zeros((3, 4), dtype=np.float64), "float64 of shape (3, 4)"),
        (np.zeros((3, 4), dtype=np.int32), "int32 of shape (3, 4)"),
        (np.zeros((3, 5), dtype=np.int64), "int64 of shape (3, 5)"),
        (np.zeros((3, 4, 1), dtype=np.int64), "int64 of shape (3, 4, 1)"),
        (np.zeros(4, dtype=np.int64), "int64 of shape (4,)")])
    def test_other_shapes_and_dtypes_refused(self, quads, got):
        with pytest.raises(ValueError) as exc:
            FusionRing(("0", "g"), 0, (0, 1), quads)
        assert str(exc.value) == (
            f"fusion table must be an int64 array of shape (2, 2, 2), got {got}")

    def test_dict_faults_named_in_the_dict_order(self):
        # a key outside before a bool multiplicity, and the other way round
        outside_first = {(0, 0): {0: 1}, (1, 2): {0: 1}, (1, 1): {0: True}}
        with pytest.raises(ValueError, match=r"^fusion key \(a, b, c\) = \(1, 2, 0\) is outside"):
            FusionRing(("0", "x"), 0, (0, 1), outside_first)
        bool_first = {(0, 0): {0: 1}, (1, 1): {0: True}, (1, 2): {0: 1}}
        with pytest.raises(ValueError, match=r"^fusion multiplicity at .* must be an integer"):
            FusionRing(("0", "x"), 0, (0, 1), bool_first)
        past_int64 = {(0, 0): {0: 2 ** 64}, (1, 2 ** 64): {0: 1}}
        with pytest.raises(ValueError, match=r"^fusion multiplicity at .* must fit in int64"):
            FusionRing(("0", "x"), 0, (0, 1), past_int64)


def permutations_by_loop(ring):
    """invertible_permutations as it was, one g at a time: the oracle."""
    n, t, out = ring.size, ring.table, {}
    for g in range(n):
        if t[g].sum() == n and t[g, ring.dual[g], ring.unit_index] == 1:
            rows, cols = np.nonzero(t[g])
            if not np.array_equal(rows, np.arange(n)):
                raise ValueError(f"fusion by {ring.simples[g]} is not a permutation")
            out[g] = tuple(cols.tolist())
    return out


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


class TestInvertiblePermutations:
    def test_equal_the_loop_on_built_rings(self, example_categories):
        for data in example_categories.values():
            assert dict(data.ring.invertible_permutations) == permutations_by_loop(data.ring)

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.sampled_from([0, 0, 0, 1, 1, 2, -1]),
                             min_size=n ** 3, max_size=n ** 3),
        st.permutations(range(n)))))
    def test_equal_the_loop_on_drawn_tables(self, case):
        n, values, dual = case
        table = np.array(values, dtype=np.int64).reshape(n, n, n)
        table[0] = np.eye(n, dtype=np.int64)  # an invertible unit, as often as not
        ring = FusionRing(tuple(map(str, range(n))), 0, dual, table)
        assert (outcome(lambda: dict(ring.invertible_permutations))
                == outcome(permutations_by_loop, ring))

    def test_fusion_that_is_no_permutation_names_the_first_object(self):
        # g and x each fuse to n = 3 simples and contain the unit once with
        # their duals, but g (x) g = 0 + x and g (x) x = 0
        tensor = {(0, 0): {0: 1}, (0, 1): {1: 1}, (0, 2): {2: 1},
                  (1, 0): {1: 1}, (1, 1): {0: 1, 2: 1},
                  (2, 0): {2: 1}, (2, 2): {0: 1, 1: 1}}
        ring = FusionRing(("0", "g", "x"), 0, (0, 1, 2), tensor)
        with pytest.raises(ValueError) as exc:
            ring.invertible_permutations
        assert str(exc.value) == "fusion by g is not a permutation"
        del tensor[1, 1][2]
        tensor[1, 2] = {2: 1}  # now g (x) X is one simple for every X
        for x_times_x, x_times_unit in [({0: 1, 1: 1}, {2: 1}), ({0: 1}, {2: 2})]:
            # x (x) g = 0 and x (x) x is two simples, or x (x) 0 = 2x
            tensor[2, 2], tensor[2, 0] = x_times_x, x_times_unit
            ring = FusionRing(("0", "g", "x"), 0, (0, 1, 2), tensor)
            with pytest.raises(ValueError) as exc:
                ring.invertible_permutations
            assert str(exc.value) == "fusion by x is not a permutation"


class TestReadOnly:
    def test_table_is_read_only(self, sl4_level2):
        with pytest.raises(ValueError):
            sl4_level2.ring.table[0, 0, 0] = 2

    @pytest.mark.parametrize("name", ["simples", "unit_index", "dual", "table",
                                      "invertible_permutations", "extra"])
    def test_attributes_cannot_be_assigned(self, sl4_level2, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sl4_level2.ring, name, None)

    def test_invertible_permutations_are_read_only(self, sl4_level2):
        perms = sl4_level2.ring.invertible_permutations
        with pytest.raises(TypeError):
            perms[sl4_level2.ring.unit_index] = ()

    def test_tensor_is_a_new_dict_of_the_nonzero_entries(self, sl4_level2):
        ring = sl4_level2.ring
        tensor = ring.tensor
        assert tensor is not ring.tensor and tensor == ring.tensor
        entries = {(a, b, c): m for (a, b), fiber in tensor.items() for c, m in fiber.items()}
        assert entries == {tuple(i): ring.table[tuple(i)]
                           for i in np.argwhere(ring.table).tolist()}
        assert all(m > 0 for m in entries.values())

    def test_equality_compares_labels_unit_dual_and_table(self, sl4_level2):
        ring = sl4_level2.ring
        tensor = ring.tensor
        assert FusionRing(ring.simples, ring.unit_index, ring.dual, tensor) == ring
        relabelled = ("1",) + ring.simples[1:]
        assert FusionRing(relabelled, ring.unit_index, ring.dual, tensor) != ring
        a = ring.index("L1")
        tensor[a, a][next(iter(tensor[a, a]))] += 1
        assert FusionRing(ring.simples, ring.unit_index, ring.dual, tensor) != ring
