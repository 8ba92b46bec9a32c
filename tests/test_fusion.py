import dataclasses
from math import gcd

import numpy as np
import pytest

from simplecurrents import fusion
from simplecurrents.fusion import FusionRing, NotInvertibleError


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
            exponent = fusion.invertible_group_exponent(ring)
            for g in inv:
                assert ring.dual[g] in inv
                for h in inv:
                    (prod,) = ring.table[g, h].nonzero()
                    assert len(prod) == 1 and ring.table[g, h, prod[0]] == 1
                    assert set(prod.tolist()) <= inv
                assert exponent % fusion.invertible_order(ring, g) == 0

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
