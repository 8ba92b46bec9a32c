import dataclasses
import gc
import itertools
import time
import weakref
from fractions import Fraction
from math import gcd, lcm

import numpy as np
import pytest

from simplecurrents import catfile, currents, fusion, lie, modular
from simplecurrents.angles import ZERO_ANGLE, angle, primitive_angles
from simplecurrents.fusion import FusionRing, NotInvertibleError
from simplecurrents.modular import InconsistentDataError
from test_catfile import (GOLDEN_SHA256, cyclic_factor, deligne_payload, ising_factor,
                          ising_payload)


class TestBuild:
    @pytest.mark.parametrize("name", ["ring", "twist", "qdim", "weights", "extra"])
    def test_data_is_frozen(self, sl4_level2, name):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(sl4_level2, name, None)

    def test_sl4_level2(self, sl4_level2):
        assert sl4_level2.size == 10
        ring = sl4_level2.ring
        assert sl4_level2.twist[ring.index("2L1")] == angle(3, 4)

    def test_sl6_level2(self, sl6_level2):
        assert sl6_level2.size == 21
        ring = sl6_level2.ring
        assert sl6_level2.twist[ring.index("2L3")] == angle(1, 2)

    def test_so8_level2(self, so8_level2):
        assert so8_level2.size == 11
        ring = so8_level2.ring
        assert so8_level2.twist[ring.index("2L1")] == ZERO_ANGLE

    def test_unit_normalisation(self, example_categories):
        for data in example_categories.values():
            u = data.ring.unit_index
            assert data.twist[u].is_zero
            assert data.qdim[u] == pytest.approx(1.0)

    def test_twist_dual_invariant(self, example_categories):
        for data in example_categories.values():
            for a in range(data.size):
                assert data.twist[data.ring.dual[a]] == data.twist[a]

    def test_alcove_too_large_refused_before_the_fold(self, monkeypatch):
        def no_fold(*args):
            raise AssertionError("fold started")
        monkeypatch.setattr(lie, "fusion_coefficients", no_fold)
        monkeypatch.setattr(modular, "_fold_rows", no_fold)
        level = fusion.MAX_SIMPLES  # the A1 alcove at level k has k + 1 weights
        with pytest.raises(fusion.TooLargeError) as exc:
            modular.build_wzw_data(lie.lie_algebra("A", 1), level)
        assert str(exc.value) == (
            f"A1 at level {level} has {level + 1} simple objects, "
            f"more than the limit of {fusion.MAX_SIMPLES}")

    @pytest.mark.parametrize("rank,count", [(20, 137846528820), (12, 2704156)])
    def test_alcove_counted_before_it_is_listed(self, monkeypatch, rank, count):
        # the A_r alcove at level k has binomial(k + r, r) weights
        def no_listing(*args):
            raise AssertionError("alcove listed")
        monkeypatch.setattr(lie, "alcove_weights", no_listing)
        with pytest.raises(fusion.TooLargeError) as exc:
            modular.build_wzw_data(lie.lie_algebra("A", rank), rank)
        assert str(exc.value) == (
            f"A{rank} at level {rank} has {count} simple objects, "
            f"more than the limit of {fusion.MAX_SIMPLES}")

    def test_level_past_the_count_refused_at_once(self, monkeypatch):
        def no_count(*args):
            raise AssertionError("alcove counted or listed")
        monkeypatch.setattr(lie, "alcove_size", no_count)
        monkeypatch.setattr(lie, "alcove_weights", no_count)
        spec, t0 = lie.lie_algebra("A", 1), time.perf_counter()
        with pytest.raises(fusion.TooLargeError) as exc:
            modular.build_wzw_data(spec, 10 ** 9)
        assert time.perf_counter() - t0 < 1.0
        assert str(exc.value) == (
            "A1 at level 1000000000 has at least 1000000001 simple objects, "
            f"more than the limit of {fusion.MAX_SIMPLES}")

    def test_count_exact_up_to_its_level_cap(self):
        level = 2 * fusion.MAX_SIMPLES
        with pytest.raises(fusion.TooLargeError, match=f" has {level + 1} simple"):
            modular.build_wzw_data(lie.lie_algebra("A", 1), level)
        with pytest.raises(fusion.TooLargeError, match=f" has at least {level + 2} simple"):
            modular.build_wzw_data(lie.lie_algebra("A", 1), level + 1)

    def test_lower_bound_past_the_cap_exceeds_the_limit(self):
        for family, rank in [("A", 1), ("B", 2), ("C", 3), ("D", 4), ("E", 6),
                             ("E", 7), ("E", 8), ("F", 4), ("G", 2)]:
            least = min(lie.lie_algebra(family, rank).comark)
            assert least <= 2
            assert (2 * fusion.MAX_SIMPLES + 1) // least + 1 > fusion.MAX_SIMPLES

    def test_build_keeps_nothing_after_the_caller_drops_it(self):
        data = modular.build_wzw_data(lie.lie_algebra("A", 3), 2)
        ring = weakref.ref(data.ring)
        del data
        gc.collect()
        assert ring() is None

    def test_each_build_returns_new_equal_data(self):
        spec = lie.lie_algebra("A", 3)
        first, second = modular.build_wzw_data(spec, 2), modular.build_wzw_data(spec, 2)
        assert first is not second and first.ring is not second.ring
        assert first.ring == second.ring
        assert (first.twist, first.qdim) == (second.twist, second.qdim)

    def test_diagrams_too_large_refused_before_the_fold(self, monkeypatch):
        def no_diagram(*args):
            raise AssertionError("diagram or fold started")
        monkeypatch.setattr(lie, "fusion_coefficients", no_diagram)
        monkeypatch.setattr(modular, "_fold_rows", no_diagram)
        monkeypatch.setattr(lie, "weight_multiplicities", no_diagram)
        # the A_r alcove at level 1 has r + 1 weights, whose dimensions sum to 2^(r+1) - 1
        with pytest.raises(fusion.TooLargeError) as exc:
            modular.build_wzw_data(lie.lie_algebra("A", 30), 1)
        assert str(exc.value) == (
            "A30 at level 1 has weight diagrams of 2147483647 weights in all, "
            f"more than the limit of {modular.MAX_DIAGRAM_WEIGHTS}")

    def test_diagram_limit_admits_the_largest_suite_build(self):
        spec = lie.lie_algebra("A", 3)
        size = sum(lie.weyl_dimension(spec, w) for w in lie.alcove_weights(spec, 8))
        assert size == 108_537 <= modular.MAX_DIAGRAM_WEIGHTS

    def test_level_must_be_positive(self):
        with pytest.raises(ValueError):
            modular.build_wzw_data(lie.lie_algebra("A", 3), 0)


class TestSelfBraiding:
    def test_paper_values(self, sl4_level2, sl6_level2, so8_level2):
        assert currents.profile(
            sl4_level2, sl4_level2.ring.index("2L1")).q == angle(3, 4)
        assert currents.profile(
            sl6_level2, sl6_level2.ring.index("2L1")).q == angle(5, 6)
        assert currents.profile(
            so8_level2, so8_level2.ring.index("2L4")).q == ZERO_ANGLE

    def test_requires_invertible(self, sl4_level2):
        with pytest.raises(NotInvertibleError):
            currents.profile(sl4_level2, sl4_level2.ring.index("L1"))

    def test_negative_dimension_convention(self):
        # for d_g = -1 the eigenvalue is the twist shifted by a half turn
        from simplecurrents.fusion import FusionRing
        ring = FusionRing(simples=("0", "g"), unit_index=0, dual=(0, 1),
                          tensor={(0, 0): {0: 1}, (0, 1): {1: 1},
                                  (1, 0): {1: 1}, (1, 1): {0: 1}})
        data = modular.ModularCategoryData(
            ring=ring, twist=(ZERO_ANGLE, angle(1, 4)), qdim=(1.0, -1.0))
        assert currents.profile(data, 1).q == angle(3, 4)

    def test_square_equals_self_monodromy(self, example_categories):
        # q^2 (angle-doubled q) must equal twist(g x g) - 2 twist(g)
        for data in example_categories.values():
            for g in fusion.invertibles(data.ring):
                q = currents.profile(data, g).q
                assert q + q == modular.monodromy(data, g, g)


class TestMonodromy:
    def test_examples(self, sl4_level2):
        ring = sl4_level2.ring
        g = ring.index("2L1")
        assert modular.monodromy(sl4_level2, g, ring.index("L1")) == angle(3, 4)
        assert modular.monodromy(sl4_level2, g, g) == angle(1, 2)
        assert modular.monodromy(sl4_level2, g, ring.unit_index) == ZERO_ANGLE

    def test_requires_invertible(self, sl4_level2):
        with pytest.raises(NotInvertibleError):
            modular.monodromy(sl4_level2, sl4_level2.ring.index("L2"), 0)

    def test_multiplicative_in_g(self, example_categories):
        # doubling the current doubles every monodromy
        for data in example_categories.values():
            for g in fusion.invertibles(data.ring):
                perm = fusion.fuse_permutation(data.ring, g)
                g2 = perm[g]
                for x in range(data.size):
                    assert (2 * modular.monodromy(data, g, x)
                            == modular.monodromy(data, g2, x))


class TestGrading:
    def test_sl4_grades(self, sl4_level2):
        data = sl4_level2
        ring = data.ring
        p = currents.profile(data, ring.index("2L1"))
        g_mi = modular.grading(p, angle(3, 4))
        assert g_mi[ring.index("L1")] == 1
        g_i = modular.grading(p, angle(1, 4))
        assert g_i[ring.index("L1")] == 3
        assert g_i[ring.unit_index] == 0

    def test_rejects_imprimitive_zeta(self, sl4_level2):
        p = currents.profile(sl4_level2, sl4_level2.ring.index("2L1"))
        with pytest.raises(ValueError):
            modular.grading(p, angle(1, 2))

    def test_additivity(self, example_categories):
        # grade(Z) = grade(X) + grade(Y) mod M whenever N^Z_{XY} > 0
        for data in example_categories.values():
            ring = data.ring
            for g in fusion.invertibles(ring):
                p = currents.profile(data, g)
                zeta = currents.admissible_zetas(p)[0] if currents.admissible_zetas(p) \
                    else None
                if zeta is None:
                    continue
                grades = modular.grading(p, zeta)
                for (a, b), fiber in ring.tensor.items():
                    for c in fiber:
                        assert grades[c] == (grades[a] + grades[b]) % p.M

    def test_support(self, sl4_level2, so8_level2):
        p4 = currents.profile(sl4_level2, sl4_level2.ring.index("2L1"))
        assert modular.grading_support(p4) == 4
        p8 = currents.profile(so8_level2, so8_level2.ring.index("2L1"))
        assert modular.grading_support(p8) == 2
        pu = currents.profile(sl4_level2, sl4_level2.ring.unit_index)
        assert modular.grading_support(pu) == 1

    def test_faithful_on_built_categories(self, example_categories):
        for data in example_categories.values():
            for g in fusion.invertibles(data.ring):
                p = currents.profile(data, g)
                assert modular.grading_support(p) == p.M


class TestValidation:
    def test_validate_accepts_built(self, example_categories):
        for data in example_categories.values():
            modular.validate(data)

    def test_validate_rejects_bad_unit_twist(self, sl4_level2):
        twisted = list(sl4_level2.twist)
        twisted[sl4_level2.ring.unit_index] = angle(1, 3)
        bad = modular.ModularCategoryData(
            ring=sl4_level2.ring, twist=tuple(twisted), qdim=sl4_level2.qdim)
        with pytest.raises(InconsistentDataError):
            modular.validate(bad)

    @pytest.mark.parametrize("qdim,message", [
        ((float("nan"), 1.0), "unit quantum dimension must be 1, got nan"),
        ((1.0, float("nan")), "invertible g has |qdim| = nan, expected 1"),
    ])
    def test_validate_rejects_nan_qdim(self, qdim, message):
        # abs(nan - 1) > tol is False, so a NaN used to pass both checks
        from simplecurrents.fusion import FusionRing
        ring = FusionRing(simples=("0", "g"), unit_index=0, dual=(0, 1),
                          tensor={(0, 0): {0: 1}, (0, 1): {1: 1},
                                  (1, 0): {1: 1}, (1, 1): {0: 1}})
        data = modular.ModularCategoryData(
            ring=ring, twist=(ZERO_ANGLE, angle(1, 4)), qdim=qdim)
        with pytest.raises(InconsistentDataError) as exc:
            modular.validate(data)
        assert str(exc.value) == message

    def test_grading_check_rejects_symmetric_centre(self):
        # a Z2 ring with trivial twists has an unfaithful grading
        from simplecurrents.fusion import FusionRing
        ring = FusionRing(simples=("0", "g"), unit_index=0, dual=(0, 1),
                          tensor={(0, 0): {0: 1}, (0, 1): {1: 1},
                                  (1, 0): {1: 1}, (1, 1): {0: 1}})
        data = modular.ModularCategoryData(
            ring=ring, twist=(ZERO_ANGLE, ZERO_ANGLE), qdim=(1.0, 1.0))
        with pytest.raises(InconsistentDataError, match="symmetric centre"):
            modular.check_modular_grading(data)


    def test_build_refuses_a_ring_without_duals(self, monkeypatch):
        # L1 (x) L1 at A1 k=1 made L1 instead of the unit: L1 has no dual, so
        # it keeps itself and validate's duality law refuses the ring
        fold, changed = modular._fold_rows, []

        def no_unit(spec, k, weights, index, pairs):
            for a, b, prod in fold(spec, k, weights, index, pairs):
                for i in np.flatnonzero((a == 1) & (b == 1)):  # L1 (x) L1
                    prod[i] = (0, 1)
                    changed.append(int(b[i]))
                yield a, b, prod
        monkeypatch.setattr(modular, "_fold_rows", no_unit)
        with pytest.raises(InconsistentDataError) as exc:
            modular.build_wzw_data(lie.lie_algebra("A", 1), 1)
        assert str(exc.value) == "fusion axioms fail: duality fails: N^unit_{1,1} = 0"
        assert changed == [1]


# The readers of the charge table as they were before it, each recomputing
# its monodromies from the twists: the references for the table's readers.


def monodromy_by_angles(data, g, x):
    """twist(g (x) x) - twist(g) - twist(x) in RationalAngle arithmetic, as
    modular.monodromy took it before the twists were put over one denominator:
    the reference for the integer monodromies."""
    perm = fusion.fuse_permutation(data.ring, g)
    return data.twist[perm[x]] - data.twist[g] - data.twist[x]


def charges_by_monodromy(data, g, m):
    charges = []
    for x in range(data.size):
        mono = monodromy_by_angles(data, g, x)
        assert m % mono.order == 0
        charges.append(mono.num * (m // mono.den))
    return tuple(charges)


def grading_by_monodromy(data, profile, zeta):
    m = profile.M
    return tuple(0 if m == 1 else q * pow(zeta.num, -1, m) % m
                 for q in charges_by_monodromy(data, profile.g, m))


def support_by_monodromy(data, g):
    return lcm(*(monodromy_by_angles(data, g, x).order for x in range(data.size)))


def commutes_by_monodromy(data, g, h):
    return monodromy_by_angles(data, g, h).is_zero


def pointed(*moduli):
    """SU(N1)_1 x ... x SU(Nm)_1: Z_N1 x ... x Z_Nm fusion, twist sum of j(N-j)/2N."""
    objects = list(itertools.product(*map(range, moduli)))
    index = {o: i for i, o in enumerate(objects)}

    def add(a, b):
        return index[tuple((x + y) % n for x, y, n in zip(a, b, moduli))]
    twists = [sum(Fraction(x * (n - x), 2 * n) for x, n in zip(o, moduli)) for o in objects]
    ring = FusionRing([str(o) for o in objects], 0,
                      [index[tuple(-x % n for x, n in zip(o, moduli))] for o in objects],
                      {(index[a], index[b]): {add(a, b): 1} for a in objects for b in objects})
    data = modular.ModularCategoryData(
        ring=ring, twist=tuple(angle(t.numerator, t.denominator) for t in twists),
        qdim=(1.0,) * len(objects))
    modular.validate(data)
    return data


CHARGE_CATEGORIES = {
    "sl4-2": lambda: modular.build_wzw_data(lie.lie_algebra("A", 3), 2),
    "sl6-2": lambda: modular.build_wzw_data(lie.lie_algebra("A", 5), 2),
    "so8-2": lambda: modular.build_wzw_data(lie.lie_algebra("D", 4), 2),
    "A2-3": lambda: modular.build_wzw_data(lie.lie_algebra("A", 2), 3),
    "A2-6": lambda: modular.build_wzw_data(lie.lie_algebra("A", 2), 6),
    "A8-1": lambda: modular.build_wzw_data(lie.lie_algebra("A", 8), 1),
    "E6-1": lambda: modular.build_wzw_data(lie.lie_algebra("E", 6), 1),
    "ising": lambda: catfile.payload_to_category(ising_payload())[0],
    "SU2xSU2xSU6-1": lambda: pointed(2, 2, 6),
    "SU3xSU3-1": lambda: pointed(3, 3),
}


@pytest.mark.parametrize("name", sorted(CHARGE_CATEGORIES))
class TestChargeTable:
    def test_grading_equals_the_monodromy_reference(self, name):
        # every primitive zeta, so every admissible one among them
        data = CHARGE_CATEGORIES[name]()
        for g in fusion.invertibles(data.ring):
            p = currents.profile(data, g)
            for zeta in primitive_angles(p.M):
                assert (modular.grading(p, zeta)
                        == grading_by_monodromy(data, p, zeta))

    def test_support_and_commutation_equal_the_monodromy_reference(self, name):
        data = CHARGE_CATEGORIES[name]()
        inv = fusion.invertibles(data.ring)
        assert list(data.profiles) == inv
        for g in inv:
            p = currents.profile(data, g)
            assert modular.grading_support(p) == support_by_monodromy(data, g) == p.M
            for h in inv:
                assert (currents.commute_test(data, g, h)
                        == commutes_by_monodromy(data, g, h))

    def test_table_is_read_only(self, name):
        data = CHARGE_CATEGORIES[name]()
        with pytest.raises(TypeError):
            data.profiles[0] = data.profiles[0]
        assert all(isinstance(p.charges, tuple) for p in data.profiles.values())
        with pytest.raises(TypeError):
            data.profiles[0].charges[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            data.profiles[0].charges = ()


class TestChargeTableCache:
    def test_replace_gets_a_fresh_table(self, so8_level2):
        g = so8_level2.ring.index("2L1")
        before = so8_level2.profiles[g].charges
        shifted = tuple(t + angle(1, 2) if y == g else t
                        for y, t in enumerate(so8_level2.twist))
        other = dataclasses.replace(so8_level2, twist=shifted)
        assert other.profiles is not so8_level2.profiles
        # each monodromy of g but those with the unit and g itself moves by -1/2
        assert other.profiles[g].charges == tuple(q if x in (0, g) else (q + 1) % 2
                                                  for x, q in enumerate(before))
        assert so8_level2.profiles[g].charges == before

    def test_each_order_walked_once(self, monkeypatch):
        # one loop builds each invertible's record, charges included, so
        # validate walks each order once
        walked, order = [], fusion.invertible_order

        def counted(ring, g):
            walked.append(g)
            return order(ring, g)
        monkeypatch.setattr(fusion, "invertible_order", counted)
        data = pointed(6, 6)  # SU(6)_1 x SU(6)_1: 36 invertibles
        assert walked == fusion.invertibles(data.ring)
        assert len(walked) == 36

    def test_charges_have_no_default(self, so8_level2):
        p = so8_level2.profiles[0]
        fields = {f.name: getattr(p, f.name) for f in dataclasses.fields(p)
                  if f.name != "charges"}
        with pytest.raises(TypeError, match="charges"):
            modular.InvertibleProfile(**fields)

    def test_commute_test_requires_both_invertible(self, sl4_level2):
        ring = sl4_level2.ring
        g, x = ring.index("2L1"), ring.index("L1")
        for pair in [(g, x), (x, g)]:
            with pytest.raises(NotInvertibleError):
                currents.commute_test(sl4_level2, *pair)


def unchecked_category(payload):
    """The category of a file payload, made with no check beyond the ring's."""
    return modular.ModularCategoryData(
        ring=FusionRing(payload["simples"], 0, payload["dual"],
                        np.array(payload["fusion"], dtype=np.int64)),
        twist=tuple(angle(*t) for t in payload["twists"]), qdim=tuple(payload["qdims"]))


def with_twist_shift(data, label, shift):
    """data with the twist of ``label`` moved by ``shift``."""
    x = data.ring.index(label)
    return dataclasses.replace(data, twist=tuple(
        t + shift if y == x else t for y, t in enumerate(data.twist)))


def first_bad_monodromy(data):
    """The refusal of the first (g, x), g first, each in index order, whose
    monodromy is no root of g's order, taken pair by pair in RationalAngle
    arithmetic as the records were checked one g at a time: the reference."""
    ring = data.ring
    for g in fusion.invertibles(ring):
        m = fusion.invertible_order(ring, g)
        for x in range(data.size):
            mono = monodromy_by_angles(data, g, x)
            if m % mono.order:
                return (f"monodromy {mono} of {ring.simples[g]} with "
                        f"{ring.simples[x]} is not an order-{m} root")
    return None


def monodromy_turns_by_pair(perm, den, turns, g, x):
    """The twist difference for one pair in Python ints, as _monodromy_turns
    took it before it took arrays: the reference of the charge array."""
    return (turns[perm[x]] - turns[g] - turns[x]) % den


# SU(2)_1 x Ising: objects 0,0 0,eps 0,sigma 1,0 1,eps 1,sigma, the first
# five but the sigmas invertible.  Moving the twist of 1,sigma by 1/3 breaks
# the monodromies of 1,0 and 1,eps with 0,sigma and 1,sigma, and no other.
SU2_ISING = (cyclic_factor(2), ising_factor(Fraction(1, 16)))


class TestChargeArrayFaults:
    @pytest.mark.parametrize("faulty_qdim,message", [
        ("0,eps", "invertible 0,eps has |qdim| = 2.0, expected 1"),
        ("1,eps", "monodromy 1/3 of 1,0 with 0,sigma is not an order-2 root"),
        # one g with both faults: its monodromies are checked before |d_g|
        ("1,0", "monodromy 1/3 of 1,0 with 0,sigma is not an order-2 root"),
    ])
    def test_first_invertible_named_first(self, faulty_qdim, message):
        data = with_twist_shift(unchecked_category(deligne_payload(*SU2_ISING)),
                                "1,sigma", angle(1, 3))
        qdim = list(data.qdim)
        qdim[data.ring.index(faulty_qdim)] = 2.0
        data = dataclasses.replace(data, qdim=tuple(qdim))
        with pytest.raises(InconsistentDataError) as exc:
            data.profiles
        assert str(exc.value) == message

    @pytest.mark.parametrize("factors,label,shift,message", [
        (SU2_ISING, "1,sigma", angle(1, 3),
         "monodromy 1/3 of 1,0 with 0,sigma is not an order-2 root"),
        (SU2_ISING, "0,sigma", angle(1, 3),
         "monodromy 2/3 of 1,0 with 0,sigma is not an order-2 root"),
        # 1,0 fails first with 1,sigma, though 2,0 fails at the earlier 0,sigma
        ((cyclic_factor(3), ising_factor(Fraction(1, 16))), "2,sigma", angle(1, 5),
         "monodromy 13/15 of 1,0 with 1,sigma is not an order-3 root"),
        ((cyclic_factor(2), cyclic_factor(4)), "1,3", angle(1, 2 ** 70),
         f"monodromy {2 ** 69 + 1}/{2 ** 70} of 0,1 with 1,2 is not an order-4 root"),
    ])
    def test_first_pair_named(self, factors, label, shift, message):
        data = with_twist_shift(unchecked_category(deligne_payload(*factors)), label, shift)
        with pytest.raises(InconsistentDataError) as exc:
            data.profiles
        assert str(exc.value) == first_bad_monodromy(data) == message

    # SU(3)_1 x Ising with the twist 1/D on sigma: den = 6D and the largest
    # order is 6, so den * M = 36 D
    @pytest.mark.parametrize("d,dtype", [((2 ** 63 - 1) // 36 // 6 * 6 - 1, np.int64),
                                         ((2 ** 63 - 1) // 36 // 6 * 6 + 5, object)])
    def test_both_dtype_paths(self, monkeypatch, d, dtype):
        assert gcd(d, 6) == 1 and (36 * d < 2 ** 63) == (dtype is np.int64)
        dtypes, turns_of = [], modular._monodromy_turns

        def recorded(perms, den, turns, gs):
            dtypes.append(turns.dtype)
            return turns_of(perms, den, turns, gs)
        monkeypatch.setattr(modular, "_monodromy_turns", recorded)
        payload = deligne_payload(cyclic_factor(3), ising_factor(Fraction(1, d)))
        data, _ = catfile.payload_to_category(payload)
        assert dtypes == [np.dtype(dtype)]
        den = lcm(*(t.den for t in data.twist))
        turns = [t.num * (den // t.den) for t in data.twist]
        assert den == 6 * d and max(p.M for p in data.profiles.values()) == 6
        for g, p in data.profiles.items():
            perm = fusion.fuse_permutation(data.ring, g)
            assert p.charges == tuple(
                monodromy_turns_by_pair(perm, den, turns, g, x) * p.M // den
                for x in range(data.size))
            assert all(type(q) is int for q in p.charges)
        assert_charges_are_the_monodromies(data)


# the categories the suite builds, and seven more of other types
EXACT_SIGN_CASES = sorted({*GOLDEN_SHA256, ("A", 2, 3), ("A", 2, 6), ("A", 8, 1),
                           ("E", 6, 1), ("D", 4, 1), ("B", 2, 1), ("C", 3, 1),
                           ("G", 2, 1), ("G", 2, 3), ("F", 4, 2), ("E", 7, 2),
                           ("E", 8, 2), ("B", 3, 3), ("C", 4, 2), ("D", 5, 3)})


@pytest.mark.parametrize("family,rank,level", EXACT_SIGN_CASES)
def test_built_quantum_dimensions_are_positive_exactly(family, rank, level):
    # d_lam is a product of sin(pi P / (s kappa)) / sin(pi P_rho / (s kappa)) over
    # the positive roots; with 0 < P < s kappa every factor is positive, so
    # sign(d_g) of built data never rests on the float
    spec = lie.lie_algebra(family, rank)
    bound = spec.scale * (level + spec.dual_coxeter)
    for lam in lie.alcove_weights(spec, level):
        for _, _, pairing, _ in spec.roots:
            assert 0 < sum(p * (x + 1) for p, x in zip(pairing, lam)) < bound
        assert lie.quantum_dimension(spec, level, lam) > 0


def full_fold(spec, level):
    """The fold of every pair a <= b that the orbit fill replaced, kept as its
    oracle: {(a, b): {c: N^c_{ab}}} over every pair of alcove weights."""
    weights = lie.alcove_weights(spec, level)
    index = {w: i for i, w in enumerate(weights)}
    tensor = {}
    for a in range(len(weights)):
        for b in range(a, len(weights)):
            prod = lie.fusion_coefficients(spec, level, weights[a], weights[b])
            tensor[(a, b)] = tensor[(b, a)] = {index[w]: m for w, m in prod.items()}
    return tensor


# every golden-hash category, one or more of each other type, current groups
# past level 2: Z2 x Z2 (D4 k=4), Z6 (A5 k=3) and Z4 (D5 k=3), and G2 at level
# 8, with no currents: 25 orbits of one simple, whose rows fill two chunks
FOLD_CATEGORIES = sorted({*GOLDEN_SHA256, ("D", 5, 2), ("E", 7, 2), ("A", 1, 40),
                          ("A", 2, 10), ("G", 2, 3), ("F", 4, 2), ("D", 4, 4),
                          ("A", 5, 3), ("D", 5, 3), ("G", 2, 8)})


def orbit_fold(spec, level):
    """modular._orbit_fold over the sorted alcove weights and their dimensions."""
    weights = lie.alcove_weights(spec, level)
    return modular._orbit_fold(spec, level, weights,
                               [lie.weyl_dimension(spec, w) for w in weights])


def recorded_folds(monkeypatch):
    """The pairs [(b, rows), ...] of each modular._fold_rows call, in call order."""
    calls, fold = [], modular._fold_rows

    def recorded(spec, k, weights, index, pairs):
        calls.append([(b, list(rows)) for b, rows in pairs])
        return fold(spec, k, weights, index, pairs)
    monkeypatch.setattr(modular, "_fold_rows", recorded)
    return calls


class TestOrbitFold:
    @pytest.mark.parametrize("family,rank,level", FOLD_CATEGORIES)
    def test_filled_table_equals_the_full_fold(self, family, rank, level):
        spec = lie.lie_algebra(family, rank)
        ring = modular.build_wzw_data(spec, level).ring
        assert ring.tensor == full_fold(spec, level)

    @pytest.mark.parametrize("family,rank,level", FOLD_CATEGORIES)
    def test_group_is_the_invertible_permutations(self, family, rank, level):
        spec = lie.lie_algebra(family, rank)
        _, group = orbit_fold(spec, level)
        data = modular.build_wzw_data(spec, level)
        perms = data.ring.invertible_permutations
        if (family, rank, level) == ("E", 8, 2):
            # the one exception: no comark is 1, yet one 3875-dim object is invertible
            assert group == [tuple(range(3))] and 1 not in spec.comark
            assert [lie.weyl_dimension(spec, data.weights[g]) for g in perms] == [1, 3875]
        else:
            assert group[0] == tuple(range(len(group[0])))
            assert sorted(group) == sorted(perms.values())

    def test_fold_count_of_a2_level_10(self, monkeypatch):
        # the row of 10 L1, then one pass over a row per orbit of Z3, each
        # against every a not yet done: 23 diagrams, and of the 66^2 entries
        # T[a, b], 824 are folded and the rest filled by the column action and
        # the swap
        spec = lie.lie_algebra("A", 2)
        calls = recorded_folds(monkeypatch)
        table, group = orbit_fold(spec, 10)
        assert table.shape == (66,) * 3 and len(group) == 3
        assert [len(pairs) for pairs in calls] == [1, 22]
        diagrams = [b for pairs in calls for b, _ in pairs]
        assert len(diagrams) == 23 == len(set(diagrams))
        assert sum(len(rows) for pairs in calls for _, rows in pairs) == 824

    def test_rejected_candidates_fold_once(self, monkeypatch):
        # every comark of C3 is 1, but of 3 L1, 3 L2 and 3 L3 at level 3 only
        # 3 L3 is a current; each candidate's row is folded once, and the rows
        # of the other two stay in the table
        spec, level = lie.lie_algebra("C", 3), 3
        weights = lie.alcove_weights(spec, level)
        calls = recorded_folds(monkeypatch)
        table, group = orbit_fold(spec, level)
        assert spec.comark == (1, 1, 1) and len(group) == 2
        candidates = [weights.index(w) for w in [(3, 0, 0), (0, 3, 0), (0, 0, 3)]]
        assert calls[:3] == [[(g, list(range(len(weights))))] for g in candidates]
        assert len(calls) == 4  # the three candidates, then the one orbit pass
        diagrams = [b for pairs in calls for b, _ in pairs]
        assert len(diagrams) == len(set(diagrams))  # each diagram folded once
        assert not set(candidates) & {a for _, rows in calls[3] for a in rows}
        for g in candidates[:2]:
            for x, w in enumerate(weights):
                row = {weights[c]: m for c, m in enumerate(table[g, x].tolist()) if m}
                assert row == lie.fusion_coefficients(spec, level, weights[g], w)
                assert (table[x, g] == table[g, x]).all()

    def test_negative_sum_refused(self, monkeypatch):
        # a diagram of the one weight -3 L1 folds the unit into L1 and L1 into
        # the unit, each with sign -1 at A1 k=2; the unit's own diagram is
        # kept, so the first pair's rows are positive.  The first negative row
        # in fold order is named, whether each row is a chunk or all are one.
        spec = lie.lie_algebra("A", 1)
        weights = lie.alcove_weights(spec, 2)
        monkeypatch.setattr(lie, "weight_multiplicities",
                            lambda spec, lam: {(0,): 1} if lam == (0,) else {(-3,): 1})
        index = modular._alcove_index(spec, 2)
        for budget, chunks in [(1, 2), (fusion.CHUNK_BYTES, 1)]:
            monkeypatch.setattr(fusion, "CHUNK_BYTES", budget)
            folded = list(modular._fold_rows(spec, 2, weights, index, [(0, [0, 2])]))
            assert len(folded) == chunks
            a, b, prod = (np.concatenate(part).tolist() for part in zip(*folded))
            assert (a, b, prod) == ([0, 2], [0, 0], [[1, 0, 0], [0, 0, 1]])
            for pairs, named in [([(0, [0, 2]), (1, [0]), (2, [1])], "{(1,): -1}"),
                                 ([(0, [0, 2]), (2, [1]), (1, [0])], "{(0,): -1}")]:
                with pytest.raises(ArithmeticError) as exc:
                    list(modular._fold_rows(spec, 2, weights, index, pairs))
                assert str(exc.value) == f"negative fusion multiplicity at {named}"

    @pytest.mark.parametrize("family,rank,level", [("C", 3, 3), ("A", 2, 10), ("D", 4, 2)])
    def test_chunked_fold_equals_the_unchunked(self, monkeypatch, family, rank, level):
        spec = lie.lie_algebra(family, rank)
        weights = lie.alcove_weights(spec, level)
        n, default = len(weights), fusion.CHUNK_BYTES
        monkeypatch.setattr(fusion, "CHUNK_BYTES", 2 ** 40)
        calls = recorded_folds(monkeypatch)
        whole, group = orbit_fold(spec, level)
        pairs = [(b, np.array(rows)) for b, rows in calls[-1]]
        assert len(list(modular._chunks(spec, weights, pairs))) == 1
        # one row a chunk; then chunks of a few rows, in which the rows of one
        # diagram are split across chunks, a chunk holds rows of several, and
        # (C3 k=3 at 2^11: 64 points) a row wider than the budget is a chunk
        # of its own; then the default budget
        for budget in (1, 2 ** 11, 2 ** 12, default):
            monkeypatch.setattr(fusion, "CHUNK_BYTES", budget)
            chunks = list(modular._chunks(spec, weights, pairs))
            # every row of every pair, once and in order
            assert [(b, a) for chunk in chunks for b, rows, _, _ in chunk for a in rows] == [
                (b, a) for b, rows in pairs for a in rows]
            wide = 0
            for chunk in chunks:
                count = sum(len(a) for _, a, _, _ in chunk)
                points = sum(len(a) * len(nu) for _, a, nu, _ in chunk)
                assert count == 1 or max((rank + 1) * points, count * n) <= budget // 8
                wide += (rank + 1) * points > budget // 8
            if budget == 1:
                assert len(chunks) == sum(len(rows) for _, rows in pairs)
            if budget in (2 ** 11, 2 ** 12):
                assert any(len({b for b, _, _, _ in chunk}) > 1 for chunk in chunks)
                seen = [{b for b, _, _, _ in chunk} for chunk in chunks]
                assert any(seen[i] & seen[i + 1] for i in range(len(seen) - 1))
            if (family, budget) == ("C", 2 ** 11):
                assert 0 < wide < len(chunks)
            table, chunked_group = orbit_fold(spec, level)
            assert (table == whole).all() and chunked_group == group

    @pytest.mark.parametrize("family,rank,level", [
        ("A", 1, 399), ("A", 22, 1), ("C", 3, 7), ("G", 2, 15), ("E", 8, 2), ("D", 5, 3)])
    def test_alcove_index_is_the_sorted_position(self, family, rank, level):
        spec = lie.lie_algebra(family, rank)
        weights = lie.alcove_weights(spec, level)
        labels = np.array(weights, dtype=np.int64).reshape(len(weights), rank)
        assert modular._alcove_index(spec, level)(labels).tolist() == list(range(len(weights)))

    def test_widest_alcove_builds(self):
        # A22 at level 1, the most labels of any build the bounds admit: Z/23
        data = modular.build_wzw_data(lie.lie_algebra("A", 22), 1)
        assert data.size == 23 == len(data.ring.invertible_permutations)
        perm = fusion.fuse_permutation(data.ring, data.ring.index("L1"))
        assert fusion.invertible_order(data.ring, perm[0]) == 23


def cold_build(spec, level):
    """build_wzw_data with the weight-diagram cache emptied first."""
    lie.weight_multiplicities.cache_clear()
    return modular.build_wzw_data(spec, level)


class TestDiagramsMade:
    @pytest.mark.parametrize("family,rank,level", [
        ("A", 3, 4), ("D", 4, 2), ("B", 4, 2), ("C", 3, 3), ("G", 2, 3), ("E", 6, 2)])
    def test_fold_order_is_the_diagram_sum_order(self, monkeypatch, family, rank, level):
        # after the candidate rows, the b not yet done are folded in order of
        # (diagram sum, index), one per orbit, each once and against a's of no
        # smaller diagram
        spec = lie.lie_algebra(family, rank)
        weights = lie.alcove_weights(spec, level)
        dims = [lie.weyl_dimension(spec, w) for w in weights]
        candidates = {weights.index(tuple(level * (i == j) for i in range(rank)))
                      for j in range(rank) if spec.comark[j] == 1}
        calls = recorded_folds(monkeypatch)
        _, group = orbit_fold(spec, level)
        *candidate_calls, rows = calls
        assert all(len(pairs) == 1 and pairs[0][0] in candidates for pairs in candidate_calls)
        assert rows and not {b for b, _ in rows} & candidates
        assert [b for b, _ in rows] == sorted({b for b, _ in rows}, key=lambda x: (dims[x], x))
        assert len({min(perm[b] for perm in group) for b, _ in rows}) == len(rows)
        for b, a in rows:
            assert all(dims[x] >= dims[b] for x in a)

    # the diagrams the row fold makes: those of the candidate currents and one
    # per orbit row, fewer than the alcove weights
    ROW_FOLD_MADE = {("A", 7, 1): 2, ("A", 14, 1): 2, ("A", 18, 1): 2, ("A", 5, 2): 5,
                     ("D", 4, 2): 7, ("A", 3, 4): 11, ("A", 2, 10): 23}

    # the last figure is what the pair fold made, one diagram per folded pair's
    # smaller argument; the row fold makes no more
    @pytest.mark.parametrize("family,rank,level,pair_fold_made", [
        ("A", 7, 1, 3), ("A", 14, 1, 3), ("A", 18, 1, 3), ("A", 5, 2, 8),
        ("D", 4, 2, 9), ("A", 3, 4, 17), ("A", 2, 10, 40)])
    def test_diagrams_made_per_cold_build(self, family, rank, level, pair_fold_made):
        data = cold_build(lie.lie_algebra(family, rank), level)
        made = lie.weight_multiplicities.cache_info().misses
        assert made == self.ROW_FOLD_MADE[family, rank, level] < data.size
        assert made <= pair_fold_made


# every category the suite builds
BUILT_CATEGORIES = sorted({*FOLD_CATEGORIES, *EXACT_SIGN_CASES})

# loaded files: pointed Deligne products, and Ising products whose sigma has a
# twist over a large prime, so that the twists' common denominator passes 2^64
# (a file loads only if each invertible's twist has a denominator dividing
# twice its order, so a pointed file that loads has a small one)
LOADED_PAYLOADS = {
    "SU4xSU6-1": lambda: deligne_payload(cyclic_factor(4), cyclic_factor(6)),
    "SU2xSU3xSU5-1": lambda: deligne_payload(cyclic_factor(2), cyclic_factor(3),
                                             cyclic_factor(5)),
    "SU6-1": lambda: deligne_payload(cyclic_factor(6)),
    "IsingxSU3-1": lambda: deligne_payload(ising_factor(Fraction(5, 2 ** 89 - 1)),
                                           cyclic_factor(3)),
    "IsingxIsingxSU2xSU6-1": lambda: deligne_payload(
        ising_factor(Fraction(1, 2 ** 61 - 1)), ising_factor(Fraction(3, 2 ** 31 - 1)),
        cyclic_factor(2), cyclic_factor(6)),
}


def assert_charges_are_the_monodromies(data):
    for g, p in data.profiles.items():
        assert p.charges == charges_by_monodromy(data, g, p.M)
        for x in range(data.size):
            assert modular.monodromy(data, g, x) == monodromy_by_angles(data, g, x)


class TestIntegerCharges:
    @pytest.mark.parametrize("family,rank,level", BUILT_CATEGORIES)
    def test_built(self, family, rank, level):
        assert_charges_are_the_monodromies(
            modular.build_wzw_data(lie.lie_algebra(family, rank), level))

    @pytest.mark.parametrize("name", sorted(CHARGE_CATEGORIES))
    def test_charge_categories(self, name):
        assert_charges_are_the_monodromies(CHARGE_CATEGORIES[name]())

    @pytest.mark.parametrize("name", sorted(LOADED_PAYLOADS))
    def test_loaded(self, tmp_path, name):
        path = tmp_path / "cat.json"
        path.write_text(catfile.dumps_canonical(LOADED_PAYLOADS[name]()), encoding="utf-8")
        data, _ = catfile.load_category(path)
        isings = name.count("Ising")  # each has two invertibles of three simples
        assert (lcm(*(t.den for t in data.twist)) > 2 ** 64) == (isings > 0)
        assert len(data.profiles) == data.size * 2 ** isings // 3 ** isings
        assert_charges_are_the_monodromies(data)
