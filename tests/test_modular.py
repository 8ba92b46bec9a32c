import dataclasses
import itertools
from fractions import Fraction
from math import lcm

import pytest

from simplecurrents import catfile, currents, fusion, lie, modular
from simplecurrents.angles import ZERO_ANGLE, angle, primitive_angles
from simplecurrents.fusion import FusionRing, NotInvertibleError
from simplecurrents.modular import InconsistentDataError
from test_catfile import GOLDEN_SHA256, ising_payload


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
        level = fusion.MAX_SIMPLES  # the A1 alcove at level k has k + 1 weights
        with pytest.raises(fusion.TooLargeError) as exc:
            modular.build_wzw_data(lie.lie_algebra("A", 1), level)
        assert str(exc.value) == (
            f"A1 at level {level} has {level + 1} simple objects, "
            f"more than the limit of {fusion.MAX_SIMPLES}")

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
        fold = lie.fusion_coefficients

        def no_unit(spec, k, lam, mu):
            return {(1,): 1} if (lam, mu) == ((1,), (1,)) else fold(spec, k, lam, mu)
        monkeypatch.setattr(lie, "fusion_coefficients", no_unit)
        with pytest.raises(InconsistentDataError) as exc:
            modular.build_wzw_data.__wrapped__(lie.lie_algebra("A", 1), 1)
        assert str(exc.value) == "fusion axioms fail: duality fails: N^unit_{1,1} = 0"


# The readers of the charge table as they were before it, each recomputing
# its monodromies from the twists: the references for the table's readers.


def charges_by_monodromy(data, g, m):
    charges = []
    for x in range(data.size):
        mono = modular.monodromy(data, g, x)
        assert m % mono.order == 0
        charges.append(mono.num * (m // mono.den))
    return tuple(charges)


def grading_by_monodromy(data, profile, zeta):
    m = profile.M
    return tuple(0 if m == 1 else q * pow(zeta.num, -1, m) % m
                 for q in charges_by_monodromy(data, profile.g, m))


def support_by_monodromy(data, g):
    return lcm(*(modular.monodromy(data, g, x).order for x in range(data.size)))


def commutes_by_monodromy(data, g, h):
    return modular.monodromy(data, g, h).is_zero


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
    s, _, roots = lie._root_form(spec)
    bound = s * (level + spec.dual_coxeter)
    for lam in lie.alcove_weights(spec, level):
        for _, _, pairing, _ in roots:
            assert 0 < sum(p * (x + 1) for p, x in zip(pairing, lam)) < bound
        assert lie.quantum_dimension(spec, level, lam) > 0
