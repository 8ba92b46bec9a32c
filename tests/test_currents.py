import dataclasses

import pytest
from hypothesis import given, strategies as st

from simplecurrents import catfile, currents, fusion, groups, lie, modular
from simplecurrents.angles import ZERO_ANGLE, angle, primitive_angles
from simplecurrents.currents import (CoprimalityError, InadmissibleZetaError,
                                     all_autoequivalences, construct_autoeq)
from simplecurrents.modular import InconsistentDataError, InvertibleProfile
from test_catfile import semion_payload
from test_modular import CHARGE_CATEGORIES, charges_by_monodromy


def pairs(data, perm):
    s = data.ring.simples
    return {s[i]: s[x] for i, x in enumerate(perm) if i != x}


class TestProfile:
    def test_sl4(self, sl4_level2):
        p = currents.profile(sl4_level2, sl4_level2.ring.index("2L1"))
        assert (p.M, p.q, p.q_squared, p.A) == (4, angle(3, 4), angle(1, 2), 2)

    def test_sl6(self, sl6_level2):
        p = currents.profile(sl6_level2, sl6_level2.ring.index("2L1"))
        assert (p.M, p.q, p.q_squared, p.A) == (6, angle(5, 6), angle(2, 3), 2)

    def test_so8(self, so8_level2):
        p = currents.profile(so8_level2, so8_level2.ring.index("2L3"))
        assert (p.M, p.q, p.q_squared, p.A) == (2, ZERO_ANGLE, ZERO_ANGLE, 2)

    def test_unit(self, sl4_level2):
        p = currents.profile(sl4_level2, sl4_level2.ring.unit_index)
        assert (p.M, p.q, p.A) == (1, ZERO_ANGLE, 1)


def profile_from_twists(data, g):
    """currents.profile as it was before ``data.profiles``: rebuilt from the
    twists and quantum dimensions on every call, with the charge row of the
    per-monodromy grading reference; the reference for the table."""
    ring = data.ring
    m = fusion.invertible_order(ring, g)
    d = data.qdim[g]
    assert abs(abs(d) - 1.0) <= modular.QDIM_TOL
    q = data.twist[g] if d > 0 else data.twist[g] + angle(1, 2)
    q2 = q + q
    assert m % q2.order == 0
    assert (2 * m) % q.order == 0 and (m % 2 == 0 or m % q.order == 0)
    return InvertibleProfile(g=g, label=ring.simples[g], M=m, q=q, q_squared=q2,
                             A=m // q2.order, charges=charges_by_monodromy(data, g, m))


def negative_qdim():
    """Z2 with twist 1/4 and d_g = -1: q = 3/4 by the half-turn convention."""
    ring = fusion.FusionRing(simples=("0", "g"), unit_index=0, dual=(0, 1),
                             tensor={(0, 0): {0: 1}, (0, 1): {1: 1},
                                     (1, 0): {1: 1}, (1, 1): {0: 1}})
    data = modular.ModularCategoryData(ring=ring, twist=(ZERO_ANGLE, angle(1, 4)),
                                       qdim=(1.0, -1.0))
    modular.validate(data)
    return data


PROFILE_CATEGORIES = {
    **CHARGE_CATEGORIES,
    "semion": lambda: catfile.payload_to_category(semion_payload())[0],
    "negative-qdim": negative_qdim,
}


class TestProfileTable:
    @pytest.mark.parametrize("name", sorted(PROFILE_CATEGORIES))
    def test_table_equals_the_rebuilt_profiles(self, name):
        data = PROFILE_CATEGORIES[name]()
        inv = fusion.invertibles(data.ring)
        assert list(data.profiles) == inv
        assert dict(data.profiles) == {g: profile_from_twists(data, g) for g in inv}
        for g in inv:
            assert currents.profile(data, g) is data.profiles[g]
            assert currents.profile(data, g).q == data.profiles[g].q

    def test_negative_qdim_is_shifted_and_not_pivotal(self):
        data = negative_qdim()
        assert data.profiles[1].q == angle(3, 4)
        assert not currents.classify_pivotal(data, 1)

    def test_table_is_read_only(self, so8_level2):
        with pytest.raises(TypeError):
            so8_level2.profiles[0] = so8_level2.profiles[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            so8_level2.profiles[0].M = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            so8_level2.profiles = {}

    def test_replace_gets_a_fresh_table(self, so8_level2):
        g = so8_level2.ring.index("2L1")
        before = so8_level2.profiles[g]
        shifted = tuple(t + angle(1, 2) if y == g else t
                        for y, t in enumerate(so8_level2.twist))
        other = dataclasses.replace(so8_level2, twist=shifted)
        assert other.profiles is not so8_level2.profiles
        assert other.profiles[g] == profile_from_twists(other, g)
        assert other.profiles[g].q == before.q + angle(1, 2)
        assert so8_level2.profiles[g] is before

    def test_requires_invertible(self, sl4_level2):
        with pytest.raises(fusion.NotInvertibleError):
            currents.profile(sl4_level2, sl4_level2.ring.index("L1"))
        with pytest.raises(fusion.NotInvertibleError):
            currents.classify_pivotal(sl4_level2, sl4_level2.ring.index("L1"))


class TestGates:
    def test_admissible_zetas_sl4(self, sl4_level2):
        p = currents.profile(sl4_level2, sl4_level2.ring.index("2L1"))
        assert currents.admissible_zetas(p) == [angle(1, 4), angle(3, 4)]

    def test_admissible_zetas_order3(self):
        p = InvertibleProfile(g=0, label="g", M=3, q=angle(1, 3), q_squared=angle(2, 3), A=1,
                              charges=())
        assert currents.admissible_zetas(p) == [angle(2, 3)]

    @given(st.integers(1, 30), st.integers(1, 30), st.integers(0, 60), st.integers(1, 60))
    def test_admissible_zetas_equal_the_angle_powers(self, m, a, num, den):
        # q^2 = num/den need not have a denominator dividing M
        p = InvertibleProfile(g=0, label="g", M=m, q=ZERO_ANGLE, q_squared=angle(num, den),
                              A=a, charges=())
        expected = [z for z in primitive_angles(m) if z * a == p.q_squared]
        if currents.exists_autoequivalence(p) and not expected:
            with pytest.raises(InconsistentDataError, match="^no admissible zeta for g "):
                currents.admissible_zetas(p)
        else:
            assert currents.admissible_zetas(p) == expected

    def test_admissible_zetas_unit(self, sl4_level2):
        p = currents.profile(sl4_level2, sl4_level2.ring.unit_index)
        assert currents.admissible_zetas(p) == [ZERO_ANGLE]

    def test_exists_gate_sl6(self, sl6_level2):
        ring = sl6_level2.ring
        passing = sorted(
            ring.simples[g] for g in fusion.invertibles(ring)
            if g != ring.unit_index
            and currents.exists_autoequivalence(currents.profile(sl6_level2, g)))
        assert passing == ["2L2", "2L3", "2L4"]

    def test_exists_gate_sl4_and_unit(self, sl4_level2):
        assert currents.exists_autoequivalence(
            currents.profile(sl4_level2, sl4_level2.ring.index("2L1")))
        assert currents.exists_autoequivalence(
            currents.profile(sl4_level2, sl4_level2.ring.unit_index))

    def test_theorem_gate_exhaustive(self, example_categories):
        # construction succeeds exactly when the coprimality gate passes
        for data in example_categories.values():
            for g in fusion.invertibles(data.ring):
                p = currents.profile(data, g)
                if currents.exists_autoequivalence(p):
                    zetas = currents.admissible_zetas(p)
                    assert zetas
                    for z in zetas:
                        construct_autoeq(data, g, z)
                else:
                    from simplecurrents.angles import primitive_angles
                    for z in primitive_angles(p.M):
                        with pytest.raises(CoprimalityError):
                            construct_autoeq(data, g, z)

    def test_inadmissible_zeta_rejected(self, sl4_level2):
        g = sl4_level2.ring.index("2L2")  # M = 2, only zeta = -1 admissible
        with pytest.raises(InadmissibleZetaError) as exc:
            construct_autoeq(sl4_level2, g, angle(1, 3))
        assert exc.value.admissible == [angle(1, 2)]

    def test_all_autoequivalences_profiles_each_invertible_once(self, example_categories,
                                                                monkeypatch):
        for data in example_categories.values():
            expected = [construct_autoeq(data, g, z)
                        for g in fusion.invertibles(data.ring)
                        if currents.exists_autoequivalence(p := currents.profile(data, g))
                        for z in currents.admissible_zetas(p)]
            fresh = dataclasses.replace(data)  # no table built yet
            made, profile = [], modular.InvertibleProfile

            def counted(**fields):
                made.append(fields["g"])
                return profile(**fields)
            monkeypatch.setattr(modular, "InvertibleProfile", counted)
            assert all_autoequivalences(fresh) == expected
            monkeypatch.undo()
            assert made == fusion.invertibles(data.ring)

    def counted_calls(self, monkeypatch):
        """Count the calls of fusion.fuse_permutation and currents.admissible_zetas."""
        calls = {}
        for module, name in [(fusion, "fuse_permutation"), (currents, "admissible_zetas")]:
            def counted(*args, fn=getattr(module, name), name=name):
                calls[name] += 1
                return fn(*args)
            calls[name] = 0
            monkeypatch.setattr(module, name, counted)
        return calls

    def test_construction_gates_once_and_lists_no_zetas(self, sl6_level2, monkeypatch):
        ring = sl6_level2.ring
        calls = self.counted_calls(monkeypatch)
        construct_autoeq(sl6_level2, ring.index("2L2"), angle(2, 3))
        assert calls == {"fuse_permutation": 1, "admissible_zetas": 0}
        with pytest.raises(InadmissibleZetaError) as exc:
            construct_autoeq(sl6_level2, ring.index("2L2"), angle(1, 3))
        assert exc.value.admissible == [angle(2, 3)]
        assert calls == {"fuse_permutation": 2, "admissible_zetas": 1}

    def test_all_autoequivalences_lists_zetas_once_per_object(self, example_categories,
                                                             monkeypatch):
        for data in example_categories.values():
            passing = [p for p in data.profiles.values()
                       if currents.exists_autoequivalence(p)]
            calls = self.counted_calls(monkeypatch)
            aes = all_autoequivalences(data)
            monkeypatch.undo()
            assert calls == {"fuse_permutation": len(aes), "admissible_zetas": len(passing)}

    def test_no_admissible_zeta_names_the_object(self):
        # the gate passes, yet no primitive square root of unity squares to 1/3
        p = InvertibleProfile(g=0, label="g", M=2, q=angle(1, 6), q_squared=angle(1, 3), A=2,
                              charges=())
        with pytest.raises(InconsistentDataError,
                           match=r"^no admissible zeta for g \(M=2, q=1/6\) "
                                 r"despite gcd\(A\+1, M\) = 1$"):
            currents.admissible_zetas(p)

    def test_coprimality_failure_raises(self, sl6_level2):
        g = sl6_level2.ring.index("2L1")  # A = 2, M = 6, gcd(3, 6) = 3
        with pytest.raises(CoprimalityError,
                           match=r"gcd\(A\+1, M\) = 3 != 1 \(A = 2, M = 6\) for 2L1$"):
            construct_autoeq(sl6_level2, g, angle(5, 6))


class TestConstruction:
    @pytest.mark.parametrize("name", sorted(CHARGE_CATEGORIES))
    def test_permutations_equal_the_power_table(self, name):
        # X -> g^grade(X) (x) X from the list of the M powers of g's permutation
        data = CHARGE_CATEGORIES[name]()
        aes = all_autoequivalences(data)
        assert aes
        for ae in aes:
            pi = fusion.fuse_permutation(data.ring, ae.g)
            powers = [groups.identity_perm(data.size)]
            for _ in range(1, ae.M):
                powers.append(groups.compose_perms(pi, powers[-1]))
            grades = modular.grading(data.profiles[ae.g], ae.zeta)
            assert ae.permutation == tuple(powers[grades[x]][x] for x in range(data.size))

    def test_sl4_zeta_minus_i(self, sl4_level2):
        ae = construct_autoeq(sl4_level2, sl4_level2.ring.index("2L1"), angle(3, 4))
        assert pairs(sl4_level2, ae.permutation) == {
            "L1": "L1+L2", "L1+L2": "L1", "2L1": "2L3", "2L3": "2L1",
            "L3": "L2+L3", "L2+L3": "L3"}
        assert not ae.braided and ae.pivotal and ae.order_bound == 2

    def test_sl4_zeta_plus_i(self, sl4_level2):
        ae = construct_autoeq(sl4_level2, sl4_level2.ring.index("2L1"), angle(1, 4))
        assert pairs(sl4_level2, ae.permutation) == {
            "L1": "L3", "L3": "L1", "2L1": "2L3", "2L3": "2L1",
            "L1+L2": "L2+L3", "L2+L3": "L1+L2"}
        assert ae.braided
        assert ae.permutation == sl4_level2.ring.dual  # charge conjugation

    def test_sl6_images(self, sl6_level2):
        ring = sl6_level2.ring
        l1 = ring.index("L1")
        ae2 = construct_autoeq(sl6_level2, ring.index("2L2"), angle(2, 3))
        ae4 = construct_autoeq(sl6_level2, ring.index("2L4"), angle(2, 3))
        ae3 = construct_autoeq(sl6_level2, ring.index("2L3"), angle(1, 2))
        assert ring.simples[ae2.permutation[l1]] == "L2+L3"
        assert ring.simples[ae4.permutation[l1]] == "L2+L3"
        assert ring.simples[ae3.permutation[l1]] == "L3+L4"
        assert ae2.permutation == ae4.permutation

    def test_so8_permutations(self, so8_level2):
        want = {
            "2L1": {"L1+L3": "L4", "L4": "L1+L3", "L3": "L1+L4", "L1+L4": "L3"},
            "2L3": {"L1+L3": "L4", "L4": "L1+L3", "L1": "L3+L4", "L3+L4": "L1"},
            "2L4": {"L3": "L1+L4", "L1+L4": "L3", "L1": "L3+L4", "L3+L4": "L1"},
        }
        for lab, moved in want.items():
            ae = construct_autoeq(so8_level2, so8_level2.ring.index(lab), angle(1, 2))
            assert pairs(so8_level2, ae.permutation) == moved

    def test_unit_autoeq_is_identity(self, example_categories):
        for data in example_categories.values():
            ae = construct_autoeq(data, data.ring.unit_index, ZERO_ANGLE)
            assert ae.permutation == tuple(range(data.size))

    def test_degree_shift(self, example_categories):
        # grade(F(X)) = (A+1) grade(X) mod M
        for data in example_categories.values():
            for ae in all_autoequivalences(data):
                p = currents.profile(data, ae.g)
                grades = modular.grading(p, ae.zeta)
                for x in range(data.size):
                    assert grades[ae.permutation[x]] == (ae.A + 1) * grades[x] % ae.M

    def test_permutations_are_ring_automorphisms(self, example_categories):
        for data in example_categories.values():
            for ae in all_autoequivalences(data):
                assert fusion.is_ring_automorphism(data.ring, ae.permutation)

    def test_order_divides_bound(self, example_categories):
        for data in example_categories.values():
            for ae in all_autoequivalences(data):
                assert ae.order_bound % groups.perm_order(ae.permutation) == 0


class TestClassification:
    @pytest.mark.parametrize("family,rank,level,count,braided", [
        ("A", 3, 2, 6, 3), ("A", 5, 2, 4, 4), ("D", 4, 2, 4, 1), ("A", 2, 3, 5, 1),
        ("A", 2, 6, 5, 1), ("A", 8, 1, 11, 1), ("E", 6, 1, 3, 3),
    ])
    def test_braided_flag_against_ring_and_twists(self, family, rank, level, count,
                                                  braided):
        # a braided auto-equivalence is a fusion-ring automorphism that keeps
        # every twist; this checks the table without the symbol calculus
        data = modular.build_wzw_data(lie.lie_algebra(family, rank), level)
        autoeqs = currents.all_autoequivalences(data)
        assert (len(autoeqs), sum(ae.braided for ae in autoeqs)) == (count, braided)
        for ae in autoeqs:
            keeps_twists = all(data.twist[y] == data.twist[x]
                               for x, y in enumerate(ae.permutation))
            if ae.braided:
                assert fusion.is_ring_automorphism(data.ring, ae.permutation)
                assert keeps_twists
            if not keeps_twists:
                assert not ae.braided

    def test_braided_flags_sl4(self, sl4_level2):
        p = currents.profile(sl4_level2, sl4_level2.ring.index("2L1"))
        assert currents.classify_braided(p, angle(1, 4))
        assert not currents.classify_braided(p, angle(3, 4))

    def test_braided_flags_so8(self, so8_level2):
        p = currents.profile(so8_level2, so8_level2.ring.index("2L1"))
        assert not currents.classify_braided(p, angle(1, 2))

    def test_pivotal(self, sl4_level2, so8_level2):
        assert currents.classify_pivotal(sl4_level2, sl4_level2.ring.index("2L1"))
        assert currents.classify_pivotal(so8_level2, so8_level2.ring.index("2L4"))
        assert currents.classify_pivotal(sl4_level2, sl4_level2.ring.unit_index)

    def test_order_bounds(self):
        mk = lambda m, q, a: InvertibleProfile(g=0, label="g", M=m, q=q, q_squared=q + q, A=a,
                                               charges=())
        assert currents.order_bound(mk(4, angle(3, 4), 2)) == 2
        assert currents.order_bound(mk(3, angle(1, 3), 1)) == 2
        assert currents.order_bound(mk(2, ZERO_ANGLE, 2)) == 2
        assert currents.order_bound(mk(1, ZERO_ANGLE, 1)) == 1

    def test_order_bound_needs_gate(self, sl6_level2):
        p = currents.profile(sl6_level2, sl6_level2.ring.index("2L1"))
        assert (p.M, p.q, p.A) == (6, angle(5, 6), 2)
        with pytest.raises(CoprimalityError,
                           match=r"gcd\(A\+1, M\) = 3 != 1 \(A = 2, M = 6\) for 2L1$"):
            currents.order_bound(p)


class TestComposition:
    def test_commute_examples(self, so8_level2, sl4_level2):
        ring = so8_level2.ring
        assert currents.commute_test(so8_level2, ring.index("2L1"), ring.index("2L3"))
        assert currents.commute_test(sl4_level2, sl4_level2.ring.index("2L1"),
                                     sl4_level2.ring.unit_index)
        assert not currents.commute_test(sl4_level2, sl4_level2.ring.index("2L1"),
                                         sl4_level2.ring.index("2L1"))

    def test_commute_names_the_first_object_not_invertible(self, sl4_level2):
        ring = sl4_level2.ring
        g, x, y = ring.index("2L1"), ring.index("L1"), ring.index("L2")
        for pair, label in [((g, x), "L1"), ((x, g), "L1"), ((y, x), "L2"), ((x, y), "L1")]:
            with pytest.raises(fusion.NotInvertibleError) as exc:
                currents.commute_test(sl4_level2, *pair)
            assert str(exc.value) == f"object {label} is not invertible"

    def test_compose_involution(self, sl4_level2):
        g = sl4_level2.ring.index("2L1")
        ae = construct_autoeq(sl4_level2, g, angle(3, 4))
        assert currents.compose(ae, ae) == tuple(range(sl4_level2.size))

    def test_klein_four_composition(self, sl4_level2):
        g = sl4_level2.ring.index("2L1")
        ae_i = construct_autoeq(sl4_level2, g, angle(1, 4))
        ae_mi = construct_autoeq(sl4_level2, g, angle(3, 4))
        g2 = sl4_level2.ring.index("2L2")
        ae_g2 = construct_autoeq(sl4_level2, g2, angle(1, 2))
        assert currents.compose(ae_i, ae_mi) == ae_g2.permutation
        assert currents.compose(ae_mi, ae_i) == ae_g2.permutation

    def test_sl6_composite_image(self, sl6_level2):
        ring = sl6_level2.ring
        ae2 = construct_autoeq(sl6_level2, ring.index("2L2"), angle(2, 3))
        ae3 = construct_autoeq(sl6_level2, ring.index("2L3"), angle(1, 2))
        l1 = ring.index("L1")
        assert ring.simples[currents.compose(ae2, ae3)[l1]] == "L5"
        assert ring.simples[currents.compose(ae3, ae2)[l1]] == "L5"

    def test_category_mismatch(self, sl4_level2, sl6_level2):
        a = construct_autoeq(sl4_level2, sl4_level2.ring.index("2L1"), angle(1, 4))
        b = construct_autoeq(sl6_level2, sl6_level2.ring.index("2L3"), angle(1, 2))
        with pytest.raises(ValueError):
            currents.compose(a, b)

    def test_symmetric_braiding_implies_commuting_perms(self, example_categories):
        for data in example_categories.values():
            aes = all_autoequivalences(data)
            for a in aes:
                for b in aes:
                    if currents.commute_test(data, a.g, b.g):
                        assert currents.compose(a, b) == currents.compose(b, a)


class TestGeneratedGroup:
    def test_sl6_group(self, sl6_level2):
        ring = sl6_level2.ring
        ae2 = construct_autoeq(sl6_level2, ring.index("2L2"), angle(2, 3))
        ae3 = construct_autoeq(sl6_level2, ring.index("2L3"), angle(1, 2))
        rep = currents.generated_group([ae2, ae3])
        assert rep.iso_type == "Z2 x Z2"
        assert len(rep.elements) == 4
        assert "permutation" in rep.caveat

    def test_sl4_klein_four(self, sl4_level2):
        g = sl4_level2.ring.index("2L1")
        rep = currents.generated_group([
            construct_autoeq(sl4_level2, g, angle(1, 4)),
            construct_autoeq(sl4_level2, g, angle(3, 4))])
        assert rep.iso_type == "Z2 x Z2"

    def test_so8_group(self, so8_level2):
        aes = [construct_autoeq(so8_level2, so8_level2.ring.index(lab), angle(1, 2))
               for lab in ("2L1", "2L3", "2L4")]
        rep = currents.generated_group(aes)
        assert rep.iso_type == "Z2 x Z2"
        assert currents.compose(aes[0], aes[1]) == aes[2].permutation

    def test_identity_generates_trivial(self, sl4_level2):
        ae = construct_autoeq(sl4_level2, sl4_level2.ring.unit_index, ZERO_ANGLE)
        rep = currents.generated_group([ae])
        assert rep.iso_type == "trivial" and len(rep.elements) == 1

    def test_cap(self, sl4_level2):
        g = sl4_level2.ring.index("2L1")
        ae = construct_autoeq(sl4_level2, g, angle(1, 4))
        with pytest.raises(groups.ClosureCapExceededError):
            currents.generated_group([ae], cap=1)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_cap_below_one_refused(self, sl4_level2, cap):
        ae = construct_autoeq(sl4_level2, sl4_level2.ring.unit_index, ZERO_ANGLE)
        with pytest.raises(ValueError, match=f"^closure cap must be at least 1, got {cap}$"):
            currents.generated_group([ae], cap=cap)

    def test_table_is_a_group_table(self, so8_level2):
        aes = [construct_autoeq(so8_level2, so8_level2.ring.index(lab), angle(1, 2))
               for lab in ("2L1", "2L3")]
        rep = currents.generated_group(aes)
        n = len(rep.elements)
        for row in rep.table:
            assert sorted(row) == list(range(n))
