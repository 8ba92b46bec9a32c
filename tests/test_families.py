"""Cross-family checks: the machinery is Cartan-matrix-driven, so pointed
level-1 categories of other families make good end-to-end probes."""

from simplecurrents import currents, fusion, groups, lie, modular
from simplecurrents.angles import ZERO_ANGLE, angle


def test_e6_level1_is_pointed_z3():
    data = modular.build_wzw_data(lie.lie_algebra("E", 6), 1)
    assert data.size == 3
    assert sorted(str(t) for t in data.twist) == ["0/1", "2/3", "2/3"]
    assert fusion.invertibles(data.ring) == [0, 1, 2]
    g = 1
    p = currents.profile(data, g)
    assert (p.M, p.q, p.A) == (3, angle(2, 3), 1)
    # the unique admissible zeta is the inverse of q, so this sits in the
    # order-3 braided case; the auto-equivalence is the conjugation swap
    (zeta,) = currents.admissible_zetas(p)
    assert zeta == angle(1, 3)
    ae = currents.construct_autoeq(data, g, zeta)
    assert ae.braided
    assert ae.permutation == data.ring.dual == (0, 2, 1)
    assert ae.order_bound == 2


def test_d4_level1_pointed_currents_are_braided():
    data = modular.build_wzw_data(lie.lie_algebra("D", 4), 1)
    assert data.size == 4
    aes = []
    for g in fusion.invertibles(data.ring):
        if g == data.ring.unit_index:
            continue
        p = currents.profile(data, g)
        assert (p.M, p.q) == (2, angle(1, 2))
        ae = currents.construct_autoeq(data, g, angle(1, 2))
        assert ae.braided and ae.pivotal
        aes.append(ae)
    # with q = -1 the currents do not braid symmetrically, and indeed each
    # auto-equivalence transposes the other two currents: together they
    # generate the full permutation group of the three non-trivial objects
    for a in aes:
        for b in aes:
            if a.g != b.g:
                assert not currents.commute_test(data, a.g, b.g)
    rep = currents.generated_group(aes)
    assert rep.iso_type == "S3"


def test_b2_level1_reproduces_ising_shape():
    data = modular.build_wzw_data(lie.lie_algebra("B", 2), 1)
    assert data.size == 3
    assert sorted(str(t) for t in data.twist) == ["0/1", "1/2", "5/16"]
    inv = fusion.invertibles(data.ring)
    assert len(inv) == 2
    fermion = [g for g in inv if g != data.ring.unit_index][0]
    ae = currents.construct_autoeq(data, fermion, angle(1, 2))
    # grading shifts the spin object by the fermion, which fuses back to it
    assert ae.permutation == tuple(range(3))
    assert ae.braided
    assert groups.perm_order(ae.permutation) == 1 and ae.order_bound == 2


def test_c3_and_g2_build_and_validate():
    for fam, rank in (("C", 3), ("G", 2)):
        data = modular.build_wzw_data(lie.lie_algebra(fam, rank), 1)
        assert fusion.verify_axioms(data.ring)
        assert data.twist[data.ring.unit_index] == ZERO_ANGLE


def test_e8_level2_exceptional_current():
    # simples 1, the adjoint 248 (L7) and the 3875 (L1), which is the current
    data = modular.build_wzw_data(lie.lie_algebra("E", 8), 2)
    assert data.ring.simples == ("0", "L7", "L1")
    g = data.ring.index("L1")
    assert lie.weyl_dimension(lie.lie_algebra("E", 8), data.weights[g]) == 3875
    assert fusion.invertibles(data.ring) == [data.ring.unit_index, g]
    p = currents.profile(data, g)
    assert (p.M, p.q, p.A) == (2, angle(1, 2), 2)
    assert currents.exists_autoequivalence(p)
    nontrivial = [ae for ae in currents.all_autoequivalences(data)
                  if ae.g != data.ring.unit_index]
    assert len(nontrivial) == 1 and nontrivial[0].zeta == angle(1, 2)


def test_a11_level1_is_pointed_z12():
    data = modular.build_wzw_data(lie.lie_algebra("A", 11), 1)
    assert data.size == 12
    index = {j: data.ring.index(f"L{j}") for j in range(1, 12)}
    index[0] = data.ring.unit_index
    for i in range(12):
        assert data.twist[index[i]] == angle(i * (12 - i), 24)
        for j in range(12):
            row = data.ring.table[index[i], index[j]]
            assert row.tolist() == [int(c == index[(i + j) % 12]) for c in range(12)]
