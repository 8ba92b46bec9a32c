from itertools import permutations as sym_group

import pytest
from hypothesis import assume, given, strategies as st

from simplecurrents import currents, fusion, groups
from simplecurrents.groups import (ClosureCapExceededError,
                                   close_under_composition, compose_perms,
                                   identity_perm, inverse_perm,
                                   isomorphism_type, multiplication_table,
                                   perm_order)


def reference_closure(perms, cap=1024):
    """Closure by multiplying each new element with every known element on
    both sides: O(|G|^2) compositions, kept as the oracle for the
    breadth-first closure."""
    n = len(perms[0])
    elements = {identity_perm(n)}
    frontier = [p for p in perms if p not in elements]
    elements.update(frontier)
    if len(elements) > cap:
        raise ClosureCapExceededError(f"closure exceeded cap of {cap} elements")
    while frontier:
        new = []
        for p in frontier:
            for q in list(elements):
                for r in (compose_perms(p, q), compose_perms(q, p)):
                    if r not in elements:
                        elements.add(r)
                        new.append(r)
                        if len(elements) > cap:
                            raise ClosureCapExceededError(
                                f"closure exceeded cap of {cap} elements")
        frontier = new
    return sorted(elements)


def group_of(gens, cap=1024):
    elements = close_under_composition(gens, cap=cap)
    return elements, multiplication_table(elements)


def regular_representation(table):
    """Left-translation permutations of a finite group given by its table."""
    return [tuple(row) for row in table]


def quaternion_table():
    # elements 1, -1, i, -i, j, -j, k, -k as 0..7
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    mul = {}
    sign = lambda s: {"": 1, "-": -1}[s]
    base = {"1": {"1": "1", "i": "i", "j": "j", "k": "k"},
            "i": {"1": "i", "i": "-1", "j": "k", "k": "-j"},
            "j": {"1": "j", "i": "-k", "j": "-1", "k": "i"},
            "k": {"1": "k", "i": "j", "j": "-i", "k": "-1"}}

    def mult(a, b):
        sa, ba = ("-", a[1:]) if a.startswith("-") else ("", a)
        sb, bb = ("-", b[1:]) if b.startswith("-") else ("", b)
        r = base[ba][bb]
        s = sign(sa) * sign(sb) * (-1 if r.startswith("-") else 1)
        r = r.lstrip("-")
        return r if s == 1 else f"-{r}"

    index = {n: i for i, n in enumerate(names)}
    return tuple(tuple(index[mult(a, b)] for b in names) for a in names)


class TestPermBasics:
    def test_compose_and_inverse(self):
        p = (1, 2, 0)
        assert compose_perms(p, inverse_perm(p)) == identity_perm(3)
        assert perm_order(p) == 3
        assert perm_order(identity_perm(5)) == 1

    def test_closure_is_a_group(self):
        elements, table = group_of([(1, 0, 2, 3), (0, 1, 3, 2)])
        assert identity_perm(4) in elements
        for p in elements:
            assert inverse_perm(p) in elements
        for row in table:
            assert sorted(row) == list(range(len(elements)))

    def test_closure_cap(self):
        gens = [(1, 2, 3, 4, 0)]
        with pytest.raises(ClosureCapExceededError):
            close_under_composition(gens, cap=3)


def dihedral_generators(n):
    return [tuple(list(range(1, n)) + [0]), tuple(reversed(range(n)))]


def table_of(elements, mult):
    """Multiplication table of a group given by its elements and product."""
    index = {x: i for i, x in enumerate(elements)}
    return tuple(tuple(index[mult(a, b)] for b in elements) for a in elements)


def autoeq_generator_sets(data):
    """The auto-equivalences of each invertible, and all of them together."""
    aes = currents.all_autoequivalences(data)
    sets = [[a.permutation for a in aes if a.g == g]
            for g in fusion.invertibles(data.ring)]
    return [s for s in sets if s] + [[a.permutation for a in aes]]


class TestClosureAgainstReference:
    @pytest.mark.parametrize("name", ["sl4-2", "sl6-2", "so8-2"])
    def test_autoequivalence_groups(self, example_categories, name):
        for gens in autoeq_generator_sets(example_categories[name]):
            assert close_under_composition(gens) == reference_closure(gens)

    @pytest.mark.parametrize("gens", [
        [(1, 0, 2, 3), (1, 2, 3, 0)],                     # S4
        dihedral_generators(8),                           # D8
        [regular_representation(quaternion_table())[i] for i in (2, 4)],  # Q8
        [(0, 1, 2, 3)],                                   # trivial
    ])
    def test_small_groups(self, gens):
        assert close_under_composition(gens) == reference_closure(gens)

    @pytest.mark.parametrize("gens", [[(1, 0, 2, 3), (1, 2, 3, 0)], dihedral_generators(8)])
    def test_same_cap_error(self, gens):
        size = len(reference_closure(gens))
        for cap in (1, size - 1):
            with pytest.raises(ClosureCapExceededError, match=f"cap of {cap} elements"):
                close_under_composition(gens, cap=cap)
            with pytest.raises(ClosureCapExceededError, match=f"cap of {cap} elements"):
                reference_closure(gens, cap=cap)
        assert close_under_composition(gens, cap=size) == reference_closure(gens, cap=size)

    @given(st.integers(1, 6).flatmap(
        lambda n: st.lists(st.permutations(range(n)).map(tuple), min_size=1, max_size=3)),
        st.data())
    def test_redundant_generators(self, gens, data):
        # duplicates, the identity and powers of the generators, listed first
        powers = [compose_perms(p, q) for p in gens for q in gens] + gens
        extra = data.draw(st.lists(st.sampled_from(powers), max_size=4))
        listed = extra + [identity_perm(len(gens[0]))] + gens + gens[:1]
        try:
            expected = reference_closure(gens, cap=120)
        except ClosureCapExceededError:
            assume(False)
        assert close_under_composition(listed) == expected
        if len(expected) > 1:
            with pytest.raises(ClosureCapExceededError,
                               match=f"cap of {len(expected) - 1} elements"):
                close_under_composition(listed, cap=len(expected) - 1)
        assert close_under_composition(listed, cap=len(expected)) == expected

    @pytest.mark.parametrize("cap", [0, -3])
    def test_cap_below_one_refused(self, cap):
        with pytest.raises(ValueError) as exc:
            close_under_composition([(1, 0)], cap=cap)
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"closure cap must be at least 1, got {cap}"


class TestIsomorphismType:
    def test_trivial(self):
        _, table = group_of([identity_perm(3)])
        assert isomorphism_type(table) == "trivial"

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 8, 12])
    def test_cyclic(self, n):
        cycle = tuple(list(range(1, n)) + [0])
        _, table = group_of([cycle])
        assert isomorphism_type(table) == f"Z{n}"

    def test_klein_four(self):
        _, table = group_of([(1, 0, 3, 2), (2, 3, 0, 1)])
        assert isomorphism_type(table) == "Z2 x Z2"

    def test_z4_x_z2(self):
        _, table = group_of([(1, 2, 3, 0, 4, 5), (0, 1, 2, 3, 5, 4)])
        assert isomorphism_type(table) == "Z4 x Z2"

    def test_z2_cubed(self):
        _, table = group_of([(1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5),
                             (0, 1, 2, 3, 5, 4)])
        assert isomorphism_type(table) == "Z2 x Z2 x Z2"

    def test_s3(self):
        _, table = group_of([(1, 0, 2), (1, 2, 0)])
        assert isomorphism_type(table) == "S3"

    def test_full_symmetric_s3_from_all_elements(self):
        elements = sorted(sym_group(range(3)))
        table = multiplication_table(elements)
        assert isomorphism_type(table) == "S3"

    def test_dihedral_d4(self):
        rotation = (1, 2, 3, 0)
        reflection = (3, 2, 1, 0)
        _, table = group_of([rotation, reflection])
        assert isomorphism_type(table) == "D4"

    def test_dihedral_d8(self):
        rotation = tuple(list(range(1, 8)) + [0])
        reflection = tuple(reversed(range(8)))
        _, table = group_of([rotation, reflection])
        assert isomorphism_type(table) == "D8"

    def test_quaternion_q8(self):
        perms = regular_representation(quaternion_table())
        elements, table = group_of([perms[2], perms[4]])  # i and j generate
        assert len(elements) == 8
        assert isomorphism_type(table) == "Q8"

    def test_a4(self):
        _, table = group_of([(1, 2, 0, 3), (1, 0, 3, 2)])
        assert isomorphism_type(table) == "A4"

    def test_d6(self):
        rotation = tuple(list(range(1, 6)) + [0])
        reflection = tuple(reversed(range(6)))
        _, table = group_of([rotation, reflection])
        assert isomorphism_type(table) == "D6"

    def test_pauli_group_is_d4_o_z4(self):
        # i^k X^x Z^z as (k, x, z), with Z X = -X Z; centre Z4
        elements = [(k, x, z) for k in range(4) for x in range(2) for z in range(2)]
        table = table_of(elements, lambda a, b: ((a[0] + b[0] + 2 * a[2] * b[1]) % 4,
                                                  (a[1] + b[1]) % 2, (a[2] + b[2]) % 2))
        assert isomorphism_type(table) == "D4 o Z4"

    def test_smallgroup_16_3_is_not_d4_o_z4(self):
        # <a, b, c | a^4 = b^2 = c^2 = 1, ab = ba, bc = cb, cac = ab>: the same
        # element orders as the Pauli group (7 involutions, 8 of order 4),
        # but its centre is Z2 x Z2
        def mult(u, v):
            i, j, c = u
            k, l, d = v
            if c:  # conjugating by c sends a^k b^l to a^k b^(l+k)
                l = (l + k) % 2
            return ((i + k) % 4, (j + l) % 2, (c + d) % 2)

        elements = [(i, j, c) for i in range(4) for j in range(2) for c in range(2)]
        elements, table = group_of(regular_representation(table_of(elements, mult)))
        assert len(elements) == 16
        assert isomorphism_type(table) == "non-abelian group of order 16"

    def test_large_group_fallback(self):
        elements = sorted(sym_group(range(4)))
        table = multiplication_table(elements)
        assert isomorphism_type(table) == "group of order 24"


def table_by_composition(elements):
    """multiplication_table as it was before the row lookup, one tuple
    composition per pair: the oracle."""
    index = {p: i for i, p in enumerate(elements)}
    return tuple(tuple(index[compose_perms(p, q)] for q in elements) for p in elements)


@st.composite
def closed_lists(draw):
    """The group of one to three random permutations of at most 7 points, if
    it has at most 120 elements, listed in a random order."""
    n = draw(st.integers(1, 7))
    gens = draw(st.lists(st.permutations(range(n)).map(tuple), min_size=1, max_size=3))
    try:
        elements = close_under_composition(gens, cap=120)
    except ClosureCapExceededError:
        assume(False)
    return [elements[i] for i in draw(st.permutations(range(len(elements))))]


class TestMultiplicationTable:
    @given(closed_lists())
    def test_equals_the_composition_table(self, elements):
        assert multiplication_table(elements) == table_by_composition(elements)

    def test_regular_z400(self):
        # the 400 rotations of 400 points: table[i][j] = i + j mod 400
        elements = [tuple((x + s) % 400 for x in range(400)) for s in range(400)]
        table = multiplication_table(elements)
        assert table == tuple(tuple((i + j) % 400 for j in range(400)) for i in range(400))
        assert all(type(k) is int for row in table for k in row)

    def test_one_point(self):
        assert multiplication_table([(0,)]) == ((0,),)

    def test_not_closed_raises_key_error(self):
        with pytest.raises(KeyError):
            multiplication_table([(0, 1, 2), (1, 2, 0)])  # the square (2, 0, 1) is missing

    @pytest.mark.parametrize("elements", [
        # point 0 alone tells these apart, but (1, 0, 2, 3) . (2, 3, 0, 1) =
        # (2, 3, 1, 0) is not one of them
        [(0, 1, 2, 3), (1, 0, 2, 3), (2, 3, 0, 1)],
        [(2, 3, 0, 1), (0, 1, 2, 3), (1, 0, 2, 3)],
        [(1, 0)],  # no identity
    ])
    def test_products_looked_up_whole(self, elements):
        with pytest.raises(KeyError):
            multiplication_table(elements)

    def test_empty_list(self):
        assert multiplication_table([]) == ()


class TestShortPermutations:
    # itemgetter returns a bare item for one index and raises for none
    @pytest.mark.parametrize("n", [0, 1])
    def test_compose_and_order(self, n):
        e = identity_perm(n)
        assert compose_perms(e, e) == e and type(compose_perms(e, e)) is tuple
        assert perm_order(e) == 1

    @pytest.mark.parametrize("n", [0, 1])
    def test_closure_and_table(self, n):
        e = identity_perm(n)
        assert close_under_composition([e]) == [e]
        assert close_under_composition([e, e], cap=1) == [e]
        assert multiplication_table([e]) == ((0,),)


@pytest.mark.parametrize("gens,name", [
    ([(1, 0, 2, 3), (1, 2, 3, 0)], "group of order 24"),  # S4
    (dihedral_generators(8), "D8"),
    ([regular_representation(quaternion_table())[i] for i in (2, 4)], "Q8"),
])
def test_non_abelian_tables_equal_the_composition_table(gens, name):
    elements = close_under_composition(gens)
    table = multiplication_table(elements)
    assert table == table_by_composition(elements)
    assert all(type(row) is tuple for row in table)
    assert isomorphism_type(table) == name
