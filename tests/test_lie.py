import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from simplecurrents import lie
from simplecurrents.lie import LieAlgebraSpec, OutOfAlcoveError, Weight

A3 = lie.lie_algebra("A", 3)
A5 = lie.lie_algebra("A", 5)
D4 = lie.lie_algebra("D", 4)


def char_multiply_decompose(spec, lam, mu):
    """Independent tensor-decomposition oracle: multiply the weight diagrams
    as characters, then repeatedly peel off the highest remaining weight."""
    prod = Counter()
    for w1, m1 in lie.weight_multiplicities(spec, lam).items():
        for w2, m2 in lie.weight_multiplicities(spec, mu).items():
            prod[tuple(a + b for a, b in zip(w1, w2))] += m1 * m2

    def height(w):
        return lie.inner_product(spec, w, (1,) * spec.rank)

    out = Counter()
    while prod:
        top = max(prod, key=lambda w: (height(w), w))
        assert all(x >= 0 for x in top), "peeled weight must be dominant"
        c = prod[top]
        assert c > 0
        out[top] = c
        for w, m in lie.weight_multiplicities(spec, top).items():
            prod[w] -= c * m
        prod = +prod
    return out


# Reference formulas in Fractions, read from a rational Gram matrix built here
# from the per-type symmetrizer table below and from the root coordinates,
# never from the spec's integer form (scale, scaled_gram, roots).


def fraction_inverse(m):
    """Gauss-Jordan inverse over the rationals, in Fractions: the oracle of
    the integer row operations of lie._invert_exact."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


@lru_cache(maxsize=None)
def fraction_gram(spec):
    """(Lambda_i, Lambda_j) = d_i (A^-1)_ij in Fractions, d from the per-type table."""
    d = _symmetrizer(spec.family, spec.rank)
    ainv = fraction_inverse(spec.cartan)
    return tuple(tuple(d[i] * x for x in row) for i, row in enumerate(ainv))


def ref_inner_product(spec, lam, mu):
    gram = fraction_gram(spec)
    return sum(x * y * gram[i][j]
               for i, x in enumerate(lam) for j, y in enumerate(mu))


def root_string_coords(cartan):
    """Positive roots in simple-root coordinates, by root-string closure,
    sorted by height and then by coordinates: the oracle of lie._positive_roots."""
    rank = len(cartan)
    simple = [tuple(int(j == i) for j in range(rank)) for i in range(rank)]
    roots = set(simple)
    layer = list(simple)
    while layer:
        nxt = set()
        for beta in layer:
            labels = [sum(cartan[k][i] * beta[i] for i in range(rank)) for k in range(rank)]
            for i in range(rank):
                if beta == simple[i]:
                    continue  # 2*alpha_i is never a root
                p = 0
                gamma = list(beta)
                gamma[i] -= 1
                while tuple(gamma) in roots:
                    p += 1
                    gamma[i] -= 1
                if p - labels[i] >= 1:
                    up = list(beta)
                    up[i] += 1
                    up = tuple(up)
                    if up not in roots:
                        nxt.add(up)
        roots |= nxt
        layer = list(nxt)
    return tuple(sorted(roots, key=lambda c: (sum(c), c)))


@lru_cache(maxsize=None)
def ref_roots(spec):
    """(labels, height, dco, norm) per positive root: (mu, alpha) = sum(mu_i dco_i)."""
    out = []
    for c in root_string_coords(spec.cartan):
        labels = tuple(sum(spec.cartan[k][i] * c[i] for i in range(spec.rank))
                       for k in range(spec.rank))
        dco = tuple(d * x for d, x in zip(_symmetrizer(spec.family, spec.rank), c))
        out.append((labels, sum(c), dco, sum(d * x for d, x in zip(dco, labels))))
    return tuple(out)


def ref_pair(mu, dco):
    return sum((m * d for m, d in zip(mu, dco)), Fraction(0))


def ref_weyl_dimension(spec, lam):
    lam_rho = tuple(x + 1 for x in lam)
    dim = Fraction(1)
    for _, _, dco, _ in ref_roots(spec):
        dim *= ref_pair(lam_rho, dco) / ref_pair((1,) * spec.rank, dco)
    assert dim.denominator == 1
    return int(dim)


def ref_conformal_weight(spec, k, lam):
    rho_pairing = [2 * sum(row) for row in fraction_gram(spec)]  # (Lambda_i, 2 rho)
    quad = ref_inner_product(spec, lam, lam) + sum(x * r for x, r in zip(lam, rho_pairing))
    return quad / (2 * (k + spec.dual_coxeter))


def ref_quantum_dimension(spec, k, lam):
    kappa = k + spec.dual_coxeter
    lam_rho = tuple(x + 1 for x in lam)
    dim = 1.0
    for _, _, dco, _ in ref_roots(spec):
        dim *= (math.sin(math.pi * float(ref_pair(lam_rho, dco)) / kappa)
                / math.sin(math.pi * float(ref_pair((1,) * spec.rank, dco)) / kappa))
    return dim


def freudenthal_reference(spec, lam):
    """Reference weight diagram: the Freudenthal recursion over every weight,
    in Fractions, working downward from lam one simple-root step at a time.

    A candidate at depth d (height of lam - mu) sums over every translate
    mu + j*alpha with j*height(alpha) <= d, skipping gaps, so the recursion is
    exact for non-weight candidates as well.
    """
    rank = spec.rank
    root_data = ref_roots(spec)
    lam_rho = tuple(x + 1 for x in lam)
    lam_rho_norm = ref_inner_product(spec, lam_rho, lam_rho)
    mults = {lam: 1}
    frontier = [lam]
    depth = 0
    while frontier:
        depth += 1
        candidates = {tuple(mu[k] - spec.cartan[k][i] for k in range(rank))
                      for mu in frontier for i in range(rank)}
        frontier = []
        for mu in sorted(candidates - mults.keys()):
            num = Fraction(0)
            for labels, height, dco, norm in root_data:
                base = ref_pair(mu, dco)
                for j in range(1, depth // height + 1):
                    m_up = mults.get(tuple(m + j * r for m, r in zip(mu, labels)))
                    if m_up:
                        num += (base + j * norm) * m_up
            if num == 0:
                continue
            mu_rho = tuple(x + 1 for x in mu)
            m = 2 * num / (lam_rho_norm - ref_inner_product(spec, mu_rho, mu_rho))
            assert m.denominator == 1 and m > 0
            mults[mu] = int(m)
            frontier.append(mu)
    return mults


def chamber_weight_multiplicities(spec, lam):
    """The weight diagram as lie.weight_multiplicities made it before it read
    each Freudenthal term from the diagram built so far: every dominant
    weight's multiplicity first, each term m(mu + j*alpha) read off the
    dominant weight that lie._chamber reflects mu + j*alpha to, and then each
    orbit expanded.  Kept as the oracle of the items and their order."""
    gram, roots, finite = spec.scaled_gram, spec.roots, spec.finite
    depth = {lam: 0}
    stack = [lam]
    while stack:
        mu = stack.pop()
        for labels, height, _, _ in roots:
            nu = tuple(m - r for m, r in zip(mu, labels))
            if nu not in depth and all(x >= 0 for x in nu):
                depth[nu] = depth[mu] + height
                stack.append(nu)

    def norm_rho(mu):
        x = [m + 1 for m in mu]
        return sum(a * sum(g * b for g, b in zip(row, x)) for a, row in zip(x, gram))

    top = norm_rho(lam)
    dominant = {lam: 1}
    for mu in sorted(depth, key=depth.__getitem__)[1:]:
        num = 0
        for labels, _, pairing, norm in roots:
            base = sum(m * p for m, p in zip(mu, pairing))
            nu, j = mu, 1
            while True:
                nu = tuple(a + b for a, b in zip(nu, labels))
                m_up = dominant.get(lie._chamber(finite, nu)[0])
                if m_up is None:
                    break
                num += (base + j * norm) * m_up
                j += 1
        m, rem = divmod(2 * num, top - norm_rho(mu))
        assert rem == 0 and m > 0
        dominant[mu] = m

    diagram = []
    for mu, m in dominant.items():
        orbit = {mu: depth[mu]}
        layer = [mu]
        while layer:
            nxt = []
            for w in layer:
                for i, x in enumerate(w):
                    if x > 0:
                        v = tuple([a - x * c for a, c in zip(w, finite[i])])
                        if v not in orbit:
                            orbit[v] = orbit[w] + x
                            nxt.append(v)
            layer = nxt
        diagram.extend((d, w, m) for w, d in orbit.items())
    diagram.sort()
    return {w: m for _, w, m in diagram}


# The two folds and the per-type tables that lie replaced, kept unchanged as
# references for the one chamber fold and the derived symmetrizer.

_FOLD_CAP = 100_000  # safety bound on reflection loops

_DUAL_COXETER = {
    "A": lambda r: r + 1,
    "B": lambda r: 2 * r - 1,
    "C": lambda r: r + 1,
    "D": lambda r: 2 * r - 2,
    "E": {6: 12, 7: 18, 8: 30}.get,
    "F": {4: 9}.get,
    "G": {2: 4}.get,
}


def _symmetrizer(family: str, rank: int) -> list[Fraction]:
    one = Fraction(1)
    d = [one] * rank
    if family == "B":
        d[rank - 1] = Fraction(1, 2)
    elif family == "C":
        d = [Fraction(1, 2)] * rank
        d[rank - 1] = one
    elif family == "F":
        d[2] = d[3] = Fraction(1, 2)
    elif family == "G":
        d[1] = Fraction(1, 3)
    return d


def _reflect_simple(spec: LieAlgebraSpec, xi: Weight, i: int) -> Weight:
    c = xi[i]
    return tuple(xi[k] - c * spec.cartan[k][i] for k in range(spec.rank))


def _dominant_representative(spec: LieAlgebraSpec, xi: Weight) -> Weight:
    """The dominant weight in the Weyl orbit of xi.

    Each reflection in a negative label raises xi within its finite orbit,
    so the loop ends.
    """
    while True:
        neg = next((i for i, x in enumerate(xi) if x < 0), None)
        if neg is None:
            return xi
        xi = _reflect_simple(spec, xi, neg)


def _fold_alcove(spec: LieAlgebraSpec, kappa: int, xi: Weight) -> tuple[Weight | None, int]:
    """Fold a rho-shifted weight into the interior of the level alcove.

    Alternates finite reflections with the affine reflection about the wall
    (xi, theta) = kappa; weights landing on any wall cancel.
    """
    sign = 1
    for _ in range(_FOLD_CAP):
        neg = None
        for i, x in enumerate(xi):
            if x == 0:
                return None, 0
            if x < 0:
                neg = i
                break
        if neg is not None:
            xi = _reflect_simple(spec, xi, neg)
            sign = -sign
            continue
        lvl = sum(c * x for c, x in zip(spec.comark, xi))
        if lvl == kappa:
            return None, 0
        if lvl < kappa:
            return xi, sign
        c = lvl - kappa
        xi = tuple(x - c * t for x, t in zip(xi, spec.theta_labels))
        sign = -sign
    raise RuntimeError("alcove folding failed to terminate")


TABLE_TYPES = ([("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 7)]
               + [("C", r) for r in range(2, 7)] + [("D", r) for r in range(4, 9)]
               + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])

FOLD_TYPES = [("A", r) for r in range(1, 9)] + [
    ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("D", 5), ("E", 6), ("E", 7), ("E", 8),
    ("F", 4), ("G", 2)]


def new_fold(spec, kappa, xi):
    """The alcove fold through lie: (folded point, sign), or (None, 0) on a wall."""
    point, parity = lie._chamber(spec.extended, (*xi, kappa - lie.level(spec, xi)))
    return (None, 0) if 0 in point else (point[:-1], parity)


@pytest.mark.parametrize("family,rank", FOLD_TYPES)
def test_chamber_fold_equals_the_two_old_folds(family, rank):
    spec = lie.lie_algebra(family, rank)
    finite = spec.finite
    rng = random.Random(f"{family}{rank}")
    cancelled = 0
    for _ in range(2000):
        xi = tuple(rng.randint(-15, 15) for _ in range(rank))
        kappa = spec.dual_coxeter + rng.randint(0, 12)
        got = new_fold(spec, kappa, xi)
        assert got == _fold_alcove(spec, kappa, xi), (xi, kappa)
        cancelled += got[1] == 0
        assert lie._chamber(finite, xi)[0] == _dominant_representative(spec, xi), xi
    assert 0 < cancelled < 2000  # both outcomes met


@pytest.mark.parametrize("family,rank", TABLE_TYPES)
def test_derived_constants_equal_the_old_tables(family, rank):
    spec = lie.lie_algebra(family, rank)
    symmetrizer = lie._symmetrizer(spec.cartan)
    assert symmetrizer == _symmetrizer(family, rank)
    assert spec.dual_coxeter == _DUAL_COXETER[family](rank)
    theta = max(root_string_coords(spec.cartan), key=sum)
    assert spec.comark == tuple(t * d for t, d in zip(theta, symmetrizer))


@pytest.mark.parametrize("family,rank", TABLE_TYPES)
def test_extended_cartan_matrix(family, rank):
    spec = lie.lie_algebra(family, rank)
    finite, extended = spec.finite, spec.extended
    assert finite == tuple(zip(*spec.cartan))
    assert [col[:rank] for col in extended[:rank]] == list(finite)
    theta = max(root_string_coords(spec.cartan), key=sum)
    marks = (*theta, 1)
    comarks = (*spec.comark, 1)
    assert all(extended[i][i] == 2 for i in range(rank + 1))
    # the extended columns, as the matrix columns: marks on the right, comarks on the left
    assert all(sum(a * col[i] for a, col in zip(marks, extended)) == 0
               for i in range(rank + 1))
    assert all(sum(c * x for c, x in zip(comarks, col)) == 0 for col in extended)


@pytest.mark.parametrize("family,rank", TABLE_TYPES)
def test_integer_form_equals_the_fraction_form(family, rank):
    spec = lie.lie_algebra(family, rank)
    s, gram, d = spec.scale, fraction_gram(spec), _symmetrizer(family, rank)
    assert s == math.lcm(*(x.denominator for row in gram for x in row),
                         *(x.denominator for x in d))
    assert [[Fraction(x, s) for x in row] for row in spec.scaled_gram] == [list(r) for r in gram]
    coords = root_string_coords(spec.cartan)
    assert len(spec.roots) == len(coords)
    for (labels, height, pairing, norm), c, ref in zip(spec.roots, coords, ref_roots(spec)):
        assert (labels, height) == ref[:2]
        assert [Fraction(p, s) for p in pairing] == [di * ci for di, ci in zip(d, c)]
        # (alpha, alpha) from (alpha_i, alpha_j) = d_i a_ij
        assert Fraction(norm, s) == sum(c[i] * c[j] * d[i] * spec.cartan[i][j]
                                        for i in range(rank) for j in range(rank))


# row swaps, negative pivots, and rows that pick up a common factor
INVERSE_MATRICES = [
    [[0, 1], [1, 0]],
    [[0, 2, 1], [3, 0, 0], [1, 1, 0]],
    [[-3, 1, 4], [1, -5, 9], [2, 6, -5]],
    [[2, 4, 6], [1, 3, 5], [0, 1, 7]],
    [[5]],
]


def random_invertible(rng, n):
    while True:
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        try:
            return m, fraction_inverse(m)
        except StopIteration:  # singular: no pivot in some column
            pass


@pytest.mark.parametrize("family,rank", TABLE_TYPES + [
    ("A", 30), ("B", 30), ("C", 30), ("D", 30)])
def test_integer_inverse_of_the_cartan_matrix_equals_the_fraction_inverse(family, rank):
    cartan = lie._cartan_matrix(family, rank)
    assert lie._invert_exact(cartan) == fraction_inverse(cartan)


def test_integer_inverse_equals_the_fraction_inverse():
    rng = random.Random(7)
    cases = [(m, fraction_inverse(m)) for m in INVERSE_MATRICES]
    cases += [random_invertible(rng, n) for n in (2, 3, 4, 6, 9) for _ in range(8)]
    for m, inverse in cases:
        got = lie._invert_exact(m)
        assert got == inverse, m
        n = len(m)
        assert [[sum(m[i][k] * got[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)] == [[int(i == j) for j in range(n)] for i in range(n)]


def test_a100_gram_equals_the_closed_form():
    # (Lambda_i, Lambda_j) = min(i, j) - i*j/(n+1) for sl_(n+1), 1-based
    spec = lie.lie_algebra("A", 100)
    assert spec.scale == 101
    assert all(spec.scaled_gram[i][j] == 101 * min(i + 1, j + 1) - (i + 1) * (j + 1)
               for i in range(100) for j in range(100))


@pytest.mark.parametrize("family,rank", TABLE_TYPES)
def test_spec_is_immutable(family, rank):
    spec = lie.lie_algebra(family, rank)

    def plain(x):  # an int, a str or a nested tuple of them; no Fraction, no list
        return all(map(plain, x)) if type(x) is tuple else type(x) in (int, str)

    for f in dataclasses.fields(spec):
        assert plain(getattr(spec, f.name)), f.name
    assert hash(spec) == hash((family, rank))
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.scale = 1


class TestSpecConstruction:
    def test_a3_gram_values(self):
        # (L_i, L_j) = min(i, j) - i*j/n for sl_n
        def fundamental(spec, i):
            return tuple(int(j == i) for j in range(spec.rank))

        def gram(spec, i, j):
            return lie.inner_product(spec, fundamental(spec, i), fundamental(spec, j))

        assert gram(A3, 0, 0) == Fraction(3, 4)
        assert gram(A3, 0, 2) == Fraction(1, 4)
        for i in range(5):
            for j in range(5):
                assert gram(A5, i, j) == Fraction(min(i + 1, j + 1)) - Fraction((i + 1) * (j + 1), 6)

    def test_dual_coxeter_numbers(self):
        assert A3.dual_coxeter == 4
        assert A5.dual_coxeter == 6
        assert D4.dual_coxeter == 6
        assert lie.lie_algebra("D", 5).dual_coxeter == 8
        assert lie.lie_algebra("B", 3).dual_coxeter == 5
        assert lie.lie_algebra("C", 3).dual_coxeter == 4
        assert lie.lie_algebra("G", 2).dual_coxeter == 4
        assert lie.lie_algebra("F", 4).dual_coxeter == 9
        assert lie.lie_algebra("E", 6).dual_coxeter == 12

    def test_rank_one_b_refused(self):
        # so(3) has one short root, so it is not A1 with long roots
        with pytest.raises(ValueError, match=r"family B needs rank >= 2"):
            lie.lie_algebra("B", 1)

    def test_comarks(self):
        assert A3.comark == (1, 1, 1)
        assert D4.comark == (1, 2, 1, 1)

    def test_cartan_shape(self):
        for spec in (A3, D4, lie.lie_algebra("B", 2), lie.lie_algebra("G", 2)):
            for i in range(spec.rank):
                assert spec.cartan[i][i] == 2
                assert all(spec.cartan[i][j] <= 0 for j in range(spec.rank) if j != i)

    def test_positive_root_counts(self):
        assert len(lie._positive_roots(A3.finite)) == 6
        assert len(lie._positive_roots(A5.finite)) == 15
        assert len(lie._positive_roots(D4.finite)) == 12
        assert len(lie._positive_roots(lie.lie_algebra("G", 2).finite)) == 6
        assert len(lie._positive_roots(lie.lie_algebra("F", 4).finite)) == 24


# 40 Cartan types, A1 to A11, B2 to B9, C1 to C9, D3 to D9 and the exceptional ones
ROOT_TYPES = ([("A", r) for r in range(1, 12)] + [("B", r) for r in range(2, 10)]
              + [("C", r) for r in range(1, 10)] + [("D", r) for r in range(3, 10)]
              + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@pytest.mark.parametrize("family,rank", ROOT_TYPES)
def test_positive_roots_by_reflection_equal_the_root_strings(family, rank):
    cartan = lie._cartan_matrix(family, rank)
    roots = lie._positive_roots(tuple(zip(*cartan)))
    assert tuple(c for c, _ in roots) == root_string_coords(cartan)
    for c, labels in roots:
        assert labels == tuple(sum(a * x for a, x in zip(row, c)) for row in cartan)


# 16 algebras from A1 to E8, 259 alcove weights in all
ORACLE_CATEGORIES = [
    ("A", 1, 20), ("A", 2, 6), ("A", 3, 4), ("A", 4, 3), ("A", 5, 2), ("A", 6, 2),
    ("A", 7, 1), ("B", 3, 3), ("B", 4, 2), ("C", 4, 2), ("D", 5, 2), ("E", 6, 2),
    ("E", 7, 2), ("E", 8, 2), ("F", 4, 2), ("G", 2, 5),
]


@pytest.mark.parametrize("family,rank,k", ORACLE_CATEGORIES)
def test_constants_equal_fraction_reference(family, rank, k):
    # equal floats bit for bit: P / s and float(Fraction(P, s)) round the same rational
    spec = lie.lie_algebra(family, rank)
    ws = lie.alcove_weights(spec, k)
    for lam, other in zip(ws, reversed(ws)):
        assert lie.weyl_dimension(spec, lam) == ref_weyl_dimension(spec, lam)
        assert lie.conformal_weight(spec, k, lam) == ref_conformal_weight(spec, k, lam)
        got = lie.quantum_dimension(spec, k, lam)
        assert got.hex() == ref_quantum_dimension(spec, k, lam).hex()
        for mu in (lam, other):
            assert lie.inner_product(spec, lam, mu) == ref_inner_product(spec, lam, mu)


class TestInnerProduct:
    def test_a3_fundamental_pairings(self):
        assert lie.inner_product(A3, (1, 0, 0), (1, 0, 0)) == Fraction(3, 4)
        assert lie.inner_product(A3, (1, 0, 0), (0, 0, 1)) == Fraction(1, 4)

    def test_zero_weight(self):
        assert lie.inner_product(A3, (0, 0, 0), (2, 1, 7)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            lie.inner_product(A3, (1, 0), (0, 0, 1))

    def test_symmetric(self):
        assert (lie.inner_product(D4, (1, 2, 0, 1), (0, 1, 1, 0))
                == lie.inner_product(D4, (0, 1, 1, 0), (1, 2, 0, 1)))


class TestAlcove:
    def test_counts(self):
        assert len(lie.alcove_weights(A3, 2)) == 10
        assert len(lie.alcove_weights(A5, 2)) == 21
        assert len(lie.alcove_weights(D4, 2)) == 11
        assert len(lie.alcove_weights(A3, 4)) == 35  # stars and bars C(7,3)

    def test_sorted_with_unit_first(self):
        ws = lie.alcove_weights(D4, 2)
        assert ws[0] == (0, 0, 0, 0)
        assert ws == sorted(ws)

    def test_level_zero(self):
        assert lie.alcove_weights(A3, 0) == [(0, 0, 0)]

    def test_d4_constraint(self):
        # lambda_1 + 2 lambda_2 + lambda_3 + lambda_4 <= k
        assert (0, 1, 0, 0) in lie.alcove_weights(D4, 2)
        assert all(w[0] + 2 * w[1] + w[2] + w[3] <= 2 for w in lie.alcove_weights(D4, 2))

    @pytest.mark.parametrize("family,rank", [
        ("A", 1), ("A", 4), ("B", 3), ("C", 4), ("D", 5), ("E", 6), ("E", 7),
        ("E", 8), ("F", 4), ("G", 2)])
    def test_size_counts_the_listed_weights(self, family, rank):
        spec = lie.lie_algebra(family, rank)
        for k in range(7):
            assert lie.alcove_size(spec, k) == len(lie.alcove_weights(spec, k))


class TestWeightMultiplicities:
    def test_minuscule(self):
        wm = lie.weight_multiplicities(A3, (1, 0, 0))
        assert len(wm) == 4 and set(wm.values()) == {1}

    def test_adjoint_zero_weight(self):
        wm = lie.weight_multiplicities(A3, (1, 0, 1))
        assert wm[(0, 0, 0)] == 3  # Cartan subalgebra of a rank-3 algebra
        assert sum(wm.values()) == 15

    def test_trivial_module(self):
        assert lie.weight_multiplicities(A3, (0, 0, 0)) == {(0, 0, 0): 1}

    def test_cached_diagram_is_read_only(self):
        wm = lie.weight_multiplicities(A3, (1, 0, 1))
        items = list(wm.items())
        with pytest.raises(TypeError):
            wm[(0, 0, 0)] = 4
        assert list(lie.weight_multiplicities(A3, (1, 0, 1)).items()) == items
        assert wm[(0, 0, 0)] == 3

    @pytest.mark.parametrize("spec,lam,dim", [
        (A3, (2, 0, 0), 10),
        (A3, (0, 1, 0), 6),
        (A3, (1, 1, 1), 64),
        (D4, (1, 0, 0, 0), 8),
        (D4, (0, 1, 0, 0), 28),
        (A5, (0, 0, 1, 0, 0), 20),
    ])
    def test_total_equals_weyl_dimension(self, spec, lam, dim):
        assert lie.weyl_dimension(spec, lam) == dim
        assert sum(lie.weight_multiplicities(spec, lam).values()) == dim

    def test_weyl_invariance(self):
        # multiplicity is constant along simple reflections of each weight
        for spec, lam in [(A3, (1, 1, 0)), (D4, (0, 1, 0, 0))]:
            wm = lie.weight_multiplicities(spec, lam)
            for w, m in wm.items():
                for i in range(spec.rank):
                    refl = _reflect_simple(spec, w, i)
                    assert wm.get(refl, 0) == m

    @pytest.mark.parametrize("family,rank,k", [
        ("A", 3, 2), ("D", 4, 2), ("B", 4, 2), ("C", 3, 3), ("G", 2, 3),
        ("F", 4, 1), ("E", 6, 1), ("A", 2, 10), ("A", 1, 40), ("A", 3, 4),
        ("G", 2, 8), ("F", 4, 2),
    ])
    def test_equals_full_freudenthal_reference(self, family, rank, k):
        # same weights, multiplicities and order as the recursion over every weight
        spec = lie.lie_algebra(family, rank)
        for lam in lie.alcove_weights(spec, k):
            assert (list(lie.weight_multiplicities(spec, lam).items())
                    == list(freudenthal_reference(spec, lam).items()))

    # the rest of the benchmark's nine build categories and E6, E7 at level 2,
    # where the reference in Fractions takes 1.5 to 32 s a category and the
    # integer recursion over dominant weights well under 0.1 s
    @pytest.mark.parametrize("family,rank,k", [
        ("A", 5, 2), ("A", 7, 1), ("E", 6, 2), ("E", 7, 2),
    ])
    def test_equals_the_chamber_lookup(self, family, rank, k):
        # same items and order as the recursion that read each term off the
        # dominant weight of mu + j*alpha
        spec = lie.lie_algebra(family, rank)
        for lam in lie.alcove_weights(spec, k):
            assert (list(lie.weight_multiplicities(spec, lam).items())
                    == list(chamber_weight_multiplicities(spec, lam).items()))

    def test_requires_dominant(self):
        with pytest.raises(ValueError):
            lie.weight_multiplicities(A3, (-1, 0, 0))


class TestTensorDecompose:
    def test_fundamental_times_dual(self):
        got = lie.tensor_decompose(A3, (1, 0, 0), (0, 0, 1))
        assert got == Counter({(1, 0, 1): 1, (0, 0, 0): 1})

    def test_fundamental_squared(self):
        got = lie.tensor_decompose(A3, (1, 0, 0), (1, 0, 0))
        assert got == Counter({(0, 1, 0): 1, (2, 0, 0): 1})

    def test_unit_law(self):
        assert lie.tensor_decompose(D4, (1, 0, 1, 0), (0, 0, 0, 0)) == Counter(
            {(1, 0, 1, 0): 1})

    @pytest.mark.parametrize("spec,lam,mu", [
        (A3, (1, 0, 0), (1, 0, 1)),
        (A3, (2, 0, 0), (0, 2, 0)),
        (A3, (1, 1, 0), (0, 1, 1)),
        (D4, (1, 0, 0, 0), (0, 0, 1, 1)),
        (D4, (0, 1, 0, 0), (0, 1, 0, 0)),
        (A5, (1, 0, 0, 0, 0), (0, 0, 1, 0, 0)),
    ])
    def test_against_character_oracle(self, spec, lam, mu):
        assert lie.tensor_decompose(spec, lam, mu) == char_multiply_decompose(spec, lam, mu)

    @pytest.mark.parametrize("spec,k", [(A3, 2), (D4, 2), (A5, 2)])
    def test_dimension_conservation_all_alcove_pairs(self, spec, k):
        ws = lie.alcove_weights(spec, k)
        for lam in ws:
            for mu in ws:
                total = sum(lie.weyl_dimension(spec, nu) * m
                            for nu, m in lie.tensor_decompose(spec, lam, mu).items())
                assert total == lie.weyl_dimension(spec, lam) * lie.weyl_dimension(spec, mu)


class TestFusion:
    def test_current_square(self):
        got = lie.fusion_coefficients(A3, 2, (2, 0, 0), (2, 0, 0))
        assert got == Counter({(0, 2, 0): 1})

    def test_current_shift(self):
        got = lie.fusion_coefficients(A3, 2, (2, 0, 0), (1, 0, 0))
        assert got == Counter({(1, 1, 0): 1})

    def test_unit_law(self):
        assert lie.fusion_coefficients(A5, 2, (1, 0, 0, 0, 1), (0,) * 5) == Counter(
            {(1, 0, 0, 0, 1): 1})

    def test_out_of_alcove(self):
        with pytest.raises(OutOfAlcoveError):
            lie.fusion_coefficients(A3, 2, (3, 0, 0), (1, 0, 0))

    @pytest.mark.parametrize("spec,k", [(A3, 2), (D4, 2), (A5, 2)])
    def test_symmetry_all_pairs(self, spec, k):
        # genuinely recompute in both directions (different weight diagrams)
        ws = lie.alcove_weights(spec, k)
        for i, lam in enumerate(ws):
            for mu in ws[i:]:
                assert (lie.fusion_with_second_diagram(spec, k, lam, mu)
                        == lie.fusion_with_second_diagram(spec, k, mu, lam))

    def test_truncation_of_classical(self):
        # fusion output is the classical decomposition with some terms removed
        # or cancelled, never anything new
        ws = lie.alcove_weights(A3, 2)
        for lam in ws:
            for mu in ws:
                fused = lie.fusion_coefficients(A3, 2, lam, mu)
                classical = lie.tensor_decompose(A3, lam, mu)
                for nu, m in fused.items():
                    assert classical[nu] >= m


class TestConformalWeight:
    def test_paper_anchors(self):
        assert lie.conformal_weight(A3, 2, (2, 0, 0)) == Fraction(3, 4)
        assert lie.conformal_weight(A5, 2, (0, 2, 0, 0, 0)) == Fraction(4, 3)

    def test_unit(self):
        assert lie.conformal_weight(D4, 2, (0, 0, 0, 0)) == 0

    def test_out_of_alcove(self):
        with pytest.raises(OutOfAlcoveError):
            lie.conformal_weight(A3, 2, (2, 1, 0))


class TestQuantumDimension:
    def test_unit(self):
        for spec, k in [(A3, 2), (A5, 2), (D4, 2)]:
            assert lie.quantum_dimension(spec, k, (0,) * spec.rank) == pytest.approx(1.0)

    def test_invertibles_have_unit_dimension(self):
        assert lie.quantum_dimension(A3, 2, (2, 0, 0)) == pytest.approx(1.0, abs=1e-9)
        assert lie.quantum_dimension(D4, 2, (2, 0, 0, 0)) == pytest.approx(1.0, abs=1e-9)

    def test_positive_on_alcove(self):
        for w in lie.alcove_weights(A3, 2):
            assert lie.quantum_dimension(A3, 2, w) > 0.999999999


class TestLabels:
    def test_render(self):
        assert lie.weight_label((0, 0, 0)) == "0"
        assert lie.weight_label((2, 0, 0)) == "2L1"
        assert lie.weight_label((1, 1, 0)) == "L1+L2"
        assert lie.weight_label((0, 3, 1)) == "3L2+L3"

    def test_parse_round_trip(self):
        for w in lie.alcove_weights(A5, 2):
            assert lie.parse_weight_label(lie.weight_label(w), 5) == w

    def test_parse_unit_alias(self):
        assert lie.parse_weight_label("unit", 3) == (0, 0, 0)

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            lie.parse_weight_label("L9", 3)
        with pytest.raises(ValueError):
            lie.parse_weight_label("2M1", 3)
