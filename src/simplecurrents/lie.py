"""Weights, roots, and level-k fusion data for simple Lie algebras.

Everything is driven by the Cartan matrix, so the code is type-agnostic:
weights are tuples of Dynkin labels (coefficients in the fundamental-weight
basis) and roots are tuples of coordinates in the simple-root basis.  The
bilinear form (long roots of squared length 2) is built once, by
``lie_algebra``, and kept on the frozen spec: the Gram matrix of the
fundamental weights and each positive root's pairing and norm, all times the
lcm s of their denominators.  Exact results divide by s once; a quantum
dimension's sine arguments are P / s for integers P, which Python rounds
correctly, so they equal float(Fraction(P, s)).

Weight diagrams come from the Freudenthal recursion run over the dominant
weights of the module only, in integer arithmetic (Moody-Patera), each
dominant weight's Weyl orbit expanded into the diagram as soon as its
multiplicity is known.
The spec is memoized per Cartan type and weight diagrams per (algebra,
highest weight).  All functions are pure; the caches are plain
``functools.lru_cache`` dictionaries, safe under concurrent reads and
idempotent concurrent inserts.

One loop, ``_chamber``, reflects in the first negative label until none is
left.  On the Cartan columns, ``spec.finite``, it finds a Weyl orbit's
dominant weight; on the extended Cartan columns, ``spec.extended``, in affine
labels (lambda_1, ..., lambda_r, lambda_0 = k + h_vee - level), it is the
Kac-Walton fold into the level-k alcove, and a point left on a wall (a zero
label) cancels.  ``fusion_coefficients`` folds one pair this way, for
``tensor_decompose`` and as the oracle of the build, which folds every row
of its orbit pass in one pass of chunked int64 arrays by the same
reflections, taken label by label (``modular._fold_rows``).  Simple currents
act on the same affine labels, as symmetries of the extended Dynkin diagram.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, mul, sub
from types import MappingProxyType

Weight = tuple[int, ...]


class OutOfAlcoveError(ValueError):
    """A weight lies outside the level-k alcove it was required to be in."""


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Static data of a simple Lie algebra in the fundamental-weight basis,
    built once per type by :func:`lie_algebra`; every field is a str, an int
    or a nested tuple of ints.

    Attributes
    ----------
    family, rank : str, int
        Cartan-Killing type, e.g. ("A", 3) for sl_4 or ("D", 4) for so_8.
    cartan : rank x rank integer matrix
        cartan[i][j] = 2 (alpha_i, alpha_j) / (alpha_i, alpha_i).
    dual_coxeter : the dual Coxeter number, 1 + sum(comark).
    comark : dual marks of the highest root; a weight lies in the level-k
        alcove iff sum(comark[i] * label[i]) <= k.
    theta_labels : Dynkin labels of the highest root theta.
    scale, scaled_gram : s, the lcm of the denominators of the d_i =
        (alpha_i, alpha_i) / 2 and of the (Lambda_i, Lambda_j) = d_i (A^-1)_ij,
        and scaled_gram[i][j] = s (Lambda_i, Lambda_j).
    roots : (labels, height, pairing, norm) per positive root alpha, by height:
        sum(mu_i * pairing_i) = s (mu, alpha) and norm = s (alpha, alpha).
    finite, extended : the simple roots' labels, the Cartan columns and the
        extended ones over (lambda_1, ..., lambda_r, lambda_0), with alpha_0 =
        delta - theta last (labels -theta, affine label 2).
    """

    family: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    dual_coxeter: int
    comark: tuple[int, ...]
    theta_labels: tuple[int, ...]
    scale: int
    scaled_gram: tuple[tuple[int, ...], ...]
    roots: tuple[tuple[Weight, int, tuple[int, ...], int], ...]
    finite: tuple[Weight, ...]
    extended: tuple[Weight, ...]

    def __hash__(self) -> int:
        # The Cartan type fixes every other field; hashing the root data
        # would dominate each cache lookup keyed by the spec.
        return hash((self.family, self.rank))

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


# ---------------------------------------------------------------------------
# construction


def _cartan_matrix(family: str, rank: int) -> list[list[int]]:
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def bond(i, j, aij=-1, aji=-1):
        a[i][j] = aij
        a[j][i] = aji

    if family in ("A", "B", "C"):
        if family == "B" and rank < 2:
            # so(3)'s one root is short; no rank-1 Cartan matrix shows it
            raise ValueError("family B needs rank >= 2")
        for i in range(rank - 1):
            bond(i, i + 1)
        if family == "B":
            bond(rank - 2, rank - 1, -1, -2)
        if family == "C" and rank >= 2:
            bond(rank - 2, rank - 1, -2, -1)
    elif family == "D":
        if rank < 3:
            raise ValueError("family D needs rank >= 3")
        for i in range(rank - 3):
            bond(i, i + 1)
        bond(rank - 3, rank - 2)
        bond(rank - 3, rank - 1)
    elif family == "E":
        if rank not in (6, 7, 8):
            raise ValueError("family E needs rank in {6, 7, 8}")
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(2, rank - 1)
    elif family == "F":
        if rank != 4:
            raise ValueError("family F needs rank 4")
        bond(0, 1)
        bond(1, 2, -1, -2)
        bond(2, 3)
    elif family == "G":
        if rank != 2:
            raise ValueError("family G needs rank 2")
        bond(0, 1, -1, -3)
    else:
        raise ValueError(f"unknown family {family!r}")
    return a


def _symmetrizer(cartan: list[list[int]]) -> list[Fraction]:
    """d_i = (alpha_i, alpha_i) / 2, from d_i a_ij = d_j a_ji along the Dynkin
    tree, scaled to 1 on the long roots; diag(d) A is then symmetric."""
    d = [None] * len(cartan)
    d[0] = Fraction(1)
    stack = [0]
    while stack:
        i = stack.pop()
        for j, aij in enumerate(cartan[i]):
            if aij and d[j] is None:
                d[j] = d[i] * aij / cartan[j][i]
                stack.append(j)
    longest = max(d)
    return [x / longest for x in d]


def _invert_exact(m: list[list[int]]) -> list[list[Fraction]]:
    """Inverse of an invertible integer matrix, by Gauss-Jordan in integer row
    operations: a row is cleared in the pivot's column by scaling it by the
    pivot, then divided by the gcd of its entries.  Row i ends as aug[i][i]
    times e_i beside aug[i][i] times row i of the inverse."""
    n = len(m)
    aug = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        p = aug[col]
        for r in range(n):
            f = aug[r][col]
            if r != col and f != 0:
                row = [x * p[col] - f * y for x, y in zip(aug[r], p)]
                g = math.gcd(*row)
                aug[r] = [x // g for x in row]
    return [[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(aug)]


def _positive_roots(finite) -> list[tuple[tuple[int, ...], Weight]]:
    """Positive roots as (simple-root coordinates, Dynkin labels), by height
    and then coordinates: each non-simple one is s_i of a lower one beta with
    beta_i < 0, so the step of _chamber, beta - beta_i * finite[i], taken
    while beta_i < 0, reaches them all from the simple roots."""
    roots = {}
    todo = [(tuple(int(j == i) for j in range(len(finite))), col)
            for i, col in enumerate(finite)]
    while todo:
        c, lam = todo.pop()
        if c not in roots:
            roots[c] = lam
            todo += [(c[:i] + (c[i] - x,) + c[i + 1:],
                      tuple([a - x * b for a, b in zip(lam, finite[i])]))
                     for i, x in enumerate(lam) if x < 0]
    return sorted(roots.items(), key=lambda r: (sum(r[0]), r[0]))


@lru_cache(maxsize=None)
def lie_algebra(family: str, rank: int) -> LieAlgebraSpec:
    """Build the LieAlgebraSpec of a Cartan-Killing type: the one place the
    bilinear form is computed."""
    family = family.upper()
    if rank < 1:
        raise ValueError(f"rank must be positive, got {rank}")
    cartan = _cartan_matrix(family, rank)
    d = _symmetrizer(cartan)
    # (Lambda_i, Lambda_j): G A = diag(d), hence G = diag(d) A^{-1}.
    ainv = _invert_exact(cartan)
    gram = [[d[i] * ainv[i][j] for j in range(rank)] for i in range(rank)]
    s = math.lcm(*(x.denominator for row in gram for x in row),
                 *(x.denominator for x in d))

    finite = tuple(zip(*cartan))
    positive = _positive_roots(finite)
    scaled_d = [int(di * s) for di in d]
    roots = []
    for c, labels in positive:
        pairing = tuple(map(mul, scaled_d, c))
        roots.append((labels, sum(c), pairing, sum(map(mul, pairing, labels))))

    # Highest root (the one of greatest height, listed last), dual marks, columns.
    theta_coords, theta_labels = positive[-1]
    comark = tuple(int(t * x) for t, x in zip(theta_coords, d))
    extended = tuple((*col, -sum(map(mul, comark, col))) for col in finite)

    return LieAlgebraSpec(
        family=family,
        rank=rank,
        cartan=tuple(tuple(row) for row in cartan),
        dual_coxeter=1 + sum(comark),
        comark=comark,
        theta_labels=theta_labels,
        scale=s,
        scaled_gram=tuple(tuple(int(x * s) for x in row) for row in gram),
        roots=tuple(roots),
        finite=finite,
        extended=extended + ((*(-t for t in theta_labels), 2),),
    )


# ---------------------------------------------------------------------------
# inner products and alcoves


def _check_weight(spec: LieAlgebraSpec, lam) -> Weight:
    lam = tuple(lam)
    if len(lam) != spec.rank:
        raise ValueError(f"weight {lam} has length {len(lam)}, expected rank {spec.rank}")
    return lam


def inner_product(spec: LieAlgebraSpec, lam, mu) -> Fraction:
    """Bilinear form (lam, mu) via the Gram matrix of fundamental weights."""
    lam = _check_weight(spec, lam)
    mu = _check_weight(spec, mu)
    return Fraction(sum(x * sum(g * y for g, y in zip(row, mu))
                        for x, row in zip(lam, spec.scaled_gram)), spec.scale)


def level(spec: LieAlgebraSpec, lam) -> int:
    """Pairing of a weight with the highest coroot, sum(comark_i * lam_i)."""
    lam = _check_weight(spec, lam)
    return sum(c * x for c, x in zip(spec.comark, lam))


def in_alcove(spec: LieAlgebraSpec, k: int, lam) -> bool:
    lam = _check_weight(spec, lam)
    return all(x >= 0 for x in lam) and level(spec, lam) <= k


def _alcove_weight(spec: LieAlgebraSpec, k: int, lam) -> Weight:
    lam = _check_weight(spec, lam)
    if not in_alcove(spec, k, lam):
        raise OutOfAlcoveError(f"weight {lam} is outside the level-{k} alcove of {spec}")
    return lam


def alcove_size(spec: LieAlgebraSpec, k: int) -> int:
    """Number of dominant weights of level <= k, counted without listing them:
    the affine labels with lambda_0 + sum(comark_i * lambda_i) = k, in one pass
    per label over the levels 0..k."""
    counts = [1] + [0] * k  # counts[b]: the labels seen so far that reach b
    for c in (1, *spec.comark):
        for b in range(c, k + 1):
            counts[b] += counts[b - c]
    return counts[k]


def alcove_weights(spec: LieAlgebraSpec, k: int) -> list[Weight]:
    """All dominant weights of level <= k, in the recursion's lexicographic order."""
    if k < 0:
        raise ValueError(f"level must be non-negative, got {k}")
    out: list[Weight] = []

    def rec(prefix: list[int], budget: int):
        i = len(prefix)
        if i == spec.rank:
            out.append(tuple(prefix))
            return
        for x in range(budget // spec.comark[i] + 1):
            rec(prefix + [x], budget - x * spec.comark[i])

    rec([], k)
    return out


# ---------------------------------------------------------------------------
# the chamber fold: one reflection loop for the Weyl chamber and the alcove


def _chamber(columns, xi: Weight) -> tuple[Weight, int]:
    """Reflect xi in its first negative label until none is left; return the
    point and the parity, (-1) to the number of reflections.

    Each reflection removes one positive root from those that pair negatively
    with xi, a finite set (for the extended columns, at a positive level), so
    the loop ends.
    """
    parity = 1
    while True:
        for i, x in enumerate(xi):
            if x < 0:
                break
        else:
            return xi, parity
        xi = tuple([a - x * c for a, c in zip(xi, columns[i])])
        parity = -parity


# ---------------------------------------------------------------------------
# weight diagrams (Freudenthal recursion on dominant weights, in integers)


@lru_cache(maxsize=None)
def weight_multiplicities(spec: LieAlgebraSpec, lam: Weight) -> MappingProxyType[Weight, int]:
    """Full weight diagram of the irreducible module with highest weight lam.

    Multiplicities are constant on Weyl orbits, so the Freudenthal recursion
    runs over the dominant weights only (R. V. Moody and J. Patera, Bull. AMS
    7, 1982).  These are the dominant weights reached from lam by subtracting
    positive roots one at a time while staying dominant, taken by depth, and
    each one's Weyl orbit is expanded as soon as its multiplicity is known.
    So each term m(mu + j*alpha) is read from the diagram built so far: the
    dominant weight of mu + j*alpha has a smaller depth than mu, so its orbit
    is already there.  The j-loop stops at the end of the unbroken
    alpha-string, and every inner product is scaled to an integer.  The
    returned read-only mapping (it is cached) takes each weight of the module
    to its multiplicity, ordered by depth (height of lam - mu) and then by
    labels; the total count equals the Weyl dimension.
    """
    lam = _check_weight(spec, lam)
    if any(x < 0 for x in lam):
        raise ValueError(f"highest weight must be dominant, got {lam}")
    gram, roots, finite = spec.scaled_gram, spec.roots, spec.finite

    depth = {lam: 0}  # dominant weights of the module -> height of lam - mu
    stack = [lam]
    while stack:
        mu = stack.pop()
        for labels, height, _, _ in roots:
            nu = tuple(map(sub, mu, labels))
            if nu not in depth and all(x >= 0 for x in nu):
                depth[nu] = depth[mu] + height
                stack.append(nu)

    def norm_rho(mu):  # scaled (mu + rho, mu + rho)
        x = [m + 1 for m in mu]
        return sum(a * sum(g * b for g, b in zip(row, x)) for a, row in zip(x, gram))

    top = norm_rho(lam)
    mult: dict[Weight, int] = {}  # the diagram so far: the orbits of the dominant weights done
    diagram = []  # (depth, weight, multiplicity) over each dominant weight's orbit
    for mu in sorted(depth, key=depth.__getitem__):
        m = 1
        if mu != lam:
            num = 0
            for labels, _, pairing, norm in roots:
                base = sum(map(mul, mu, pairing))
                nu, j = mu, 1
                while True:
                    nu = tuple(map(add, nu, labels))
                    m_up = mult.get(nu)
                    if m_up is None:
                        break
                    num += (base + j * norm) * m_up
                    j += 1
            den = top - norm_rho(mu)
            m, rem = divmod(2 * num, den)
            if rem or m <= 0:
                raise ArithmeticError(
                    f"Freudenthal recursion gave multiplicity {2 * num}/{den} at {mu} "
                    f"in the module of highest weight {lam} of {spec}")
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
        mult.update(dict.fromkeys(orbit, m))
        diagram.extend((d, w, m) for w, d in orbit.items())
    del mult  # not held beside the list and the mapping made from it
    diagram.sort()
    return MappingProxyType({w: m for _, w, m in diagram})


def weyl_dimension(spec: LieAlgebraSpec, lam) -> int:
    """Dimension of the irreducible module, by the Weyl product formula."""
    lam = _check_weight(spec, lam)
    num = den = 1
    for _, _, pairing, _ in spec.roots:
        num *= sum(p * (x + 1) for p, x in zip(pairing, lam))
        den *= sum(pairing)
    dim, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(
            f"Weyl dimension {Fraction(num, den)} of {lam} is not an integer")
    return dim


# ---------------------------------------------------------------------------
# tensor products: classical (Racah-Speiser) and level-k fused (Kac-Walton)


def tensor_decompose(spec: LieAlgebraSpec, lam, mu) -> Counter:
    """Decomposition of the classical tensor product V_lam (x) V_mu.

    Racah-Speiser, as the level-k fusion product at k = level(lam) + level(mu):
    a shifted weight folded into the open dominant chamber has level below
    k + h_vee there (the level only falls down the dominance order), so no
    affine wall is met.  Returns a Counter of dominant highest weights.
    """
    lam = _check_weight(spec, lam)
    mu = _check_weight(spec, mu)
    if any(x < 0 for x in lam) or any(x < 0 for x in mu):
        raise ValueError("tensor factors must be dominant")
    return fusion_coefficients(spec, level(spec, lam) + level(spec, mu), lam, mu)


def fusion_coefficients(spec: LieAlgebraSpec, k: int, lam, mu) -> Counter:
    """Level-k fusion product of two alcove weights (Kac-Walton).

    Same signed reflection scheme as the classical decomposition, but folded
    by the affine Weyl group at level k; terms fixed by a shifted wall
    annihilate.  Returns a Counter supported on the level-k alcove.

    Commutativity is a theorem, so the argument of smaller Weyl dimension is
    folded (mu on a tie), and only its weight diagram is made; the
    directional computation is available as :func:`fusion_with_second_diagram`.
    """
    lam = _alcove_weight(spec, k, lam)
    mu = _alcove_weight(spec, k, mu)
    if weyl_dimension(spec, mu) > weyl_dimension(spec, lam):
        lam, mu = mu, lam
    return fusion_with_second_diagram(spec, k, lam, mu)


def fusion_with_second_diagram(spec: LieAlgebraSpec, k: int, lam, mu) -> Counter:
    """Level-k fusion computed by folding the weight diagram of mu shifted
    by lam + rho; no argument reordering."""
    lam = _alcove_weight(spec, k, lam)
    mu = _alcove_weight(spec, k, mu)
    extended, comark = spec.extended, spec.comark
    shift = tuple(x + 1 for x in lam)
    top = k + spec.dual_coxeter - sum(map(mul, comark, shift))  # lambda_0 of lam + rho
    out: Counter = Counter()
    for nu, m in weight_multiplicities(spec, mu).items():
        point, parity = _chamber(extended, (*map(add, shift, nu),
                                            top - sum(map(mul, comark, nu))))
        if 0 not in point:
            out[tuple(x - 1 for x in point[:-1])] += parity * m
    bad = {w: v for w, v in out.items() if v < 0}
    if bad:
        raise ArithmeticError(f"negative fusion multiplicity at {bad}")
    return +out


# ---------------------------------------------------------------------------
# modular structure constants


def conformal_weight(spec: LieAlgebraSpec, k: int, lam) -> Fraction:
    """Exact h_lam = (lam, lam + 2 rho) / (2 (k + h_vee)) for an alcove weight."""
    lam = _alcove_weight(spec, k, lam)
    return inner_product(spec, lam, [x + 2 for x in lam]) / (2 * (k + spec.dual_coxeter))


def quantum_dimension(spec: LieAlgebraSpec, k: int, lam) -> float:
    """Quantum dimension as a sine product over positive roots (float)."""
    lam = _alcove_weight(spec, k, lam)
    kappa = k + spec.dual_coxeter
    s = spec.scale
    dim = 1.0
    for _, _, pairing, _ in spec.roots:
        top = sum(p * (x + 1) for p, x in zip(pairing, lam)) / s  # (lam + rho, alpha)
        bottom = sum(pairing) / s                                  # (rho, alpha)
        dim *= math.sin(math.pi * top / kappa) / math.sin(math.pi * bottom / kappa)
    return dim


# ---------------------------------------------------------------------------
# label rendering ("2L1", "L1+L2", "0")


def weight_label(lam: Weight) -> str:
    """Compact label for a weight: "0", "L2", "2L1+L3", ..."""
    if not any(lam):
        return "0"
    parts = []
    for i, c in enumerate(lam):
        if c == 0:
            continue
        parts.append(f"L{i + 1}" if c == 1 else f"{c}L{i + 1}")
    return "+".join(parts)


def parse_weight_label(text: str, rank: int) -> Weight:
    """Inverse of :func:`weight_label`; also accepts "unit" for the zero weight."""
    text = text.strip()
    if text in ("0", "unit"):
        return (0,) * rank
    labels = [0] * rank
    for part in text.split("+"):
        part = part.strip()
        head, _, idx = part.partition("L")
        if not idx:
            raise ValueError(f"cannot parse weight label {text!r}")
        try:
            coef = int(head) if head else 1
            i = int(idx)
        except ValueError:
            raise ValueError(f"cannot parse weight label {text!r}") from None
        if not 1 <= i <= rank:
            raise ValueError(f"index L{i} out of range for rank {rank}")
        labels[i - 1] += coef
    return tuple(labels)
