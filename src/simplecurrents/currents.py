"""Auto-equivalences of modular categories built from invertible objects.

An invertible object g of order M with self-braiding eigenvalue q defines
A = M / order(q^2).  Whenever A + 1 is coprime to M, each primitive M-th
root zeta with zeta^A = q^2 yields a monoidal auto-equivalence acting on
simples as X -> g^grade(X) (x) X, where the grade is read off the monodromy
of g with X.  This module constructs those auto-equivalences, classifies
them as braided/pivotal, bounds their order, tests commutation, generates
permutation-level groups, and evaluates the pointed 6j/R symbol calculus
behind the classification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from . import fusion, groups, modular
from .angles import RationalAngle, ZERO_ANGLE, primitive_angles
from .groups import GroupReport, Perm
from .modular import InconsistentDataError, InvertibleProfile, ModularCategoryData

PERMUTATION_LEVEL_CAVEAT = (
    "group elements are identified by their permutations of the simple objects; "
    "auto-equivalences with equal permutations but inequivalent tensor structures "
    "are not distinguished"
)


class CoprimalityError(ValueError):
    """A + 1 is not coprime to M, so no auto-equivalence exists for this object."""


class InadmissibleZetaError(ValueError):
    """The requested zeta is not an admissible primitive M-th root for this object."""

    def __init__(self, zeta, label, admissible):
        self.admissible = list(admissible)
        opts = ", ".join(str(z) for z in self.admissible) or "none"
        super().__init__(
            f"zeta = {zeta} is not admissible for {label}; admissible choices: {opts}")


@dataclass
class CurrentAutoEq:
    """A constructed simple-current auto-equivalence, identified by its permutation."""

    data: ModularCategoryData = field(repr=False, compare=False)
    g: int
    M: int
    zeta: RationalAngle
    A: int
    permutation: Perm
    braided: bool
    pivotal: bool
    order_bound: int

    @property
    def g_label(self) -> str:
        return self.data.ring.simples[self.g]


# ---------------------------------------------------------------------------
# profile and gates


def profile(data: ModularCategoryData, g: int) -> InvertibleProfile:
    """The record (M, q, q^2, A, charges) of an invertible object, from
    ``data.profiles``; NotInvertibleError for any other object.  The one
    invertibility gate of the readers of category data."""
    fusion.fuse_permutation(data.ring, g)
    return data.profiles[g]


def exists_autoequivalence(p: InvertibleProfile) -> bool:
    """The coprimality gate: an auto-equivalence exists iff gcd(A+1, M) = 1."""
    return gcd(p.A + 1, p.M) == 1


def require_coprimality(p: InvertibleProfile) -> None:
    """Raise CoprimalityError, naming gcd, A, M and the object, unless the gate passes."""
    if not exists_autoequivalence(p):
        raise CoprimalityError(
            f"gcd(A+1, M) = {gcd(p.A + 1, p.M)} != 1 (A = {p.A}, M = {p.M}) for {p.label}")


def admissible_zetas(p: InvertibleProfile) -> list[RationalAngle]:
    """All primitive M-th roots zeta with zeta^A = q^2, ascending by numerator."""
    out = [z for z in primitive_angles(p.M) if z * p.A == p.q_squared]
    if exists_autoequivalence(p) and not out:
        raise InconsistentDataError(
            f"no admissible zeta for {p.label} (M={p.M}, q={p.q}) "
            f"despite gcd(A+1, M) = 1")
    return out


# ---------------------------------------------------------------------------
# classification


#: (M, q, zeta) triples for which the auto-equivalence is braided.
_BRAIDED_CASES = frozenset({
    (1, (0, 1), (0, 1)),
    (2, (1, 2), (1, 2)),
    (3, (1, 3), (2, 3)),
    (3, (2, 3), (1, 3)),
    (4, (1, 4), (3, 4)),
    (4, (3, 4), (1, 4)),
})


def braided_symbol_condition(zeta: RationalAngle, q: RationalAngle, m: int) -> bool:
    """Whether zeta^(mn) q^(mn) = 1 for all m, n in Z/M, by exhaustion.

    This is the raw compatibility condition between the braiding and the
    R symbols of the powers of g; the four-case table in
    :func:`classify_braided` agrees with it on admissible inputs.
    """
    return all((zeta * (i * j) + q * (i * j)).is_zero
               for i in range(m) for j in range(m))


def classify_braided(p: InvertibleProfile, zeta: RationalAngle) -> bool:
    """Whether the auto-equivalence for (g, zeta) is braided.

    Implemented as the four-case table of (M, q, zeta) triples; on
    admissible zetas it equals :func:`braided_symbol_condition`.
    """
    return (p.M, p.q.pair, zeta.pair) in _BRAIDED_CASES


def classify_pivotal(data: ModularCategoryData, g: int) -> bool:
    """Whether the auto-equivalence is pivotal: exactly when d_g = +1."""
    profile(data, g)  # g is invertible, so |d_g| = 1
    return data.qdim[g] > 0


def order_bound(p: InvertibleProfile) -> int:
    """Least K >= 1 with (A+1)^K = 1 mod A*M; the K-th power is the identity."""
    require_coprimality(p)
    mod = p.A * p.M
    x = (p.A + 1) % mod
    k = 1
    while x != 1 % mod:
        x = x * (p.A + 1) % mod
        k += 1
    return k


# ---------------------------------------------------------------------------
# construction


def construct_autoeq(data: ModularCategoryData, g: int,
                     zeta: RationalAngle) -> CurrentAutoEq:
    """Build the auto-equivalence X -> g^grade(X) (x) X for an admissible zeta."""
    p = profile(data, g)
    require_coprimality(p)
    admissible = admissible_zetas(p)
    if zeta not in admissible:
        raise InadmissibleZetaError(zeta, p.label, admissible)
    grades = modular.grading(p, zeta)
    pi = data.ring.invertible_permutations[g]
    powers = [groups.identity_perm(data.size)]
    for _ in range(1, p.M):
        powers.append(groups.compose_perms(pi, powers[-1]))
    perm = tuple(powers[grades[x]][x] for x in range(data.size))
    if perm[data.ring.unit_index] != data.ring.unit_index:
        raise InconsistentDataError(
            f"auto-equivalence for {data.ring.simples[g]} moves the unit")
    return CurrentAutoEq(
        data=data,
        g=g,
        M=p.M,
        zeta=zeta,
        A=p.A,
        permutation=perm,
        braided=classify_braided(p, zeta),
        pivotal=classify_pivotal(data, g),
        order_bound=order_bound(p),
    )


def all_autoequivalences(data: ModularCategoryData) -> list[CurrentAutoEq]:
    """Every constructible auto-equivalence (each invertible, each admissible zeta)."""
    return [construct_autoeq(data, p.g, zeta) for p in data.profiles.values()
            if exists_autoequivalence(p) for zeta in admissible_zetas(p)]


# ---------------------------------------------------------------------------
# composition


def commute_test(data: ModularCategoryData, g: int, h: int) -> bool:
    """Sufficient condition for the g- and h-auto-equivalences to commute.

    True when g and h braid symmetrically, i.e. the charge of h under g is 0.
    """
    charges = profile(data, g).charges
    profile(data, h)  # h must be invertible too
    return charges[h] == 0


def compose(a: CurrentAutoEq, b: CurrentAutoEq) -> Perm:
    """Permutation of a applied after the permutation of b.

    The result is a bare permutation; callers may match it against the
    permutations of known auto-equivalences.
    """
    if a.data.ring != b.data.ring:
        raise ValueError("auto-equivalences act on different categories")
    return groups.compose_perms(a.permutation, b.permutation)


def generated_group(autoeqs: list[CurrentAutoEq], cap: int = 1024) -> GroupReport:
    """Permutation-level group generated by the given auto-equivalences;
    ValueError, naming the cap, unless cap >= 1."""
    if cap < 1:
        raise ValueError(f"closure cap must be at least 1, got {cap}")
    if not autoeqs:
        raise ValueError("need at least one auto-equivalence")
    ring = autoeqs[0].data.ring
    if any(a.data.ring != ring for a in autoeqs[1:]):
        raise ValueError("auto-equivalences act on different categories")
    elements = groups.close_under_composition(
        [a.permutation for a in autoeqs], cap=cap)
    table = groups.multiplication_table(elements)
    return GroupReport(
        elements=tuple(elements),
        table=table,
        iso_type=groups.isomorphism_type(table),
        caveat=PERMUTATION_LEVEL_CAVEAT,
    )


# ---------------------------------------------------------------------------
# pointed 6j / R symbol calculus


def alpha_symbol(m: int, n: int, p: int, q: RationalAngle, big_m: int) -> RationalAngle:
    """Associator symbol of the powers of g on the (m, n, p) triple.

    Grades are canonicalised to representatives in [0, M).  The symbol is
    trivial (angle 0) when n + p < M; otherwise q^(M*m), which also
    vanishes whenever q is an M-th root of unity.
    """
    if big_m < 1:
        raise ValueError(f"order must be a positive integer, got {big_m}")
    m, n, p = m % big_m, n % big_m, p % big_m
    if n + p < big_m:
        return ZERO_ANGLE
    return q * (big_m * m)


def hexagon_holds(q: RationalAngle, m: int) -> bool:
    """Whether the monoidal structure maps satisfy the hexagon: q^M = 1."""
    return (q * m).is_zero


def epsilon_scalar(q: RationalAngle, a: int, k: int) -> RationalAngle:
    """The scalar q^(-sum_{i=1}^{K-1} sum_{j=i}^{2i-1} (A+1)^j).

    This is the correction factor in the natural isomorphism from the K-th
    power of the auto-equivalence to the identity.  For any K satisfying
    the order-bound congruence with K odd, the exponent is a multiple of M
    and the scalar is 1.  The exponent is summed mod the order of q.
    """
    if k < 1:
        raise ValueError(f"K must be >= 1, got {k}")
    exponent = sum(pow(a + 1, j, q.den)
                   for i in range(1, k) for j in range(i, 2 * i)) % q.den
    return q * (-exponent)
