"""Braided/modular structure constants on top of a fusion ring.

The data carried here is deliberately minimal: a twist angle per simple
object (the conformal weight mod 1, exact) and a quantum dimension per
simple object (float, used only for sign decisions).  Monodromy scalars are
derived from the twists through the ribbon identity, which keeps the whole
pipeline exact.  Everything an invertible object determines (its order,
self-braiding eigenvalue, A and integer grading charges) is one record, its
``InvertibleProfile``, and each category keeps these records as one
read-only table, ``ModularCategoryData.profiles``, built in one loop over
the invertibles.  ``validate`` is the one check of category data, built or
loaded, and fills that table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm
from types import MappingProxyType

from . import fusion, groups, lie
from .angles import RationalAngle
from .fusion import FusionRing
from .lie import LieAlgebraSpec, Weight

QDIM_TOL = 1e-9  # tolerance for the +-1 decisions consuming quantum dimensions

#: Largest number of weights in all the weight diagrams of a build, counted
#: as sum(weyl_dimension) over the alcove, at about 250 bytes a weight.  The
#: fold makes only the diagram of the smaller argument of each pair it folds,
#: so this is a conservative upper bound on what a build makes (A18 at level
#: 1: 524,287 weights counted, 3 diagrams of 39 weights made).  2^23 weights
#: is about 2 GB, under a third of a 7 GB machine, as for fusion.MAX_SIMPLES.
MAX_DIAGRAM_WEIGHTS = 2 ** 23

#: Largest level whose alcove a build counts exactly (lie.alcove_size takes
#: about rank * level steps).  Above it a build is refused at once with a
#: lower bound, level // min(comark) + 1 weights on the node of least comark:
#: every type has a node of comark at most 2, so the bound exceeds 2^15.
MAX_COUNTED_LEVEL = 2 ** 16


class InconsistentDataError(RuntimeError):
    """Category data violates an identity it is required to satisfy."""


@dataclass(frozen=True)
class ModularCategoryData:
    """A fusion ring with twist angles and quantum dimensions per simple (frozen)."""

    ring: FusionRing
    twist: tuple[RationalAngle, ...]
    qdim: tuple[float, ...]
    weights: tuple[Weight, ...] | None = field(default=None, compare=False)

    @property
    def size(self) -> int:
        return self.ring.size

    @cached_property
    def profiles(self) -> MappingProxyType[int, InvertibleProfile]:
        """{g: InvertibleProfile} for each invertible g, the unit included, in
        index order (cached, read-only), built one g at a time.
        InconsistentDataError, naming g, unless each monodromy of g is an M-th
        root, |d_g| = 1, q^2 is an M-th root and q an order-M (M odd) or
        order-2M root, checked in that order.  Each monodromy is an integer
        v over den, the lcm of the twist denominators (see _turns): an M-th
        root exactly when den divides v * M, with charge Q_g(x) = v * M / den.

        q is the twist of g, shifted by a half turn when d_g = -1 (the ribbon
        identity theta_g = q * d_g; no unitary level-k example has d_g = -1,
        and the shift is a convention fixed here once).  sign(d_g) is the one
        decision read from a float.  For built data every (lambda + rho, alpha)
        lies strictly between 0 and kappa, so each sine factor of d_g is
        positive: the float decides only for a file's qdims.
        """
        ring = self.ring
        den, turns = _turns(self.twist)
        out = {}
        for g in fusion.invertibles(ring):
            label = ring.simples[g]
            m = fusion.invertible_order(ring, g)
            charges = []
            for x in range(self.size):
                v = _monodromy_turns(ring, den, turns, g, x)
                charge, off = divmod(v * m, den)
                if off:
                    raise InconsistentDataError(
                        f"monodromy {RationalAngle(v, den)} of {label} with "
                        f"{ring.simples[x]} is not an order-{m} root")
                charges.append(charge)
            d = self.qdim[g]
            if not abs(abs(d) - 1.0) <= QDIM_TOL:  # NaN fails too
                raise InconsistentDataError(
                    f"invertible {label} has |qdim| = {abs(d)}, expected 1")
            q = self.twist[g] if d > 0 else self.twist[g] + RationalAngle(1, 2)
            q2 = q + q
            if m % q2.order != 0:
                raise InconsistentDataError(
                    f"q^2 = {q2} is not an order-{m} root of unity for {label}")
            if (2 * m) % q.order != 0 or (m % 2 == 1 and m % q.order != 0):
                raise InconsistentDataError(
                    f"q = {q} has invalid order for {label} of order {m}")
            out[g] = InvertibleProfile(g=g, label=label, M=m, q=q, q_squared=q2,
                                       A=m // q2.order, charges=tuple(charges))
        return MappingProxyType(out)


@dataclass(frozen=True)
class InvertibleProfile:
    """Everything an invertible object g feeds into the auto-equivalence machine.

    M is the fusion order of g, q the eigenvalue of its self-braiding, and
    A = M / order(q^2), the integer controlling both the coprimality gate
    and the degree shift of the induced grading permutation; label names g.
    charges holds Q_g(x) for each simple x, with monodromy(g, x) = Q_g(x)/M.
    """

    g: int
    label: str
    M: int
    q: RationalAngle
    q_squared: RationalAngle
    A: int
    charges: tuple[int, ...]


def validate(data: ModularCategoryData) -> None:
    """The one check of category data: the list lengths, the fusion axioms, the
    twists and quantum dimensions, then every invertible's record (filling
    ``data.profiles``) and faithful gradings.  Raises InconsistentDataError, or
    fusion.TooLargeError past the exact check's bound."""
    ring = data.ring
    n = ring.size
    if len(data.twist) != n or len(data.qdim) != n:
        raise InconsistentDataError(f"twist and qdim lists have lengths {len(data.twist)} "
                                    f"and {len(data.qdim)}, expected the simple count {n}")
    violation = fusion.axiom_violation(ring)
    if violation is not None:
        raise InconsistentDataError(f"fusion axioms fail: {violation}")
    u = ring.unit_index
    if not data.twist[u].is_zero:
        raise InconsistentDataError(f"unit twist must vanish, got {data.twist[u]}")
    if not abs(data.qdim[u] - 1.0) <= QDIM_TOL:  # NaN fails too
        raise InconsistentDataError(f"unit quantum dimension must be 1, got {data.qdim[u]}")
    for a in range(n):
        if data.twist[ring.dual[a]] != data.twist[a]:
            raise InconsistentDataError(
                f"twist not dual-invariant at {ring.simples[a]}")
    check_modular_grading(data)


# ---------------------------------------------------------------------------
# level-k category builder


def build_wzw_data(spec: LieAlgebraSpec, k: int) -> ModularCategoryData:
    """Modular data of the level-k category attached to a simple Lie algebra.

    Simple objects are the level-k alcove weights in lexicographic order
    (unit first); the fusion tensor comes from the Kac-Walton fold, one pair
    per orbit of the simple currents (see _orbit_fold), twists from conformal
    weights mod 1, quantum dimensions from the sine product.
    Each call returns a new frozen object, whose ring's table is read-only,
    and the package keeps none of it.  Each fold makes only the weight
    diagram of its argument of smaller Weyl dimension.  An alcove of more
    than fusion.MAX_SIMPLES weights is refused with fusion.TooLargeError
    before any weight is listed, and one whose weight diagrams would hold
    more than MAX_DIAGRAM_WEIGHTS weights in all before the fold.
    """
    if k < 1:
        raise ValueError(f"level must be >= 1, got {k}")
    name = f"{spec} at level {k}"
    if k > MAX_COUNTED_LEVEL:
        raise fusion.TooLargeError(
            f"{name} has at least {k // min(spec.comark) + 1} simple objects, "
            f"more than the limit of {fusion.MAX_SIMPLES}")
    fusion.check_size(lie.alcove_size(spec, k), name)
    weights = lie.alcove_weights(spec, k)
    n = len(weights)
    size = sum(lie.weyl_dimension(spec, w) for w in weights)
    if size > MAX_DIAGRAM_WEIGHTS:
        raise fusion.TooLargeError(f"{name} has weight diagrams of {size} weights in "
                                   f"all, more than the limit of {MAX_DIAGRAM_WEIGHTS}")
    tensor, _ = _orbit_fold(spec, k, weights)
    unit = weights.index((0,) * spec.rank)
    # an a with no partner keeps itself, and validate's duality law refuses it
    dual = [next((b for b in range(n) if unit in tensor[(a, b)]), a) for a in range(n)]
    ring = FusionRing(
        simples=tuple(lie.weight_label(w) for w in weights),
        unit_index=unit,
        dual=dual,
        tensor=tensor,
    )

    def twist_of(w):
        h = lie.conformal_weight(spec, k, w)
        return RationalAngle(h.numerator, h.denominator)

    data = ModularCategoryData(
        ring=ring,
        twist=tuple(twist_of(w) for w in weights),
        qdim=tuple(lie.quantum_dimension(spec, k, w) for w in weights),
        weights=tuple(weights),
    )
    validate(data)
    return data


def _orbit_fold(spec: LieAlgebraSpec, k: int, weights: list[Weight]):
    """The fusion tensor {(a, b): {c: N^c_{ab}}} over every pair of alcove
    weights, and G, the group of fusion permutations of the simple currents
    found by the fold, as a list that starts with the identity.

    Each k Lambda_j of comark 1 not yet in G is folded with every weight, and
    its permutation joins G when each product is one simple of multiplicity
    1 (E8, F4 and G2 have no such node, and G stays trivial).  Then each pair
    a <= b not yet filled is folded once, and its result fills its orbit under
    G x G and the swap: N_{Ja,Kb}^{JKc} = N_{ab}^c (J. Fuchs, Simple WZW
    currents, Commun. Math. Phys. 136, 1991).  validate checks the table.
    """
    n = len(weights)
    index = {w: i for i, w in enumerate(weights)}
    unit = index[(0,) * spec.rank]

    def fold(a, b):
        prod = lie.fusion_coefficients(spec, k, weights[a], weights[b])
        return {index[w]: m for w, m in prod.items()}

    tensor: dict[tuple[int, int], dict[int, int]] = {}
    generators = [tuple(range(n))]
    group = generators
    for j in range(spec.rank):
        if spec.comark[j] != 1:
            continue
        g = index[tuple(k * (i == j) for i in range(spec.rank))]
        if any(perm[unit] == g for perm in group):
            continue
        row = [fold(g, x) for x in range(n)]
        for x, fiber in enumerate(row):
            tensor[(g, x)] = tensor[(x, g)] = fiber
        if all(list(fiber.values()) == [1] for fiber in row):
            generators.append(tuple(next(iter(fiber)) for fiber in row))
            group = groups.close_under_composition(generators)
    for a in range(n):
        for b in range(a, n):
            if (a, b) not in tensor:
                prod = fold(a, b)
                for J in group:
                    for K in group:
                        fiber = {J[K[c]]: m for c, m in prod.items()}
                        tensor[(J[a], K[b])] = tensor[(K[b], J[a])] = fiber
    return tensor, group


# ---------------------------------------------------------------------------
# braiding scalars derived from twists


def monodromy(data: ModularCategoryData, g: int, x: int) -> RationalAngle:
    """Scalar of the double braiding of an invertible g with a simple x.

    Valid because g (x) x is simple, so the ribbon identity collapses to
    twist(g (x) x) - twist(g) - twist(x), taken in integers over the twists'
    common denominator.
    """
    den, turns = _turns(data.twist)
    return RationalAngle(_monodromy_turns(data.ring, den, turns, g, x), den)


def _turns(twist: tuple[RationalAngle, ...]) -> tuple[int, list[int]]:
    """(den, turns): every twist as turns[x] / den over den = lcm of the twist
    denominators, in Python ints, so exact at any size."""
    den = lcm(*(t.den for t in twist))
    return den, [t.num * (den // t.den) for t in twist]


def _monodromy_turns(ring: FusionRing, den: int, turns: list[int], g: int, x: int) -> int:
    """v in [0, den) with monodromy(g, x) = v / den, from the twists as turns
    over den (see _turns): the one twist difference of the package."""
    y = fusion.fuse_permutation(ring, g)[x]
    return (turns[y] - turns[g] - turns[x]) % den


def grading(profile: InvertibleProfile, zeta: RationalAngle) -> tuple[int, ...]:
    """Grade of every simple in the Z/M grading induced by g, relative to zeta.

    zeta must be a primitive M-th root of unity; grade(X) is the unique n
    with monodromy(g, X) = zeta^n, the charge Q_g(X) over zeta's numerator
    mod M.
    """
    m = profile.M
    if not zeta.is_primitive(m):
        raise ValueError(f"{zeta} is not a primitive {m}-th root of unity")
    inverse = pow(zeta.num, -1, m)
    return tuple(q * inverse % m for q in profile.charges)


def grading_support(profile: InvertibleProfile) -> int:
    """Order of the subgroup of Z/M actually hit by the grading of g.

    M / gcd(M, every charge of g); equals M exactly when the grading is
    faithful.
    """
    m = profile.M
    return m // gcd(m, *profile.charges)


def check_modular_grading(data: ModularCategoryData) -> None:
    """Reject data whose gradings are unfaithful (symmetric-centre objects).

    For each invertible g of order M, a grading support N < M means g^N
    braids trivially with everything and the category cannot be modular.
    Reads ``data.profiles``, so every record is checked before any support.
    """
    for p in data.profiles.values():
        n = grading_support(p)
        if n != p.M:
            raise InconsistentDataError(
                f"grading by {p.label} has support {n} < order {p.M}: "
                f"{p.label}^{n} lies in the symmetric centre, data is not modular")
