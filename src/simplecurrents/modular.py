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
from functools import cached_property, lru_cache
from math import gcd
from types import MappingProxyType

from . import fusion, lie
from .angles import RationalAngle
from .fusion import FusionRing
from .lie import LieAlgebraSpec, Weight

QDIM_TOL = 1e-9  # tolerance for the +-1 decisions consuming quantum dimensions


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
        order-2M root, checked in that order.

        q is the twist of g, shifted by a half turn when d_g = -1 (the ribbon
        identity theta_g = q * d_g; no unitary level-k example has d_g = -1,
        and the shift is a convention fixed here once).  sign(d_g) is the one
        decision read from a float.  For built data every (lambda + rho, alpha)
        lies strictly between 0 and kappa, so each sine factor of d_g is
        positive: the float decides only for a file's qdims.
        """
        ring = self.ring
        out = {}
        for g in fusion.invertibles(ring):
            label = ring.simples[g]
            m = fusion.invertible_order(ring, g)
            charges = []
            for x in range(self.size):
                mono = monodromy(self, g, x)
                if m % mono.den:
                    raise InconsistentDataError(
                        f"monodromy {mono} of {label} with {ring.simples[x]} "
                        f"is not an order-{m} root")
                charges.append(mono.num * (m // mono.den))
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
    """The one check of category data: the fusion axioms, the twists and quantum
    dimensions, then every invertible's record (filling ``data.profiles``) and
    faithful gradings.  Raises InconsistentDataError, or fusion.TooLargeError
    past the exact check's bound."""
    ring = data.ring
    violation = fusion.axiom_violation(ring)
    if violation is not None:
        raise InconsistentDataError(f"fusion axioms fail: {violation}")
    n = ring.size
    if len(data.twist) != n or len(data.qdim) != n:
        raise InconsistentDataError("twist/qdim lists must match the simple count")
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


@lru_cache(maxsize=None)
def build_wzw_data(spec: LieAlgebraSpec, k: int) -> ModularCategoryData:
    """Modular data of the level-k category attached to a simple Lie algebra.

    Simple objects are the level-k alcove weights in lexicographic order
    (unit first); the fusion tensor comes from the Kac-Walton fold, twists
    from conformal weights mod 1, quantum dimensions from the sine product.
    The result is cached per (algebra, level); it is frozen, and its ring's
    table is read-only, so no caller can change what later callers get.
    An alcove of more than fusion.MAX_SIMPLES weights raises
    fusion.TooLargeError before the fold.
    """
    if k < 1:
        raise ValueError(f"level must be >= 1, got {k}")
    weights = lie.alcove_weights(spec, k)
    n = len(weights)
    fusion.check_size(n, f"{spec.family}{spec.rank} at level {k}")
    index = {w: i for i, w in enumerate(weights)}
    unit = index[(0,) * spec.rank]

    tensor: dict[tuple[int, int], dict[int, int]] = {}
    for a in range(n):
        for b in range(a, n):
            prod = lie.fusion_coefficients(spec, k, weights[a], weights[b])
            tensor[(a, b)] = tensor[(b, a)] = {index[w]: m for w, m in prod.items()}

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


# ---------------------------------------------------------------------------
# braiding scalars derived from twists


def monodromy(data: ModularCategoryData, g: int, x: int) -> RationalAngle:
    """Scalar of the double braiding of an invertible g with a simple x.

    Valid because g (x) x is simple, so the ribbon identity collapses to
    twist(g (x) x) - twist(g) - twist(x) in angle arithmetic.
    """
    perm = fusion.fuse_permutation(data.ring, g)
    return data.twist[perm[x]] - data.twist[g] - data.twist[x]


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
