"""Braided/modular structure constants on top of a fusion ring.

The data carried here is deliberately minimal: a twist angle per simple
object (the conformal weight mod 1, exact) and a quantum dimension per
simple object (float, used only for sign decisions).  Monodromy scalars are
derived from the twists through the ribbon identity, which keeps the whole
pipeline exact.  Everything an invertible object determines (its order,
self-braiding eigenvalue, A and integer grading charges) is one record, its
``InvertibleProfile``, and each category keeps these records as one
read-only table, ``ModularCategoryData.profiles``, built from one array of
monodromies over the invertibles.  ``validate`` is the one check of category
data, built or loaded, and fills that table.

``build_wzw_data`` makes the level-k fusion table by the Kac-Walton fold:
one row of pairs per orbit of the simple currents, every row folded in one
pass of chunked int64 arrays, each chunk written into an (n, n, n) table by
the currents' column action as soon as it is folded, one scatter per current;
the ring keeps that table, not a copy, so a build holds one n^3 array.
The pair fold of ``lie.fusion_coefficients`` is its oracle in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, lcm
from types import MappingProxyType

import numpy as np

from . import fusion, groups, lie
from .angles import RationalAngle
from .fusion import FusionRing
from .lie import LieAlgebraSpec, Weight

QDIM_TOL = 1e-9  # tolerance for the +-1 decisions consuming quantum dimensions

#: Largest number of weights in all the weight diagrams of a build, counted
#: as sum(weyl_dimension) over the alcove, at about 250 bytes a weight.  The
#: fold makes the diagrams of the simple-current candidates and of one member
#: per orbit, so this is a conservative upper bound on what a build makes (A18
#: at level 1: 524,287 weights counted, 2 diagrams of 20 weights made).  2^23
#: weights is about 2 GB, under a third of a 7 GB machine, as for
#: fusion.MAX_SIMPLES.  It also keeps each sum of the fold below 2^53.
MAX_DIAGRAM_WEIGHTS = 2 ** 23


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
        index order (cached, read-only).  Every monodromy of every g is one
        array pass (_monodromy_turns), then each g in turn raises
        InconsistentDataError, naming g, unless each monodromy of g is an M-th
        root (naming the first x that is not), |d_g| = 1, q^2 is an M-th root
        and q an order-M (M odd) or order-2M root, checked in that order.  Each
        monodromy is an integer v over den, the lcm of the twist denominators
        (see _turns): an M-th root exactly when den divides v * M, with charge
        Q_g(x) = v * M / den.  The arrays are int64 while den * max(2, M) <
        2^63, which bounds each v * M and each twist difference, and Python
        ints past it, as a file's twists may need.

        q is the twist of g, shifted by a half turn when d_g = -1 (the ribbon
        identity theta_g = q * d_g; no unitary level-k example has d_g = -1,
        and the shift is a convention fixed here once).  sign(d_g) is the one
        decision read from a float.  For built data every (lambda + rho, alpha)
        lies strictly between 0 and kappa, so each sine factor of d_g is
        positive: the float decides only for a file's qdims.
        """
        ring = self.ring
        den, turns = _turns(self.twist)
        gs = fusion.invertibles(ring)
        orders = [fusion.invertible_order(ring, g) for g in gs]
        if den * max([2, *orders]) < 2 ** 63:
            turns = turns.astype(np.int64)
        perms = np.array([ring.invertible_permutations[g] for g in gs],
                         dtype=np.intp).reshape(len(gs), self.size)
        v = _monodromy_turns(perms, den, turns, gs)
        vm = v * np.array(orders, dtype=turns.dtype)[:, None]
        charges, off = (vm // den).tolist(), vm % den
        faulty = (off != 0).any(axis=1).tolist()
        out = {}
        for i, (g, m) in enumerate(zip(gs, orders)):
            label = ring.simples[g]
            if faulty[i]:
                x = np.flatnonzero(off[i])[0]
                raise InconsistentDataError(
                    f"monodromy {RationalAngle(int(v[i, x]), den)} of {label} with "
                    f"{ring.simples[x]} is not an order-{m} root")
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
                                       A=m // q2.order, charges=tuple(charges[i]))
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
    (unit first); the fusion table comes from the Kac-Walton fold, one row of
    pairs per orbit of the simple currents (see _orbit_fold), twists from
    conformal weights mod 1, quantum dimensions from the sine product.
    Each call returns a new frozen object, whose ring's table is read-only,
    and the package keeps none of it.  Each alcove weight's Weyl dimension is
    computed once, for the size bound, and orders the fold.  An alcove of more
    than fusion.MAX_SIMPLES weights is refused with fusion.TooLargeError
    before any weight is listed, and one whose weight diagrams would hold
    more than MAX_DIAGRAM_WEIGHTS weights in all before the fold.  Past level
    2 * fusion.MAX_SIMPLES the refusal is at once, naming the lower bound
    k // min(comark) + 1, the weights on a node of least comark: every type
    has a node of comark at most 2, so the bound already passes the limit.
    """
    if k < 1:
        raise ValueError(f"level must be >= 1, got {k}")
    name = f"{spec} at level {k}"
    if k > 2 * fusion.MAX_SIMPLES:
        raise fusion.TooLargeError(
            f"{name} has at least {k // min(spec.comark) + 1} simple objects, "
            f"more than the limit of {fusion.MAX_SIMPLES}")
    fusion.check_size(lie.alcove_size(spec, k), name)
    weights = lie.alcove_weights(spec, k)
    dims = [lie.weyl_dimension(spec, w) for w in weights]
    size = sum(dims)
    if size > MAX_DIAGRAM_WEIGHTS:
        raise fusion.TooLargeError(f"{name} has weight diagrams of {size} weights in "
                                   f"all, more than the limit of {MAX_DIAGRAM_WEIGHTS}")
    table, _ = _orbit_fold(spec, k, weights, dims)
    unit = weights.index((0,) * spec.rank)
    # an a with no partner keeps itself, and validate's duality law refuses it
    partner = table[:, :, unit] != 0
    dual = np.where(partner.any(axis=1), partner.argmax(axis=1), np.arange(len(weights))).tolist()
    ring = FusionRing._adopt(tuple(lie.weight_label(w) for w in weights), unit, dual, table)
    del table  # the ring's now, read-only, and no view of it is left

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


def _orbit_fold(spec: LieAlgebraSpec, k: int, weights: list[Weight], dims: list[int]):
    """The fusion table T[a, b, c] = N^c_{ab}, an (n, n, n) int64 array over the
    sorted alcove weights, and G, the group of fusion permutations of the
    simple currents found by the fold, as a list that starts with the identity.
    dims[a] is the Weyl dimension of weights[a].

    Each k Lambda_j of comark 1 not yet in G has its diagram folded against
    every weight (_fold_rows), and its permutation joins G when each product is
    one simple of multiplicity 1 and each simple is one product (E8, F4 and G2
    have no such node, and G stays trivial).  A candidate is then done.  Then
    the pairs of the orbit pass are listed: each b not yet done, taken in
    order of (dims[b], b), is paired with every a not yet done, and every
    member of b's orbit is then done.  So each orbit is paired once, by its
    first member in that order, with every orbit that comes after it: the
    smaller diagram of each pair, up to the orbit.  All those pairs are folded
    in one _fold_rows pass, and as soon as a chunk is folded its rows fill the
    columns of b's orbit by the column action and the swap, T[a, Kb, Kc] =
    T[Kb, a, Kc] = N_{ab}^c, in one scatter per K in G, so that what the fold
    holds at once stays within the chunk budget (J. Fuchs, Simple WZW
    currents, Commun. Math. Phys. 136, 1991).  validate checks the table.
    """
    n = len(weights)
    index = _alcove_index(spec, k)
    unit = weights.index((0,) * spec.rank)
    table = np.zeros((n, n, n), dtype=np.int64)
    flat = table.reshape(-1)
    done = np.zeros(n, dtype=bool)
    generators = [tuple(range(n))]
    group = generators
    for j in range(spec.rank):
        if spec.comark[j] != 1:
            continue
        g = weights.index(tuple(k * (i == j) for i in range(spec.rank)))
        if any(perm[unit] == g for perm in group):
            continue
        for a, b, prod in _fold_rows(spec, k, weights, index, [(g, np.arange(n))]):
            table[a, b] = table[b, a] = prod
        row = table[g]  # [x, c] = N^c_{g x}
        done[g] = True
        if (row.sum(axis=0) == 1).all() and (row.sum(axis=1) == 1).all():
            generators.append(tuple(row.argmax(axis=1).tolist()))
            group = groups.close_under_composition(generators)
    perms = np.array(group)
    pairs = []
    for b in sorted(range(n), key=lambda x: (dims[x], x)):
        if not done[b]:
            pairs.append((b, np.flatnonzero(~done)))
            done[perms[:, b]] = True
    for a, b, prod in _fold_rows(spec, k, weights, index, pairs):
        table[a, b] = table[b, a] = prod  # group[0], the identity, moves whole rows
        a, b = a[:, None], b[:, None]
        for K in perms[1:]:
            flat[(a * n + K[b]) * n + K] = flat[(K[b] * n + a) * n + K] = prod
    return table, group


def _fold_rows(spec: LieAlgebraSpec, k: int, weights: list[Weight], index, pairs):
    """N^c_{ab} over every c for each a of each (b, rows) in ``pairs``, a chunk
    at a time (_chunks): for each chunk, (a, b, prod), where a and b are int64
    arrays of its rows' a and b in that order and prod[i, c] = N^c_{a_i b_i}
    (Kac-Walton, as lie.fusion_with_second_diagram, in arrays).  Each point
    lambda_a + rho + nu, for nu in b's weight diagram, in affine labels, is
    reflected in each negative label in turn, label by label, its sign flipped
    each time, until none is left; a point left with a zero label cancels, and
    the rest are summed at their alcove weight.  Any order of reflections in
    negative labels ends at the same alcove point, and a point off the walls
    is taken there by one affine Weyl element only, so the sign is that of
    lie._chamber, which takes the first negative label each time.  The points
    are made by broadcasting each diagram over its rows, a point a column, so
    that each test over a point's labels runs along whole rows; each chunk
    has one reflection loop and one sum.  ArithmeticError on a negative sum,
    naming the first such row in the order of ``pairs``, before its chunk is
    yielded.  index maps labels to alcove positions (_alcove_index).
    """
    n, r = len(weights), spec.rank
    comark = np.array(spec.comark, dtype=np.int64)
    columns = np.array(spec.extended, dtype=np.int64)[:, :, None]
    shifted = np.array(weights, dtype=np.int64).reshape(n, r) + 1
    shifted = np.column_stack([shifted, k + spec.dual_coxeter - shifted @ comark])
    for chunk in _chunks(spec, weights, pairs):
        size = [len(nu) for _, _, nu, _ in chunk]
        count = [len(a) for _, a, _, _ in chunk]
        point = np.empty((r + 1, np.dot(size, count)), dtype=np.int64)  # a point a column
        sign = np.empty(point.shape[1], dtype=np.int64)
        at = 0
        for _, a, nu, mult in chunk:
            end = at + len(a) * len(nu)
            np.add(shifted[a].T[:, :, None], nu.T[:, None, :],
                   out=point[:, at:end].reshape(r + 1, len(a), len(nu)))
            sign[at:end].reshape(len(a), len(nu))[:] = mult
            at = end
        live = np.flatnonzero((point < 0).any(axis=0))
        while live.size:
            sub, flip = point[:, live], sign[live]
            for j, column in enumerate(columns):  # each negative label in turn
                low = np.minimum(sub[j], 0)
                sub -= column * low
                flip[low < 0] *= -1
            point[:, live], sign[live] = sub, flip
            live = live[(sub < 0).any(axis=0)]
        keep = np.flatnonzero(point.min(axis=0) > 0)
        rows = sum(count)
        owner = np.repeat(np.arange(rows), np.repeat(size, count))  # the row of each point
        cell = owner[keep] * n + index(point[:r, keep].T - 1)
        # each cell sums at most dim(b) <= MAX_DIAGRAM_WEIGHTS < 2^53 in absolute
        # value, so bincount's float64 sums are exact
        prod = np.bincount(cell, weights=sign[keep], minlength=rows * n)
        prod = prod.astype(np.int64).reshape(rows, n)
        for row in prod[(prod < 0).any(axis=1)][:1]:
            bad = {weights[c]: int(row[c]) for c in np.flatnonzero(row < 0)}
            raise ArithmeticError(f"negative fusion multiplicity at {bad}")
        b = np.repeat([b for b, _, _, _ in chunk], count)
        yield np.concatenate([a for _, a, _, _ in chunk]), b, prod


def _chunks(spec: LieAlgebraSpec, weights: list[Weight], pairs):
    """The pieces (b, a, nu, mult) of _fold_rows's points, in lists of at most
    fusion.CHUNK_BYTES of int64 points, r + 1 words each, and as many of
    rows of the table, n words each: a holds some rows of b's pair, nu b's
    weight diagram in affine labels and mult its multiplicities.  A list is
    closed when the next row does not fit, so a pair's rows are split where a
    list fills, and a row wider than the budget is a list of its own.
    """
    n, r = len(weights), spec.rank
    comark = np.array(spec.comark, dtype=np.int64)
    cap = fusion.CHUNK_BYTES // 8  # int64 words of points, and of rows, a list holds
    chunk, room, slots = [], cap, cap
    for b, rows in pairs:
        diagram = lie.weight_multiplicities(spec, weights[b])
        nu = np.array(list(diagram), dtype=np.int64).reshape(len(diagram), r)
        nu = np.column_stack([nu, -(nu @ comark)])
        mult = np.fromiter(diagram.values(), dtype=np.int64, count=len(nu))
        width = (r + 1) * len(nu)  # the words of one row's points
        rows = np.asarray(rows, dtype=np.int64)
        while len(rows):
            if (room < width or slots < n) and chunk:
                yield chunk
                chunk, room, slots = [], cap, cap
            take = max(1, min(len(rows), room // width, slots // n))
            chunk.append((b, rows[:take], nu, mult))
            room -= take * width
            slots -= take * n
            rows = rows[take:]
    if chunk:
        yield chunk


def _alcove_index(spec: LieAlgebraSpec, k: int):
    """The function taking an (m, rank) int64 array of alcove weights to their
    positions among the sorted alcove weights, with no number above their count.

    The weights before lambda are, for each i, those that agree with it on the
    labels before i and have a smaller label i: skip[i][b, x] counts them for
    lambda_i = x with level b left, from tail[b], the count of the labels after
    i of level at most b (as in lie.alcove_size).
    """
    levels = np.arange(k + 1)
    tail = np.ones(k + 1, dtype=np.int64)
    skip = []
    for c in reversed(spec.comark):
        left = levels[:, None] - c * levels[None, :]  # [b, x]
        counts = np.where(left >= 0, tail[np.maximum(left, 0)], 0)
        skip.append(np.cumsum(counts, axis=1) - counts)
        tail = counts.sum(axis=1)
    skip.reverse()

    def index(labels):
        out = np.zeros(len(labels), dtype=np.int64)
        left = np.full(len(labels), k)
        for i, c in enumerate(spec.comark):
            out += skip[i][left, labels[:, i]]
            left -= c * labels[:, i]
        return out
    return index


# ---------------------------------------------------------------------------
# braiding scalars derived from twists


def monodromy(data: ModularCategoryData, g: int, x: int) -> RationalAngle:
    """Scalar of the double braiding of an invertible g with a simple x.

    Valid because g (x) x is simple, so the ribbon identity collapses to
    twist(g (x) x) - twist(g) - twist(x), taken in integers over the twists'
    common denominator.
    """
    den, turns = _turns(data.twist)
    perm = fusion.fuse_permutation(data.ring, g)
    return RationalAngle(_monodromy_turns(np.array([perm]), den, turns, [g])[0, x], den)


def _turns(twist: tuple[RationalAngle, ...]) -> tuple[int, np.ndarray]:
    """(den, turns): every twist as turns[x] / den over den = lcm of the twist
    denominators, an object array of Python ints, so exact at any size."""
    den = lcm(*(t.den for t in twist))
    return den, np.array([t.num * (den // t.den) for t in twist], dtype=object)


def _monodromy_turns(perms: np.ndarray, den: int, turns: np.ndarray, gs) -> np.ndarray:
    """V[i, x] in [0, den) with monodromy(gs[i], x) = V[i, x] / den, from perms,
    the (k, n) fusion permutations of the k invertibles gs, and the twists as
    turns over den (see _turns), int64 only while 2 * den < 2^63 so that no
    difference overflows: the one twist difference of the package."""
    return (turns[perms] - turns[gs][:, None] - turns) % den


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
