"""Closure, multiplication tables, and isomorphism types of small permutation groups."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter

Perm = tuple[int, ...]


class ClosureCapExceededError(RuntimeError):
    """Closure under composition grew past the configured cap."""


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def compose_perms(p: Perm, q: Perm) -> Perm:
    """p after q: (p . q)(i) = p[q[i]]."""
    if len(q) > 1:
        return itemgetter(*q)(p)
    # itemgetter returns a bare item for one index and raises for none
    return tuple([p[x] for x in q])


def inverse_perm(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def perm_order(p: Perm) -> int:
    e = identity_perm(len(p))
    q = p
    m = 1
    while q != e:
        q = compose_perms(q, p)
        m += 1
    return m


def close_under_composition(perms: list[Perm], cap: int = 1024) -> list[Perm]:
    """Group generated by the given permutations, as a sorted element list
    (breadth-first from the identity, multiplying by generators on the left;
    a generator already in the group of the earlier ones is skipped).
    ValueError, naming the cap, unless cap >= 1; ClosureCapExceededError once
    the closure holds more than cap elements."""
    if cap < 1:
        raise ValueError(f"closure cap must be at least 1, got {cap}")
    if not perms:
        raise ValueError("need at least one generator")
    n = len(perms[0])
    if any(len(p) != n for p in perms):
        raise ValueError("generators act on different sets")
    queue = [identity_perm(n)]
    elements = set(queue)
    gens: list[Perm] = []

    def visit(s, p):
        r = compose_perms(s, p)
        if r not in elements:
            elements.add(r)
            queue.append(r)

    for s in perms:
        if s in elements:
            continue
        gens.append(s)
        i = len(queue)
        for p in queue[:i]:  # closed under the earlier generators: s only
            visit(s, p)
        while i < len(queue):  # each new element, times every generator
            if len(elements) > cap:
                raise ClosureCapExceededError(f"closure exceeded cap of {cap} elements")
            for t in gens:
                visit(t, queue[i])
            i += 1
    return sorted(elements)


def multiplication_table(elements: list[Perm]) -> tuple[tuple[int, ...], ...]:
    """table[i][j] = index of elements[i] . elements[j]; KeyError unless the
    list is closed.

    Each element not yet reached from the identity becomes a generator s, in
    index order, with act_s[j] = index of s . elements[j], each product looked
    up whole in a dict keyed by the tuples.  A breadth-first walk from the
    identity derives each row from its parent's, row(s . p) = act_s[row(p)],
    so the table costs len(elements) compositions per generator.  Every
    element is then a product of generators, so the list is closed once every
    act_s is found.
    """
    if not elements:
        return ()
    index = {p: i for i, p in enumerate(elements)}
    one = index[identity_perm(len(elements[0]))]
    table: list[tuple[int, ...] | None] = [None] * len(elements)
    table[one] = tuple(range(len(elements)))
    queue, acts = [one], []

    def visit(act, p):
        r = act[p]
        if table[r] is None:
            table[r] = compose_perms(act, table[p])
            queue.append(r)

    for s, perm in enumerate(elements):
        if table[s] is not None:
            continue
        acts.append(tuple([index[compose_perms(perm, e)] for e in elements]))
        i = len(queue)
        for p in queue[:i]:  # closed under the earlier generators: s only
            visit(acts[-1], p)
        while i < len(queue):  # each new element, times every generator
            for act in acts:
                visit(act, queue[i])
            i += 1
    return tuple(table)


# ---------------------------------------------------------------------------
# isomorphism type from a multiplication table


def _identity_of(table) -> int:
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            return e
    raise ValueError("table has no identity element")


def _element_orders(table, e: int) -> list[int]:
    """The order of each element, e the identity."""
    orders = []
    for a in range(len(table)):
        x = a
        m = 1
        while x != e:
            x = table[x][a]
            m += 1
        orders.append(m)
    return orders


def _abelian_summands(table) -> list[int]:
    """Cyclic invariant factors of an abelian group, largest first.

    An element of maximal order generates a direct summand, so we can split
    it off and recurse on the quotient (cosets stay well defined because
    everything is normal).
    """
    n = len(table)
    if n == 1:
        return []
    e = _identity_of(table)
    orders = _element_orders(table, e)
    a = max(range(n), key=lambda i: orders[i])
    sub = {e}
    x = a
    while x not in sub:
        sub.add(x)
        x = table[x][a]
    cosets: list[frozenset[int]] = []
    seen: set[int] = set()
    for g in range(n):
        if g in seen:
            continue
        cs = frozenset(table[g][h] for h in sub)
        seen |= cs
        cosets.append(cs)
    rep = {g: i for i, cs in enumerate(cosets) for g in cs}
    sample = [min(cs) for cs in cosets]
    qtable = tuple(tuple(rep[table[sample[i]][sample[j]]] for j in range(len(cosets)))
                   for i in range(len(cosets)))
    return [orders[a]] + _abelian_summands(qtable)


def _centre_summands(table) -> list[int]:
    """Cyclic invariant factors of the centre, largest first."""
    n = len(table)
    centre = [a for a in range(n) if all(table[a][x] == table[x][a] for x in range(n))]
    index = {a: i for i, a in enumerate(centre)}
    return _abelian_summands(tuple(tuple(index[table[a][b]] for b in centre)
                                   for a in centre))


# (order, element-order signature, centre's invariant factors) -> name
_NONABELIAN_BY_SIGNATURE = {
    (6, ((1, 1), (2, 3), (3, 2)), ()): "S3",
    (8, ((1, 1), (2, 5), (4, 2)), (2,)): "D4",
    (8, ((1, 1), (2, 1), (4, 6)), (2,)): "Q8",
    (10, ((1, 1), (2, 5), (5, 4)), ()): "D5",
    (12, ((1, 1), (2, 3), (3, 8)), ()): "A4",
    (12, ((1, 1), (2, 7), (3, 2), (6, 2)), (2,)): "D6",
    (12, ((1, 1), (2, 1), (3, 2), (4, 6), (6, 2)), (2,)): "Dic3",
    (14, ((1, 1), (2, 7), (7, 6)), ()): "D7",
    (16, ((1, 1), (2, 9), (4, 2), (8, 4)), (2,)): "D8",
    (16, ((1, 1), (2, 1), (4, 10), (8, 4)), (2,)): "Q16",
    (16, ((1, 1), (2, 5), (4, 6), (8, 4)), (2,)): "SD16",
    (16, ((1, 1), (2, 3), (4, 4), (8, 8)), (4,)): "M4(16)",
    (16, ((1, 1), (2, 11), (4, 4)), (2, 2)): "D4 x Z2",
    (16, ((1, 1), (2, 7), (4, 8)), (4,)): "D4 o Z4",
}


def isomorphism_type(table) -> str:
    """Readable isomorphism type for groups of order <= 16.

    Abelian groups are identified exactly (invariant factors); non-abelian
    ones by their element-order signature and centre, with a descriptive
    fallback where these do not single out a named group.
    """
    n = len(table)
    if n == 1:
        return "trivial"
    if all(tuple(row) == column for row, column in zip(table, zip(*table))):
        return " x ".join(f"Z{d}" for d in _abelian_summands(table))
    if n <= 16:
        orders = _element_orders(table, _identity_of(table))
        sig = (n, tuple(sorted(Counter(orders).items())),
               tuple(_centre_summands(table)))
        if sig in _NONABELIAN_BY_SIGNATURE:
            return _NONABELIAN_BY_SIGNATURE[sig]
        return f"non-abelian group of order {n}"
    return f"group of order {n}"


@dataclass(frozen=True)
class GroupReport:
    """A closed permutation group with its table and identified type."""

    elements: tuple[Perm, ...]
    table: tuple[tuple[int, ...], ...]
    iso_type: str
    caveat: str
