"""Abstract fusion rings: axioms, invertible objects, and ring automorphisms.

A ring is a finite list of simple-object labels, a distinguished unit, a dual
involution, and one read-only int64 table of the fusion rules N^c_{ab}.  All
arithmetic is exact; numpy vectorises the checks, in int64 throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import lcm
from types import MappingProxyType

import numpy as np


class NotInvertibleError(ValueError):
    """An operation that requires an invertible object got a non-invertible one."""


@dataclass(frozen=True, eq=False, init=False)
class FusionRing:
    """A frozen fusion ring over an ordered set of simple objects.

    Built from a sparse ``tensor`` {(a, b): {c: N^c_{ab}}} and kept only as the
    read-only int64 ``table`` T[a, b, c] = N^c_{ab}, so every query is read-only
    and thread-safe.  Rings are equal when labels, unit, dual and table are.
    """

    simples: tuple[str, ...]
    unit_index: int
    dual: tuple[int, ...]
    table: np.ndarray = field(init=False, repr=False)

    def __init__(self, simples, unit_index: int, dual, tensor: dict):
        table = np.zeros((len(simples),) * 3, dtype=np.int64)
        for (a, b), fiber in tensor.items():
            for c, m in fiber.items():
                table[a, b, c] = m
        table.setflags(write=False)
        object.__setattr__(self, "simples", tuple(simples))
        object.__setattr__(self, "unit_index", unit_index)
        object.__setattr__(self, "dual", tuple(dual))
        object.__setattr__(self, "table", table)

    def __eq__(self, other) -> bool:
        return other is self or (
            isinstance(other, FusionRing)
            and (self.simples, self.unit_index, self.dual)
            == (other.simples, other.unit_index, other.dual)
            and np.array_equal(self.table, other.table))

    @property
    def size(self) -> int:
        return len(self.simples)

    @property
    def tensor(self) -> dict[tuple[int, int], dict[int, int]]:
        """A new dict (a, b) -> {c: N^c_{ab}} of the nonzero entries of ``table``."""
        t = self.table
        out = {}
        for (a, b, c), m in zip(np.argwhere(t).tolist(), t[t != 0].tolist()):
            out.setdefault((a, b), {})[c] = m
        return out

    @cached_property
    def invertible_permutations(self) -> MappingProxyType[int, tuple[int, ...]]:
        """The permutation X -> g (x) X of each invertible simple g, keyed by g
        in index order (cached, read-only).

        g is invertible when the products g (x) X hold n simples in all and
        g (x) g* contains the unit once.
        """
        n = self.size
        t = self.table
        out = {}
        for g in range(n):
            if t[g].sum() == n and t[g, self.dual[g], self.unit_index] == 1:
                rows, cols = np.nonzero(t[g])
                if not np.array_equal(rows, np.arange(n)):
                    raise ValueError(f"fusion by {self.simples[g]} is not a permutation")
                out[g] = tuple(cols.tolist())
        return MappingProxyType(out)

    def index(self, label: str) -> int:
        try:
            return self.simples.index(label)
        except ValueError:
            raise KeyError(f"no simple object labelled {label!r}") from None


def axiom_violation(ring: FusionRing) -> str | None:
    """First violated fusion-ring identity, or None when all axioms hold."""
    n = ring.size
    u = ring.unit_index
    t = ring.table
    if not 0 <= u < n:
        return f"unit index {u} out of range"
    if sorted(ring.dual) != list(range(n)):
        return "dual is not a permutation of the simples"
    for a in range(n):
        if ring.dual[ring.dual[a]] != a:
            return f"dual involution fails at a={a}"
    if (t < 0).any():
        a, b, c = map(int, np.argwhere(t < 0)[0])
        return f"negative multiplicity N^{c}_{{{a},{b}}}"
    for a in range(n):
        for c in range(n):
            if t[a, u, c] != (a == c):
                return f"right unit law fails: N^{c}_{{{a},unit}} = {t[a, u, c]}"
            if t[u, a, c] != (a == c):
                return f"left unit law fails: N^{c}_{{unit,{a}}} = {t[u, a, c]}"
    for a in range(n):
        for b in range(n):
            if t[a, b, u] != (b == ring.dual[a]):
                return f"duality fails: N^unit_{{{a},{b}}} = {t[a, b, u]}"
    # Associativity: sum_e N^e_{ab} N^d_{ec} = sum_f N^f_{bc} N^d_{af}.
    lhs = np.einsum("abe,ecd->abcd", t, t)
    rhs = np.einsum("bcf,afd->abcd", t, t)
    if not (lhs == rhs).all():
        a, b, c, d = map(int, np.argwhere(lhs != rhs)[0])
        return (f"associativity fails at (a,b,c,d)=({a},{b},{c},{d}): "
                f"{lhs[a, b, c, d]} != {rhs[a, b, c, d]}")
    return None


def verify_axioms(ring: FusionRing) -> bool:
    """Whether the unit, duality, involution, and associativity axioms all hold."""
    return axiom_violation(ring) is None


def invertibles(ring: FusionRing) -> list[int]:
    """Indices of all invertible simples (fusion by them is a permutation)."""
    return list(ring.invertible_permutations)


def fuse_permutation(ring: FusionRing, g: int) -> tuple[int, ...]:
    """The permutation X -> g (x) X of an invertible g; NotInvertibleError otherwise."""
    perm = ring.invertible_permutations.get(g)
    if perm is None:
        raise NotInvertibleError(f"object {ring.simples[g] if 0 <= g < ring.size else g} "
                                 f"is not invertible")
    return perm


def invertible_order(ring: FusionRing, g: int) -> int:
    """Least M >= 1 with the M-th fusion power of g equal to the unit."""
    perm = fuse_permutation(ring, g)
    m = 1
    x = perm[ring.unit_index]
    while x != ring.unit_index:
        x = perm[x]
        m += 1
    return m


def invertible_group_exponent(ring: FusionRing) -> int:
    """lcm of the orders of all invertible objects."""
    return lcm(*(invertible_order(ring, g) for g in invertibles(ring)))


def is_ring_automorphism(ring: FusionRing, perm) -> bool:
    """Whether N^{perm(c)}_{perm(a) perm(b)} = N^c_{ab} for all a, b, c."""
    perm = tuple(perm)
    if sorted(perm) != list(range(ring.size)):
        raise ValueError("perm is not a bijection of the simples")
    if perm[ring.unit_index] != ring.unit_index:
        raise ValueError("perm does not fix the unit")
    p = np.array(perm)
    t = ring.table
    return bool((t[p][:, p][:, :, p] == t).all())
