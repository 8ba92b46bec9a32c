"""Abstract fusion rings: axioms, invertible objects, and ring automorphisms.

A ring is a finite list of simple-object labels, a distinguished unit, a dual
involution, and one read-only int64 table of the fusion rules N^c_{ab}.  All
arithmetic is exact.  Associativity is checked for the simples of a
generating set only, whose products span the ring: the left nucleus, the a
with (ab)c = a(bc) for all b and c, is closed under products (the Teichmüller
identity; R. D. Schafer, An Introduction to Nonassociative Algebras, 1966,
ch. II).  Each simple takes two float64 matrix products in a few n^3 arrays,
exact while n * max(N)^2 < 2^53, which is checked first.  A ring may have at
most MAX_SIMPLES simples, so that the table and the check fit in memory;
larger inputs are refused with TooLargeError before any work.
"""

from __future__ import annotations

from collections.abc import Mapping
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from types import MappingProxyType

import numpy as np


#: Largest simple count of a ring.  The table and the associativity check hold
#: about four n^3 arrays of 8-byte numbers (the int64 table, its float64 copy
#: and two products): 32 n^3 bytes, 2.05 GB at n = 400, under a third of a
#: 7 GB machine.  Each simple of the generating set costs 2 n^4 flops, so A3
#: at level 8 (165 simples, about 150 MB, two generators) is checked in well
#: under a second.
MAX_SIMPLES = 400

#: Largest int64 array of shifted points, and of fusion table rows, in one
#: chunk of a build's Kac-Walton fold (modular._chunks).  Every row of the
#: orbit pass is folded in one pass of such chunks, each written into the
#: table before the next is made: a chunk holds the rows of several weight
#: diagrams or some rows of one, and a row wider than the budget is a chunk of
#: its own (C3 at level 7 folds the 18,810 weights of 7 L2, 602 KB of points,
#: a row at a time, not in one 72 MB array).  The fold's temporaries are a
#: small multiple of a chunk, so at 256 KB they stay in a core's L2 cache: on
#: a 2-core Xeon with 2 MB of L2 a core, 4 MB chunks made the fold of A2 at
#: level 25, C3 at level 7 and G2 at level 15 19-45% slower.
FOLD_CHUNK_BYTES = 2 ** 18

#: Float64 holds every integer below this exactly.
EXACT_FLOAT_LIMIT = 2 ** 53

#: The prime of ``generating_set``'s span, the largest below 2^26: a dot
#: product of two length-n vectors reduced mod it stays below n * p^2 < 2^63,
#: in int64, for n <= MAX_SIMPLES.
SPAN_PRIME = 67_108_859


class NotInvertibleError(ValueError):
    """An operation that requires an invertible object got a non-invertible one."""


class TooLargeError(ValueError):
    """A ring too large for the exact, bounded-memory axiom check."""


def check_size(n: int, what: str) -> None:
    """Raise TooLargeError, naming ``what``, n and the limit, if n > MAX_SIMPLES."""
    if n > MAX_SIMPLES:
        raise TooLargeError(f"{what} has {n} simple objects, more than the limit "
                            f"of {MAX_SIMPLES}")


def is_int(x) -> bool:
    """A Python or numpy integer; a bool, like any other subclass of int, is not one."""
    return type(x) is int or isinstance(x, np.integer)


def _check_entry(a, b, c, m, n: int) -> None:
    """ValueError naming (a, b, c) unless a, b, c are in range(n) and m is an
    integer within int64."""
    if not all(map(is_int, (a, b, c))):
        raise ValueError(f"fusion key (a, b, c) = ({a!r}, {b!r}, {c!r}) must be integers")
    if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
        raise ValueError(f"fusion key (a, b, c) = ({a}, {b}, {c}) is outside [0, {n})")
    if not is_int(m):
        raise ValueError(f"fusion multiplicity at (a, b, c) = ({a}, {b}, {c}) "
                         f"must be an integer, got {m!r}")
    if not -2 ** 63 <= m < 2 ** 63:
        raise ValueError(f"fusion multiplicity at (a, b, c) = ({a}, {b}, {c}) "
                         f"must fit in int64, got {m}")


def _increasing(keys: np.ndarray) -> bool:
    """Whether the rows (a, b, c) of keys strictly increase in lexicographic order."""
    (a0, b0, c0), (a1, b1, c1) = keys[:-1].T, keys[1:].T
    return bool(((a1 > a0) | (a1 == a0) & ((b1 > b0) | (b1 == b0) & (c1 > c0))).all())


def _of_four(row) -> bool:
    """Whether row has a length, and it is 4."""
    try:
        return len(row) == 4
    except TypeError:
        return False


def _entry_array(entries, n: int) -> np.ndarray:
    """The fusion entries, an (m, 4) int64 array or a sequence of rows
    [a, b, c, N], as an (m, 4) int64 array.  A row without a length, or of
    another length than 4, is refused first, naming the first such row and
    its index.  Then bulk tests: no N is 0, no (a, b, c) repeats (each key
    against its neighbour, after a lexsort only when the keys are not sorted)
    and every key lies in [0, n).  Only when one fails, or a value is not an
    int64 integer, are the rows scanned: first for the first zero or repeat in
    row order, a zero named before a repeat within a row, then by
    ``_check_entry``; each refusal is a ValueError."""
    q = None
    if isinstance(entries, np.ndarray):
        if entries.dtype != np.int64 or entries.shape[1:] != (4,):
            raise ValueError(f"fusion table must be an int64 array of shape "
                             f"{(n,) * 3}, got {entries.dtype} of shape {entries.shape}")
        q = entries
    elif not all(map(_of_four, entries)):
        i, row = next((i, row) for i, row in enumerate(entries) if not _of_four(row))
        raise ValueError(f"fusion row {i} must be a sequence [a, b, c, N] of four "
                         f"values, got {row!r}")
    elif set(map(type, chain.from_iterable(entries))) <= {int}:
        with suppress(OverflowError):
            q = np.fromiter(chain.from_iterable(entries), np.int64,
                            4 * len(entries)).reshape(-1, 4)
    if q is not None:
        keys = q[:, :3]
        if (q[:, 3].all()
                and (_increasing(keys) or _increasing(keys[np.lexsort(keys.T[::-1])]))
                and not ((keys < 0) | (keys >= n)).any()):
            return q
        entries = q.tolist()
    seen = set()
    for a, b, c, m in entries:
        if is_int(m) and m == 0:
            raise ValueError(f"zero fusion entry for ({a},{b},{c})")
        if (a, b, c) in seen:
            raise ValueError(f"duplicate fusion entry for ({a},{b},{c})")
        seen.add((a, b, c))
    for entry in entries:
        _check_entry(*entry, n)
    return np.array(entries, dtype=np.int64).reshape(-1, 4)  # numpy integers


@dataclass(frozen=True, eq=False, init=False)
class FusionRing:
    """A frozen fusion ring over an ordered set of simple objects.

    Built from ``tensor`` in one of two forms: entry rows [a, b, c, N^c_{ab}],
    an (m, 4) int64 array or a sequence of rows (a file's quads; a sparse dict
    {(a, b): {c: N^c_{ab}}} is flattened into rows, its integer 0 read as no
    entry), or an int64 table T[a, b, c] = N^c_{ab} of shape (n, n, n).  It is
    kept only as the read-only int64 ``table``, which no caller holds (a table
    is copied, entries are written into a new one), so every query is
    read-only and thread-safe.  Rings are equal when labels, unit, dual and
    table are.  More than MAX_SIMPLES simples raise TooLargeError.  This is the
    one check of each fusion entry (``_entry_array``): a refusal is a
    ValueError naming the first zero N or repeated (a, b, c) in the order
    given, else the first key or multiplicity that is not an integer (a bool
    excluded) within int64 with its key in [0, n).  Any other array (bool and
    float included) raises ValueError naming its dtype and shape.  Negative
    multiplicities are kept, for axiom_violation to report.
    """

    simples: tuple[str, ...]
    unit_index: int
    dual: tuple[int, ...]
    table: np.ndarray = field(init=False, repr=False)

    def __init__(self, simples, unit_index: int, dual, tensor):
        n = len(simples)
        check_size(n, "fusion ring")
        if isinstance(tensor, np.ndarray) and tensor.dtype == np.int64 and tensor.shape == (n,) * 3:
            table = tensor.copy()
        else:
            if isinstance(tensor, Mapping):
                tensor = [(a, b, c, m) for (a, b), fiber in tensor.items()
                          for c, m in fiber.items() if not is_int(m) or m != 0]
            quads = _entry_array(tensor, n)
            table = np.zeros((n,) * 3, dtype=np.int64)
            table[tuple(quads[:, :3].T)] = quads[:, 3]
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
        g (x) g* contains the unit once; its permutation then needs each
        g (x) X to be a single simple, else ValueError names the first such g.
        One array pass for every g at once.
        """
        n = self.size
        t = self.table
        g = np.flatnonzero(t.sum(axis=(1, 2)) == n)
        g = g[t[g, np.take(self.dual, g), self.unit_index] == 1]
        nonzero = t[g] != 0
        bad = (nonzero.sum(axis=2) != 1).any(axis=1)
        if bad.any():
            raise ValueError(f"fusion by {self.simples[g[bad.argmax()]]} is not a permutation")
        return MappingProxyType(dict(zip(g.tolist(), map(tuple, nonzero.argmax(axis=2).tolist()))))

    def index(self, label: str) -> int:
        try:
            return self.simples.index(label)
        except ValueError:
            raise KeyError(f"no simple object labelled {label!r}") from None


def axiom_violation(ring: FusionRing) -> str | None:
    """First violated fusion-ring identity, or None when all axioms hold.

    Associativity, sum_e N^e_{ab} N^d_{ec} = sum_f N^f_{bc} N^d_{af}, is
    checked one a at a time as two float64 matrix products of n^3 entries each,
    so the check needs a few n^3 arrays (the ring has at most MAX_SIMPLES
    simples).  Only the a of ``generating_set`` are compared: when they pass,
    the left nucleus holds every product of them, so all of the ring.  Every
    partial sum is an integer of at most n * max(N)^2, so the products are
    exact when n * max(N)^2 < 2^53; a ring that breaks this bound raises
    TooLargeError naming n, max(N) and the bound.  On a failure every a is
    compared, and the message names the first (a, b, c, d) in lexicographic
    order.
    """
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
    eye = np.eye(n, dtype=np.int64)
    unit = np.argwhere((t[:, u, :] != eye) | (t[u, :, :] != eye))  # [a, c]
    if len(unit):
        a, c = map(int, unit[0])
        if t[a, u, c] != (a == c):
            return f"right unit law fails: N^{c}_{{{a},unit}} = {t[a, u, c]}"
        return f"left unit law fails: N^{c}_{{unit,{a}}} = {t[u, a, c]}"
    dual = np.argwhere(t[:, :, u] != eye[list(ring.dual)])  # [a, b]: b = a* has 1
    if len(dual):
        a, b = map(int, dual[0])
        return f"duality fails: N^unit_{{{a},{b}}} = {t[a, b, u]}"
    top = int(t.max())
    if n * top * top >= EXACT_FLOAT_LIMIT:
        raise TooLargeError(
            f"associativity check is exact only while n * max(N)^2 < 2^53 = "
            f"{EXACT_FLOAT_LIMIT}: n = {n}, max(N) = {top}, n * max(N)^2 = {n * top * top}")
    f = t.astype(np.float64)
    if _associativity_failure(f, generating_set(ring)) is None:
        return None
    return _associativity_failure(f, range(n))  # names the first (a, b, c, d)


def generating_set(ring: FusionRing) -> list[int]:
    """The simples x, in index order, whose e_x lies outside the span of the
    products of the unit by the earlier ones.

    The span is the closure of e_unit under left multiplication by each x
    taken, kept as a reduced echelon form mod SPAN_PRIME in the first r rows
    of one (n, n) array, each row 1 on its pivot column and 0 on the others'.
    So e_x lies in the span exactly when x is a pivot whose row is e_x.  Each
    row is multiplied as it stands when its turn comes: the rows multiplied by
    any one x are unit triangular on the pivots, so they are a basis of the
    final span, and none is multiplied once the span is all of F_p^n.  Under
    the right unit law, N^c_{x,unit} = [x = c], each x taken puts e_x in it,
    so the span ends as all of F_p^n, and the products of the set have rank n
    over Q.
    """
    n, p = ring.size, SPAN_PRIME
    basis = np.zeros((n, n), dtype=np.int64)
    pivots = np.zeros(n, dtype=np.intp)  # the pivot column of each row
    row = np.full(n, -1)                 # the row of each pivot column
    r = 0
    gens, left = [], []

    def add(v):
        nonlocal r
        v = (v - v[pivots[:r]] @ basis[:r]) % p
        (nonzero,) = v.nonzero()
        if nonzero.size:
            q = int(nonzero[0])
            v = v * pow(int(v[q]), -1, p) % p
            basis[:r] -= basis[:r, q, None] * v
            basis[:r] %= p
            basis[r], pivots[r], row[q] = v, q, r
            r += 1

    add(np.eye(n, dtype=np.int64)[ring.unit_index])
    for x in range(n):
        if r == n:
            break
        if row[x] >= 0 and np.count_nonzero(basis[row[x]]) == 1:
            continue
        gens.append(x)
        left.append(ring.table[x] % p)
        closed = r  # rows closed under the earlier generators
        for i in range(closed):
            add(basis[i] @ left[-1] % p)
        i = closed
        while i < r < n:  # each new row, times every generator
            for m in left:
                add(basis[i] @ m % p)
            i += 1
    return gens


def _associativity_failure(f: np.ndarray, simples) -> str | None:
    """The first a in ``simples`` with (ab)c != a(bc) for some b, c, named with
    the first such (b, c, d), from the float64 table f; None if there is none."""
    n = len(f)
    by_e, by_f = f.reshape(n, n * n), f.reshape(n * n, n)
    for a in simples:
        lhs = (f[a] @ by_e).reshape(n, n, n)  # [b, c, d] = sum_e N^e_{ab} N^d_{ec}
        rhs = (by_f @ f[a]).reshape(n, n, n)  # [b, c, d] = sum_f N^f_{bc} N^d_{af}
        if not np.array_equal(lhs, rhs):
            b, c, d = map(int, np.argwhere(lhs != rhs)[0])
            return (f"associativity fails at (a,b,c,d)=({a},{b},{c},{d}): "
                    f"{int(lhs[b, c, d])} != {int(rhs[b, c, d])}")
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
