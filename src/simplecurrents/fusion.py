"""Abstract fusion rings: axioms, invertible objects, and ring automorphisms.

A ring is a finite list of simple-object labels, a distinguished unit, a dual
involution, and one read-only int64 table of the fusion rules N^c_{ab}.  All
arithmetic is exact.  Associativity is checked for the simples of a
generating set only, whose products span the ring: the left nucleus, the a
with (ab)c = a(bc) for all b and c, is closed under products (the Teichmüller
identity; R. D. Schafer, An Introduction to Nonassociative Algebras, 1966,
ch. II).  Each simple takes two float64 matrix products, exact while
n * max(N)^2 < 2^53, which is checked first.  The table is the one n^3 array:
the check, the invertible permutations and a saved file's quads read it in
slabs of at most CHUNK_BYTES.  A ring may have at most MAX_SIMPLES simples,
so that the table fits in memory; larger inputs are refused with
TooLargeError before any work.
"""

from __future__ import annotations

from collections.abc import Mapping
from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from types import MappingProxyType

import numpy as np


#: Largest simple count of a ring.  The int64 table is the one n^3 array a
#: ring, its build and its load hold: 8 n^3 bytes, 512 MB at n = 400, and each
#: pass over it (the associativity check, the invertible permutations, a
#: saved file's quads, the fold) adds a few slabs of at most CHUNK_BYTES.
#: Each simple of the generating set costs 2 n^4 flops, so A3 at level 8 (165
#: simples, two generators) is checked in well under a second.
MAX_SIMPLES = 400

#: The byte budget of every chunked pass.  The associativity check converts
#: the table to float64 a slab of c columns at a time, t[:, c0:c1, :], and
#: the invertible permutations and a saved file's quads read it a few rows
#: of a at a time, each slab at most this many bytes of the table (one column
#: or one row when that alone is larger).  A build's Kac-Walton fold
#: (modular._chunks) holds at most this many bytes of int64 shifted points,
#: and of table rows, in one chunk: a chunk holds the rows of several weight
#: diagrams or some rows of one, and a row wider than the budget is a chunk of
#: its own (C3 at level 7 folds the 18,810 weights of 7 L2, 602 KB of points,
#: a row at a time, not in one 72 MB array).  A pass's temporaries are a
#: small multiple of the budget, so at 256 KB they stay in a core's L2 cache:
#: on a 2-core Xeon with 2 MB of L2 a core, 4 MB chunks made the fold of A2 at
#: level 25, C3 at level 7 and G2 at level 15 19-45% slower, and the check of
#: A3 at level 8, C3 at level 7 and A2 at level 25 was no faster in one slab.
CHUNK_BYTES = 2 ** 18

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


def slab_width(n: int) -> int:
    """How many (n, n) slices of an (n, n, n) int64 table fit in CHUNK_BYTES,
    and at least 1."""
    return max(1, CHUNK_BYTES // (8 * n * n))


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


def _is_table(tensor, n: int) -> bool:
    """Whether tensor is an int64 array of shape (n, n, n)."""
    return isinstance(tensor, np.ndarray) and tensor.dtype == np.int64 and tensor.shape == (n,) * 3


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
    is copied, entries are written into a new one; only a build hands over
    its own table, see ``_adopt``), so every query is read-only and
    thread-safe.  Rings are equal when labels, unit, dual and table are.  More
    than MAX_SIMPLES simples raise TooLargeError.  This is the one check of
    each fusion entry (``_entry_array``): a refusal is a ValueError naming the
    first zero N or repeated (a, b, c) in the order given, else the first key
    or multiplicity that is not an integer (a bool excluded) within int64 with
    its key in [0, n).  Any other array (bool and float included) raises
    ValueError naming its dtype and shape.  Negative multiplicities are kept,
    for axiom_violation to report.
    """

    simples: tuple[str, ...]
    unit_index: int
    dual: tuple[int, ...]
    table: np.ndarray = field(init=False, repr=False)

    def __init__(self, simples, unit_index: int, dual, tensor):
        n = len(simples)
        check_size(n, "fusion ring")
        if _is_table(tensor, n):
            table = tensor.copy()
        else:
            if isinstance(tensor, Mapping):
                tensor = [(a, b, c, m) for (a, b), fiber in tensor.items()
                          for c, m in fiber.items() if not is_int(m) or m != 0]
            quads = _entry_array(tensor, n)
            table = np.zeros((n,) * 3, dtype=np.int64)
            table[tuple(quads[:, :3].T)] = quads[:, 3]
        self._freeze(simples, unit_index, dual, table)

    @classmethod
    def _adopt(cls, simples, unit_index: int, dual, table: np.ndarray) -> FusionRing:
        """The ring of ``table``, an (n, n, n) int64 array that owns its memory,
        kept without a copy and made read-only.  The caller gives the table up
        and holds no view of it, so no writeable view survives: a view made
        before would keep its own writeable flag, and it would hold a
        reference to the table.  Only build_wzw_data calls this, with the
        table of _orbit_fold, whose views end with the fold; the tests check
        that nothing but the ring refers to a built ring's table."""
        n = len(simples)
        check_size(n, "fusion ring")
        if not _is_table(table, n) or table.base is not None:
            raise ValueError("only an (n, n, n) int64 array that owns its memory is adopted")
        ring = cls.__new__(cls)
        ring._freeze(simples, unit_index, dual, table)
        return ring

    def _freeze(self, simples, unit_index: int, dual, table: np.ndarray) -> None:
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
        The candidates' rows are read from the table in slabs of slab_width(n)
        at a time, in index order.
        """
        n = self.size
        t = self.table
        g = np.flatnonzero(t.sum(axis=(1, 2)) == n)
        g = g[t[g, np.take(self.dual, g), self.unit_index] == 1]
        perms, width = [], slab_width(n)
        for start in range(0, len(g), width):
            some = g[start:start + width]
            nonzero = t[some] != 0
            bad = (nonzero.sum(axis=2) != 1).any(axis=1)
            if bad.any():
                raise ValueError(f"fusion by {self.simples[some[bad.argmax()]]} is not a permutation")
            perms += map(tuple, nonzero.argmax(axis=2).tolist())
        return MappingProxyType(dict(zip(g.tolist(), perms)))

    def index(self, label: str) -> int:
        try:
            return self.simples.index(label)
        except ValueError:
            raise KeyError(f"no simple object labelled {label!r}") from None


def axiom_violation(ring: FusionRing) -> str | None:
    """First violated fusion-ring identity, or None when all axioms hold.

    Associativity, sum_e N^e_{ab} N^d_{ec} = sum_f N^f_{bc} N^d_{af}, is
    checked as float64 matrix products over slabs of the table, so the check
    holds a few arrays of at most CHUNK_BYTES beside the int64 table (see
    _associativity_failure).  Only the a of ``generating_set`` are compared:
    when they pass, the left nucleus holds every product of them, so all of
    the ring.  Every partial sum is an integer of at most n * max(N)^2, so the
    products are exact when n * max(N)^2 < 2^53; a ring that breaks this bound
    raises TooLargeError naming n, max(N) and the bound.  On a failure every a
    is compared, and the message names the first (a, b, c, d) in
    lexicographic order.
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
    if t.min() < 0:
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
    if _associativity_failure(t, generating_set(ring)) is None:
        return None
    return _associativity_failure(t, range(n))  # names the first (a, b, c, d)


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


def _associativity_failure(t: np.ndarray, simples) -> str | None:
    """The first a in ``simples`` with (ab)c != a(bc) for some b, c, named with
    the least such (b, c, d), from the int64 table t; None if there is none.

    The c are taken in blocks of slab_width(n) columns: each float64 slab
    t[:, c0:c1, :] is converted once and serves every a, as the right factor
    of lhs[b, c, d] = sum_e N^e_{ab} N^d_{ec} and the left one of
    rhs[b, c, d] = sum_f N^f_{bc} N^d_{af}.  Once an a fails, the later
    slabs compare only it and the a before it, and the least (b, c, d) of the
    first failing a is kept over all slabs.
    """
    n = len(t)
    simples = list(simples)
    width = slab_width(n)
    first = None  # (position of a in simples, b, c, d, lhs, rhs)
    for c0 in range(0, n, width):
        slab = t[:, c0:c0 + width].astype(np.float64)
        by_e, by_f = slab.reshape(n, -1), slab.reshape(-1, n)
        for i, a in enumerate(simples[:len(simples) if first is None else first[0] + 1]):
            f = t[a].astype(np.float64)
            lhs = (f @ by_e).reshape(slab.shape)
            rhs = (by_f @ f).reshape(slab.shape)
            if not np.array_equal(lhs, rhs):
                b, c, d = map(int, np.argwhere(lhs != rhs)[0])
                found = (i, b, c0 + c, d, int(lhs[b, c, d]), int(rhs[b, c, d]))
                first = min(first or found, found)
                break  # a later a of this slab is named after this one
    if first is None:
        return None
    i, b, c, d, left, right = first
    return f"associativity fails at (a,b,c,d)=({simples[i]},{b},{c},{d}): {left} != {right}"


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
