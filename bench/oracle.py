"""Correctness checks for the benchmark, computed apart from the package.

Every check takes a program output (category data, a report) and returns a
list of failure messages; an empty list means the check passed.  The
reference values come from closed formulas, from a root system generated
here by simple reflections, or from properties the construction must have.
No check calls into ``simplecurrents``; the weight diagrams they inspect are
handed over by the caller.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, prod

import numpy as np

REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# root systems, built here from the Bourbaki Cartan matrices


def cartan_matrix(family: str, rank: int) -> list[list[int]]:
    """Bourbaki Cartan matrix a[i][j] = <alpha_j, alpha_i^vee> of A, B, C, D."""
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    chain = rank - 1 if family != "D" else rank - 2
    for i in range(chain):
        a[i][i + 1] = a[i + 1][i] = -1
    if family == "B":
        a[rank - 1][rank - 2] = -2  # last node short
    elif family == "C":
        a[rank - 2][rank - 1] = -2  # last node long
    elif family == "D":
        a[rank - 3][rank - 1] = a[rank - 1][rank - 3] = -1
    elif family != "A":
        raise ValueError(f"no reference Cartan matrix for family {family}")
    return a


class RootSystem:
    """Positive roots (simple-root coordinates) and squared simple-root lengths."""

    def __init__(self, family: str, rank: int):
        a = cartan_matrix(family, rank)
        self.rank = rank
        # |alpha_j|^2 / |alpha_i|^2 = a[i][j] / a[j][i] along every bond;
        # then rescale so long roots have squared length 2.
        length = [None] * rank
        length[0] = Fraction(1)
        todo = [0]
        while todo:
            i = todo.pop()
            for j in range(rank):
                if a[i][j] and length[j] is None:
                    length[j] = length[i] * Fraction(a[i][j], a[j][i])
                    todo.append(j)
        top = max(length)
        self.length = [2 * x / top for x in length]
        simple = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
        roots = set(simple)
        frontier = list(simple)
        while frontier:
            new = []
            for beta in frontier:
                for i in range(rank):
                    pair = sum(beta[j] * a[i][j] for j in range(rank))
                    image = tuple(b - pair * int(j == i) for j, b in enumerate(beta))
                    if all(x >= 0 for x in image) and any(image) and image not in roots:
                        roots.add(image)
                        new.append(image)
            frontier = new
        self.positive = sorted(roots)
        self.highest = max(self.positive, key=sum)
        # (Lambda_i, theta) for the long highest root: the alcove comarks.
        self.comark = [int(self.highest[i] * self.length[i] / 2) for i in range(rank)]

    def pairing(self, labels, beta) -> Fraction:
        """(lambda, beta) for a weight in Dynkin labels and a root in coordinates."""
        return sum(labels[i] * beta[i] * self.length[i] / 2 for i in range(self.rank))

    def weyl_dimension(self, labels) -> int:
        shifted = [x + 1 for x in labels]
        rho = [1] * self.rank
        dim = prod(self.pairing(shifted, b) / self.pairing(rho, b) for b in self.positive)
        assert dim.denominator == 1
        return int(dim)

    def alcove(self, level: int) -> list[tuple[int, ...]]:
        out = [()]
        for c in self.comark:
            out = [w + (x,) for w in out for x in range(level + 1)]
        return [w for w in out if sum(c * x for c, x in zip(self.comark, w)) <= level]


# ---------------------------------------------------------------------------
# helpers on program outputs


def dense_fusion(ring) -> np.ndarray:
    n = len(ring.simples)
    t = np.zeros((n, n, n), dtype=np.int64)
    for (a, b), fiber in ring.tensor.items():
        for c, m in fiber.items():
            t[a, b, c] = m
    return t


def invertible_objects(t: np.ndarray) -> list[int]:
    """Objects a for which every a (x) b is a single simple with multiplicity one."""
    return [a for a in range(t.shape[0])
            if (t[a].sum(axis=1) == 1).all() and (t[a].max(axis=1) == 1).all()]


def _fusion_perm(t: np.ndarray, g: int) -> list[int]:
    return [int(np.argmax(t[g, b])) for b in range(t.shape[0])]


def _order(t: np.ndarray, g: int, unit: int) -> int:
    perm = _fusion_perm(t, g)
    m, x = 1, perm[unit]
    while x != unit:
        x, m = perm[x], m + 1
    return m


def _angle(pair) -> Fraction:
    return Fraction(*pair) % 1


# ---------------------------------------------------------------------------
# checks on category data


def check_simple_count(family, rank, level, data, roots: RootSystem) -> list[str]:
    want = len(roots.alcove(level))
    out = []
    if family == "A" and want != comb(rank + level, level):
        out.append(f"alcove count {want} != C({rank + level}, {level})")
    if data.size != want:
        out.append(f"{family}{rank}-{level}: {data.size} simples, expected {want}")
    return out


def check_diagrams(data, diagram_of, roots: RootSystem) -> list[str]:
    """Each weight diagram's multiplicities sum to the Weyl dimension."""
    out = []
    for w in data.weights:
        total = sum(diagram_of(w).values())
        want = roots.weyl_dimension(w)
        if total != want:
            out.append(f"diagram of {w} has {total} weights, Weyl dimension {want}")
    return out


def check_ring(data) -> list[str]:
    """Frobenius reciprocity and d_a d_b = sum_c N_ab^c d_c."""
    ring = data.ring
    t = dense_fusion(ring)
    dual = np.array(ring.dual)
    out = []
    # N_ab^c = N_{a c*}^{b*}
    if not (t == t[:, dual][:, :, dual].transpose(0, 2, 1)).all():
        a, b, c = np.argwhere(t != t[:, dual][:, :, dual].transpose(0, 2, 1))[0]
        out.append(f"Frobenius reciprocity fails at (a,b,c)=({a},{b},{c})")
    d = np.array(data.qdim, dtype=float)
    lhs = np.outer(d, d)
    rhs = t.astype(float) @ d
    err = np.abs(lhs - rhs) > REL_TOL * np.abs(lhs)
    if err.any():
        a, b = np.argwhere(err)[0]
        out.append(f"d_a d_b = {lhs[a, b]} but sum_c N d_c = {rhs[a, b]} at ({a},{b})")
    return out


def check_su2(data, level: int) -> list[str]:
    """A1 level k: closed-form su(2)_k fusion rules and twists a(a+2)/4(k+2)."""
    t = dense_fusion(data.ring)
    spin = [w[0] for w in data.weights]
    out = []
    for i, a in enumerate(spin):
        want = Fraction(a * (a + 2), 4 * (level + 2)) % 1
        if _angle(data.twist[i].pair) != want:
            out.append(f"twist of {a}L1 is {data.twist[i]}, expected {want}")
        for j, b in enumerate(spin):
            for m, c in enumerate(spin):
                n = int(abs(a - b) <= c <= min(a + b, 2 * level - a - b)
                        and (a + b + c) % 2 == 0)
                if t[i, j, m] != n:
                    out.append(f"N_({a},{b})^{c} = {t[i, j, m]}, expected {n}")
    return out


def check_a_currents(data, rank: int, level: int) -> list[str]:
    """A_r level k: the invertibles are k*Lambda_j with twist k j (r+1-j) / 2(r+1)."""
    t = dense_fusion(data.ring)
    weights = data.weights
    if weights is None:
        from_labels = {s: i for i, s in enumerate(data.ring.simples)}
        index = {j: from_labels[_current_label(rank, level, j)] for j in range(rank + 1)}
    else:
        at = {w: i for i, w in enumerate(weights)}
        index = {j: at[tuple(level * int(i == j - 1) for i in range(rank))]
                 for j in range(rank + 1)}
    out = []
    if sorted(invertible_objects(t)) != sorted(index.values()):
        out.append(f"invertibles {invertible_objects(t)} are not the currents {index}")
    for j, i in index.items():
        want = Fraction(level * j * (rank + 1 - j), 2 * (rank + 1)) % 1
        if _angle(data.twist[i].pair) != want:
            out.append(f"current {data.ring.simples[i]} has twist {data.twist[i]}, "
                       f"expected {want}")
    return out


def _current_label(rank, level, j):
    if j == 0:
        return "0"
    return f"L{j}" if level == 1 else f"{level}L{j}"


def check_payload(data, payload: dict) -> list[str]:
    """The loaded category equals the payload that was written."""
    ring = data.ring
    got = {
        "simples": list(ring.simples),
        "dual": list(ring.dual),
        "fusion": sorted([a, b, c, m] for (a, b), fib in ring.tensor.items()
                         for c, m in fib.items()),
        "twists": [list(t.pair) for t in data.twist],
        "qdims": list(data.qdim),
    }
    return [f"loaded {key} differ from the written file"
            for key, value in got.items() if value != payload[key]]


# ---------------------------------------------------------------------------
# checks on the report


def expected_pairs(data) -> set[tuple[int, tuple[int, int]]]:
    """(g, zeta) from the definitions: M, q^2 = theta_g^2, A = M / ord(q^2),
    gcd(A+1, M) = 1, zeta primitive of order M with zeta^A = q^2."""
    t = dense_fusion(data.ring)
    unit = data.ring.unit_index
    out = set()
    for g in invertible_objects(t):
        m = _order(t, g, unit)
        q2 = 2 * _angle(data.twist[g].pair) % 1
        if m % q2.denominator:
            continue
        a = m // q2.denominator
        if gcd(a + 1, m) != 1:
            continue
        for c in range(m):
            zeta = Fraction(c, m)
            if gcd(c, m) == 1 and a * zeta % 1 == q2:
                out.add((g, (zeta.numerator, zeta.denominator)))
    return out


def check_profiles(data, report) -> list[str]:
    """Profile and gate of every non-trivial invertible, from the definitions."""
    t = dense_fusion(data.ring)
    unit = data.ring.unit_index
    out = []
    if sorted(report.profiles) != [g for g in invertible_objects(t) if g != unit]:
        out.append(f"profiled {sorted(report.profiles)}, not every non-trivial invertible")
    for g, (p, gate) in report.profiles.items():
        m = _order(t, g, unit)
        q2 = 2 * _angle(data.twist[g].pair) % 1
        a = m // q2.denominator
        if ((p.M, p.A, _angle(p.q_squared.pair)) != (m, a, q2)
                or gate != (gcd(a + 1, m) == 1)):
            out.append(f"profile of {data.ring.simples[g]}: M={p.M} q^2={p.q_squared} "
                       f"A={p.A} gate={gate}, expected M={m} q^2={q2} A={a}")
    return out


def check_pairs(data, report) -> list[str]:
    got = {(ae.g, ae.zeta.pair) for ae in report.autoeqs}
    want = expected_pairs(data)
    if got != want:
        return [f"(g, zeta) pairs: extra {sorted(got - want)}, missing {sorted(want - got)}"]
    return []


def _power(perm, k):
    out = list(range(len(perm)))
    for _ in range(k):
        out = [perm[x] for x in out]
    return out


def check_autoeqs(data, report) -> list[str]:
    """Unit fixed, N preserved, twists preserved when braided, order bound."""
    t = dense_fusion(data.ring)
    n = data.size
    unit = data.ring.unit_index
    out = []
    for ae in report.autoeqs:
        name = f"F({data.ring.simples[ae.g]}, {ae.zeta})"
        perm = list(ae.permutation)
        if sorted(perm) != list(range(n)):
            out.append(f"{name} is not a permutation")
            continue
        if perm[unit] != unit:
            out.append(f"{name} moves the unit")
        p = np.array(perm)
        image = np.empty_like(t)
        image[np.ix_(p, p, p)] = t
        if not (image == t).all():
            out.append(f"{name} does not preserve the fusion rules")
        if ae.braided and any(data.twist[perm[x]] != data.twist[x] for x in range(n)):
            out.append(f"braided {name} does not preserve twists")
        if _power(perm, ae.order_bound) != list(range(n)):
            out.append(f"{name} to the power {ae.order_bound} is not the identity")
    return out


def check_compositions(report) -> list[str]:
    aes = report.autoeqs
    for (i, j), perm in report.compositions.items():
        if list(perm) != [aes[i].permutation[x] for x in aes[j].permutation]:
            return [f"compose({i}, {j}) is not the composite permutation"]
    return []


def check_groups(report) -> list[str]:
    """Each generated group contains its generators and is closed."""
    out = []
    for gens, group in report.groups:
        elements = set(group.elements)
        if any(a.permutation not in elements for a in gens):
            out.append(f"group {group.iso_type} misses a generator")
        if any(tuple(x[i] for i in y) not in elements for x in elements for y in elements):
            out.append(f"group {group.iso_type} is not closed under composition")
    return out


def check_commute(report) -> list[str]:
    """Pairs accepted by commute_test commute as permutations."""
    by_g: dict[int, list] = {}
    for ae in report.autoeqs:
        by_g.setdefault(ae.g, []).append(ae.permutation)
    out = []
    for (g, h), ok in report.commute.items():
        if not ok:
            continue
        for x in by_g.get(g, ()):
            for y in by_g.get(h, ()):
                if [x[i] for i in y] != [y[i] for i in x]:
                    out.append(f"commute_test accepts ({g}, {h}) but they do not commute")
    return out


# ---------------------------------------------------------------------------
# the paper's worked examples


def _moved(data, perm) -> dict[str, str]:
    s = data.ring.simples
    return {s[i]: s[x] for i, x in enumerate(perm) if i != x}


def _swaps(*pairs) -> dict[str, str]:
    return {**{a: b for a, b in pairs}, **{b: a for a, b in pairs}}


PAPER_EXAMPLES = {("A", 3, 2), ("A", 5, 2), ("D", 4, 2), ("A", 3, 4)}


def check_paper_facts(key, data, report) -> list[str]:
    """Facts the paper states for sl4-2, sl6-2, so8-2 and the sl4-4 control."""
    s = data.ring.simples
    ae = {(s[a.g], a.zeta.pair): a for a in report.autoeqs}
    prof = {s[g]: p for g, (p, _) in report.profiles.items()}
    gate = sorted(s[g] for g, (_, ok) in report.profiles.items() if ok)
    full = report.groups[-1][1]
    facts = []
    if key == ("A", 3, 2):
        p = prof["2L1"]
        facts = [
            ("10 simples", data.size == 10),
            ("2L1: M=4, q=-i, A=2", (p.M, p.q.pair, p.A) == (4, (3, 4), 2)),
            ("F(2L1,-i) swaps", _moved(data, ae["2L1", (3, 4)].permutation)
             == _swaps(("L1", "L1+L2"), ("2L1", "2L3"), ("L3", "L2+L3"))),
            ("F(2L1,i) is charge conjugation",
             ae["2L1", (1, 4)].permutation == data.ring.dual),
            ("F(2L1,i) braided, F(2L1,-i) not",
             ae["2L1", (1, 4)].braided and not ae["2L1", (3, 4)].braided),
            ("F(2L1,+-i) generate Z2 x Z2", any(
                g.iso_type == "Z2 x Z2" and {a.g for a in gens} == {s.index("2L1")}
                for gens, g in report.groups)),
        ]
    elif key == ("A", 5, 2):
        want = {"2L1": (6, (5, 6)), "2L2": (3, (1, 3)), "2L3": (2, (1, 2)),
                "2L4": (3, (1, 3)), "2L5": (6, (5, 6))}
        l1 = s.index("L1")
        f2, f3 = ae["2L2", (2, 3)], ae["2L3", (1, 2)]
        i2, i3 = report.autoeqs.index(f2), report.autoeqs.index(f3)
        facts = [
            ("21 simples", data.size == 21),
            ("orders and eigenvalues", {k: (p.M, p.q.pair) for k, p in prof.items()} == want),
            ("gate passes for 2L2, 2L3, 2L4", gate == ["2L2", "2L3", "2L4"]),
            ("F(2L2,2/3): L1 -> L2+L3", s[f2.permutation[l1]] == "L2+L3"),
            ("F(2L3,-1): L1 -> L3+L4, braided",
             s[f3.permutation[l1]] == "L3+L4" and f3.braided),
            ("composites send L1 to L5", s[report.compositions[i2, i3][l1]] == "L5"
             and s[report.compositions[i3, i2][l1]] == "L5"),
            ("group is Z2 x Z2", full.iso_type == "Z2 x Z2"),
        ]
    elif key == ("D", 4, 2):
        facts = [
            ("11 simples", data.size == 11),
            ("invertibles 2L1, 2L3, 2L4", sorted(prof) == ["2L1", "2L3", "2L4"]),
            ("order 2, q = 1", all(p.M == 2 and p.q.pair == (0, 1) for p in prof.values())),
            ("swap lists", [_moved(data, ae[x, (1, 2)].permutation) for x in
                            ("2L1", "2L3", "2L4")] == [
                _swaps(("L1+L3", "L4"), ("L3", "L1+L4")),
                _swaps(("L1+L3", "L4"), ("L1", "L3+L4")),
                _swaps(("L3", "L1+L4"), ("L1", "L3+L4"))]),
            ("none braided", not any(ae[x, (1, 2)].braided for x in prof)),
            ("group is Z2 x Z2", full.iso_type == "Z2 x Z2"),
        ]
    elif key == ("A", 3, 4):
        facts = [
            ("35 simples", data.size == 35),
            ("charge conjugation is non-trivial", data.ring.dual != tuple(range(35))),
            ("no auto-equivalence is charge conjugation",
             all(a.permutation != data.ring.dual for a in report.autoeqs)),
        ]
    return [f"{key}: {name}" for name, ok in facts if not ok]
