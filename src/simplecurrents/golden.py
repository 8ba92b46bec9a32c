"""Golden-data checks for the worked level-k examples.

Each entry point rebuilds one example category from scratch, verifies every
known fact about it (simple counts, braiding eigenvalues, the exact
auto-equivalence permutations, composition behaviour, group types), and
returns (ok, report lines).  The CLI `reproduce` verb is a thin wrapper.
"""

from __future__ import annotations

from . import currents, lie, modular
from .angles import angle
from .currents import CurrentAutoEq


class _Checker:
    def __init__(self):
        self.lines: list[str] = []
        self.ok = True

    def check(self, label: str, passed: bool, detail: str = ""):
        tag = "ok  " if passed else "FAIL"
        suffix = f" ({detail})" if detail and not passed else ""
        self.lines.append(f"  [{tag}] {label}{suffix}")
        self.ok &= passed

    def note(self, text: str):
        self.lines.append(f"  [note] {text}")


def _pairs(data, ae: CurrentAutoEq) -> dict[str, str]:
    """Non-fixed points of an auto-equivalence, by label."""
    s = data.ring.simples
    return {s[i]: s[x] for i, x in enumerate(ae.permutation) if i != x}


def _swap(*pairs: tuple[str, str]) -> dict[str, str]:
    out = {}
    for a, b in pairs:
        out[a] = b
        out[b] = a
    return out


def reproduce_sl4_level2() -> tuple[bool, list[str]]:
    c = _Checker()
    data = modular.build_wzw_data(lie.lie_algebra("A", 3), 2)
    ring = data.ring
    c.check("category has 10 simple objects", data.size == 10, f"got {data.size}")

    g = ring.index("2L1")
    p = currents.profile(data, g)
    c.check("2L1 has order M = 4", p.M == 4, f"got {p.M}")
    c.check("2L1 has self-braiding eigenvalue -i", p.q == angle(3, 4), f"got {p.q}")
    c.check("A = 2", p.A == 2, f"got {p.A}")
    zetas = currents.admissible_zetas(p)
    c.check("exactly two admissible zetas (i and -i)",
            zetas == [angle(1, 4), angle(3, 4)], f"got {[str(z) for z in zetas]}")

    ae_mi = currents.construct_autoeq(data, g, angle(3, 4))
    want_mi = _swap(("L1", "L1+L2"), ("2L1", "2L3"), ("L3", "L2+L3"))
    c.check("zeta = -i permutation matches the known swap list",
            _pairs(data, ae_mi) == want_mi, f"got {_pairs(data, ae_mi)}")
    c.check("zeta = -i auto-equivalence is monoidal but not braided",
            not ae_mi.braided)

    ae_i = currents.construct_autoeq(data, g, angle(1, 4))
    want_i = _swap(("L1", "L3"), ("2L1", "2L3"), ("L1+L2", "L2+L3"))
    c.check("zeta = i permutation matches the known swap list",
            _pairs(data, ae_i) == want_i, f"got {_pairs(data, ae_i)}")
    c.check("zeta = i auto-equivalence is braided", ae_i.braided)
    is_cc = ae_i.permutation == ring.dual
    c.check("zeta = i auto-equivalence is charge conjugation (dual involution)", is_cc)
    if is_cc:
        c.note("charge-conjugation flag: F(2L1, i) realises X -> X*")
    c.check("both auto-equivalences are pivotal", ae_i.pivotal and ae_mi.pivotal)
    c.check("order bound is 2 for both",
            ae_i.order_bound == 2 and ae_mi.order_bound == 2)

    # Klein four-group of the composites.
    identity = tuple(range(data.size))
    c.check("F(g,i) o F(g,i) = Id", currents.compose(ae_i, ae_i) == identity)
    c.check("F(g,-i) o F(g,-i) = Id", currents.compose(ae_mi, ae_mi) == identity)
    g2 = ring.index("2L2")
    ae_g2 = currents.construct_autoeq(data, g2, angle(1, 2))
    c.check("F(g,i) o F(g,-i) = F(g^2,-1)",
            currents.compose(ae_i, ae_mi) == ae_g2.permutation)
    c.check("F(g,-i) o F(g,i) = F(g^2,-1)",
            currents.compose(ae_mi, ae_i) == ae_g2.permutation)
    rep = currents.generated_group([ae_i, ae_mi])
    c.check("the four composites form Z2 x Z2", rep.iso_type == "Z2 x Z2",
            f"got {rep.iso_type}")
    return c.ok, c.lines


def reproduce_sl6_level2() -> tuple[bool, list[str]]:
    c = _Checker()
    data = modular.build_wzw_data(lie.lie_algebra("A", 5), 2)
    ring = data.ring
    c.check("category has 21 simple objects", data.size == 21, f"got {data.size}")

    profiles = {p.label: p for p in data.profiles.values() if p.g != ring.unit_index}
    c.check("five non-trivial invertible objects", len(profiles) == 5,
            f"got {len(profiles)}")
    known = {"2L1": (6, angle(5, 6)), "2L2": (3, angle(1, 3)),
                 "2L3": (2, angle(1, 2)), "2L4": (3, angle(1, 3)),
                 "2L5": (6, angle(5, 6))}
    got = {lab: (p.M, p.q) for lab, p in profiles.items()}
    c.check("orders and braiding eigenvalues match the known table",
            got == known, f"got { {k: (m, str(q)) for k, (m, q) in got.items()} }")

    gate = sorted(lab for lab, p in profiles.items()
                  if currents.exists_autoequivalence(p))
    c.check("coprimality gate passes exactly for 2L2, 2L3, 2L4",
            gate == ["2L2", "2L3", "2L4"], f"got {gate}")

    ae2 = currents.construct_autoeq(data, ring.index("2L2"), angle(2, 3))
    ae4 = currents.construct_autoeq(data, ring.index("2L4"), angle(2, 3))
    ae3 = currents.construct_autoeq(data, ring.index("2L3"), angle(1, 2))
    l1 = ring.index("L1")
    c.check("F(2L2, e^(2 pi i 2/3)) sends L1 to L2+L3",
            ring.simples[ae2.permutation[l1]] == "L2+L3")
    c.check("F(2L4, e^(2 pi i 2/3)) sends L1 to L2+L3",
            ring.simples[ae4.permutation[l1]] == "L2+L3")
    c.check("F(2L3, -1) sends L1 to L3+L4",
            ring.simples[ae3.permutation[l1]] == "L3+L4")
    c.check("F(2L3, -1) is a braided auto-equivalence", ae3.braided)
    c.check("F(2L2) and F(2L4) agree as permutations",
            ae2.permutation == ae4.permutation)
    c.check("all three auto-equivalences have order bound 2",
            {ae2.order_bound, ae3.order_bound, ae4.order_bound} == {2})
    comp_a = currents.compose(ae2, ae3)
    comp_b = currents.compose(ae3, ae2)
    c.check("composite sends L1 to L5, in either order",
            ring.simples[comp_a[l1]] == "L5" and ring.simples[comp_b[l1]] == "L5")
    rep = currents.generated_group([ae2, ae3])
    c.check("F(2L2) and F(2L3) generate Z2 x Z2", rep.iso_type == "Z2 x Z2",
            f"got {rep.iso_type}")
    return c.ok, c.lines


def reproduce_so8_level2() -> tuple[bool, list[str]]:
    c = _Checker()
    data = modular.build_wzw_data(lie.lie_algebra("D", 4), 2)
    ring = data.ring
    c.check("category has 11 simple objects", data.size == 11, f"got {data.size}")

    profiles = {p.label: p for p in data.profiles.values() if p.g != ring.unit_index}
    labels = sorted(profiles)
    c.check("the non-trivial invertibles are 2L1, 2L3, 2L4",
            labels == ["2L1", "2L3", "2L4"], f"got {labels}")
    c.check("all three have order 2 and braid eigenvalue 1",
            all(p.M == 2 and p.q.is_zero for p in profiles.values()))

    known = {
        "2L1": _swap(("L1+L3", "L4"), ("L3", "L1+L4")),
        "2L3": _swap(("L1+L3", "L4"), ("L1", "L3+L4")),
        "2L4": _swap(("L3", "L1+L4"), ("L1", "L3+L4")),
    }
    aes = {lab: currents.construct_autoeq(data, ring.index(lab), angle(1, 2))
           for lab in ("2L1", "2L3", "2L4")}
    for lab, ae in aes.items():
        c.check(f"F({lab}, -1) matches the known two-pair swap list",
                _pairs(data, ae) == known[lab], f"got {_pairs(data, ae)}")
    c.check("none of the three is braided (q = 1, not -1)",
            not any(ae.braided for ae in aes.values()))
    c.check("all three are pivotal", all(ae.pivotal for ae in aes.values()))

    pairs_ok = all(
        currents.commute_test(data, ring.index(a), ring.index(b))
        for a in ("2L1", "2L3", "2L4") for b in ("2L1", "2L3", "2L4"))
    c.check("all pairs braid symmetrically (commute gate)", pairs_ok)
    comm = all(
        currents.compose(aes[a], aes[b]) == currents.compose(aes[b], aes[a])
        for a in aes for b in aes)
    c.check("composites commute as permutations", comm)
    c.check("F(2L1,-1) o F(2L3,-1) equals F(2L4,-1) as permutations",
            currents.compose(aes["2L1"], aes["2L3"]) == aes["2L4"].permutation)
    rep = currents.generated_group(list(aes.values()))
    c.check("permutation-level group is Z2 x Z2", rep.iso_type == "Z2 x Z2",
            f"got {rep.iso_type}")
    c.note(rep.caveat)
    return c.ok, c.lines


def reproduce_sl4_level4_negative() -> tuple[bool, list[str]]:
    c = _Checker()
    data = modular.build_wzw_data(lie.lie_algebra("A", 3), 4)
    ring = data.ring
    c.check("category has 35 simple objects", data.size == 35, f"got {data.size}")
    c.check("charge conjugation is non-trivial here",
            ring.dual != tuple(range(data.size)))
    aes = currents.all_autoequivalences(data)
    c.check("every invertible with a passing gate yields auto-equivalences",
            len(aes) >= 5, f"got {len(aes)}")
    clash = [f"F({ae.g_label}, {ae.zeta})" for ae in aes
             if ae.permutation == ring.dual]
    c.check("no simple-current auto-equivalence realises charge conjugation",
            not clash, f"matched by {clash}")
    return c.ok, c.lines


EXAMPLES = {
    "sl4-2": ("sl_4 at level 2", reproduce_sl4_level2),
    "sl6-2": ("sl_6 at level 2", reproduce_sl6_level2),
    "so8-2": ("so_8 at level 2", reproduce_so8_level2),
    "sl4-4-negative": ("sl_4 at level 4, negative control",
                       reproduce_sl4_level4_negative),
}
