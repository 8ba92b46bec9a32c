"""The benchmark's workloads: their inputs, and the session run on each input.

A session is what a user does with one category: obtain its data (a cold
build and save, or a validating load of a file), then produce its report.
Importing this module imports the package; the caller puts ``src`` on the
path first.
"""

from __future__ import annotations

import importlib
import itertools
import json
import pkgutil
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import oracle
import simplecurrents
from simplecurrents import catfile, currents, fusion, lie

PACKAGE_MODULES = tuple(importlib.import_module(f"simplecurrents.{m.name}")
                        for m in pkgutil.iter_modules(simplecurrents.__path__))

# Every module-level functools cache of the package, found anew in each
# module so that a cache added later is cleared too.  Taken before any
# tracing wrapper replaces a module attribute, so clearing the caches and
# reading the cached weight diagrams in checks stay untraced.
CACHES = tuple({id(f): f for mod in PACKAGE_MODULES for f in vars(mod).values()
                if hasattr(f, "cache_clear")}.values())
DIAGRAMS = lie.weight_multiplicities
LIE_ALGEBRA = lie.lie_algebra

# High rank, low level: few simples, large weight diagrams.  The first three
# are the paper's sl4-2, sl6-2 and so8-2.
BUILD_DIAGRAMS = (("A", 3, 2), ("A", 5, 2), ("D", 4, 2), ("A", 7, 1),
                  ("B", 4, 2), ("C", 3, 3))
# Low rank, high level: many simples (66, 41, 35), small diagrams.  A3-4 is
# the paper's sl4-4 negative control.
BUILD_FOLD = (("A", 2, 10), ("A", 1, 40), ("A", 3, 4))
# Pointed categories written from closed formulas: SU(N)_1 for composite N,
# and Deligne products of them.  (2, 2, 6), (2, 2, 2) and (3, 3) generate
# non-abelian groups.
POINTED = ((4,), (6,), (8,), (9,), (10,), (12,), (14,), (15,), (16,), (18,),
           (20,), (21,), (22,), (24,), (25,), (26,), (27,), (28,), (30,),
           (4, 6), (2, 2, 6), (5, 6), (2, 3, 5), (2, 2, 2), (3, 3), (6, 6))
# One file written by the program's own build, so Kac-Walton data is read too.
LOADED_BUILD = ("A", 3, 4)

# Reduced inputs for the self-test.
SMALL = {
    "build-diagrams": (("A", 3, 2), ("D", 4, 2)),
    "build-fold": (("A", 1, 12), ("A", 2, 3)),
    "load-report": (((4,), (2, 2, 2), (3, 3)), ("A", 3, 2)),
}


@dataclass
class Report:
    profiles: dict            # g -> (InvertibleProfile, gate)
    autoeqs: list
    groups: list              # (generators, GroupReport); all auto-equivalences last
    compositions: dict        # (i, j) -> compose(autoeqs[i], autoeqs[j])
    commute: dict             # (g, h) -> commute_test(g, h)


@dataclass
class Session:
    name: str
    path: Path
    key: tuple | None = None          # (family, rank, level) of a level-k category
    payload: dict | None = None       # what a load session must read back
    roots: oracle.RootSystem | None = field(default=None, repr=False)

    def run(self, rng: random.Random):
        if self.payload is None:
            data = catfile.build_category_file(*self.key, out_path=self.path)
        else:
            data, _ = catfile.load_category(self.path)
        return data, make_report(data, rng)


def clear_caches() -> None:
    """Empty every cache of the package, as in a fresh process."""
    for f in CACHES:
        f.cache_clear()


def make_report(data, rng: random.Random) -> Report:
    ring = data.ring
    inv = fusion.invertibles(ring)
    profiles = {}
    for g in inv:
        if g != ring.unit_index:
            p = currents.profile(data, g)
            profiles[g] = (p, currents.exists_autoequivalence(p))
    autoeqs = currents.all_autoequivalences(data)
    subsets = [[a for a in autoeqs if a.g == g] for g in dict.fromkeys(a.g for a in autoeqs)]
    rng.shuffle(subsets)
    subsets.append(list(autoeqs))
    for s in subsets:
        rng.shuffle(s)
    return Report(
        profiles=profiles,
        autoeqs=autoeqs,
        groups=[(s, currents.generated_group(s)) for s in subsets],
        compositions={(i, j): currents.compose(a, b)
                      for i, a in enumerate(autoeqs) for j, b in enumerate(autoeqs)},
        commute={(g, h): currents.commute_test(data, g, h) for g in inv for h in inv},
    )


# ---------------------------------------------------------------------------
# inputs


def pointed_payload(moduli: tuple[int, ...]) -> dict:
    """Category file of SU(N1)_1 x ... x SU(Nm)_1: Z_N fusion, twist j(N-j)/2N, qdim 1."""
    objects = list(itertools.product(*(range(n) for n in moduli)))
    index = {o: i for i, o in enumerate(objects)}

    def label(o):
        return "|".join(f"L{x}" if x else "0" for x in o)

    def shift(o, p, sign=1):
        return tuple((x + sign * y) % n for x, y, n in zip(o, p, moduli))

    zero = (0,) * len(moduli)
    twists = [sum((Fraction(x * (n - x), 2 * n) for x, n in zip(o, moduli)), Fraction(0)) % 1
              for o in objects]
    return {
        "schema_version": 1,
        "source": "external",
        "simples": [label(o) for o in objects],
        "dual": [index[shift(zero, o, -1)] for o in objects],
        "fusion": sorted([index[a], index[b], index[shift(a, b)], 1]
                         for a in objects for b in objects),
        "twists": [[t.numerator, t.denominator] for t in twists],
        "qdims": [1.0] * len(objects),
    }


def _name(key) -> str:
    family, rank, level = key
    return f"{family}{rank}-{level}"


def prepare(workload: str, workdir: Path, small: bool = False) -> list[Session]:
    """Generate a workload's inputs under workdir; return its sessions."""
    workdir.mkdir(parents=True, exist_ok=True)
    if workload in ("build-diagrams", "build-fold"):
        keys = SMALL[workload] if small else (
            BUILD_DIAGRAMS if workload == "build-diagrams" else BUILD_FOLD)
        return [Session(_name(k), workdir / f"{_name(k)}.json", key=k,
                        roots=oracle.RootSystem(*k[:2])) for k in keys]
    if workload != "load-report":
        raise ValueError(f"unknown workload {workload!r}")
    pointed, built = SMALL[workload] if small else (POINTED, LOADED_BUILD)
    out = []
    for moduli in pointed:
        name = "SU" + "xSU".join(map(str, moduli)) + "-1"
        payload = pointed_payload(moduli)
        path = workdir / f"{name}.json"
        path.write_text(catfile.dumps_canonical(payload), encoding="utf-8")
        out.append(Session(name, path, payload=payload))
    clear_caches()
    path = workdir / f"{_name(built)}.json"
    catfile.build_category_file(*built, out_path=path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    out.append(Session(_name(built), path, key=built, payload=payload))
    return out


# ---------------------------------------------------------------------------
# checks


def checks(session: Session, data, report: Report) -> dict[str, list[str]]:
    """Run every check that applies to a session; name -> failure messages."""
    runs = {
        "ring": lambda: oracle.check_ring(data),
        "profiles": lambda: oracle.check_profiles(data, report),
        "pairs": lambda: oracle.check_pairs(data, report),
        "autoeqs": lambda: oracle.check_autoeqs(data, report),
        "compositions": lambda: oracle.check_compositions(report),
        "groups": lambda: oracle.check_groups(report),
        "commute": lambda: oracle.check_commute(report),
    }
    if session.payload is not None:
        runs["payload"] = lambda: oracle.check_payload(data, session.payload)
    if session.key is not None:
        family, rank, level = session.key
        if session.key in oracle.PAPER_EXAMPLES:
            runs["facts"] = lambda: oracle.check_paper_facts(session.key, data, report)
        if family == "A":
            runs["currents"] = lambda: oracle.check_a_currents(data, rank, level)
        if session.key[:2] == ("A", 1):
            runs["su2"] = lambda: oracle.check_su2(data, level)
        if session.roots is not None:
            spec = LIE_ALGEBRA(family, rank)
            runs["count"] = lambda: oracle.check_simple_count(
                family, rank, level, data, session.roots)
            runs["diagrams"] = lambda: oracle.check_diagrams(
                data, lambda w: DIAGRAMS(spec, w), session.roots)
    results = {}
    for name, run in runs.items():
        try:
            results[name] = run()
        except Exception as exc:  # a malformed output fails the check, not the run
            results[name] = [f"{type(exc).__name__}: {exc}"]
    return results
