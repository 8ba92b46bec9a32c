"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs each workload once at reduced size, untraced and traced, and shows that
the checks reject corrupted answers: one changed fusion multiplicity, one
shifted twist, and one auto-equivalence permutation with two entries swapped.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import random
import sys
from fractions import Fraction

import run

sys.path.insert(0, str(run.SRC))

import oracle  # noqa: E402
import sessions  # noqa: E402
import tracing  # noqa: E402
from simplecurrents import catfile  # noqa: E402
from simplecurrents.angles import RationalAngle  # noqa: E402


def run_workloads() -> None:
    for workload in run.WORKLOADS:
        for trace in (False, True):
            result = run.run(workload, seed=0, seconds=0, trace=trace, small=True)
            assert result["correct"] and result["failed"] == 0, result
            want = set(tracing.UNITS) | {"traced.wall_s"} if trace else {
                "wall_s", "peak_rss_mb", "setup_s"}
            assert set(result["metrics"]) == want, sorted(result["metrics"])


def session_of(key) -> tuple:
    """Build a category with the program, save and reload it, and report on it."""
    sessions.clear_caches()
    path = run.HERE / ".work" / "selftest.json"
    built = catfile.build_category_file(*key, out_path=path)
    payload = json.loads(path.read_text(encoding="utf-8"))
    session = sessions.Session("selftest", path, key=key, payload=payload,
                               roots=oracle.RootSystem(*key[:2]))
    data = dataclasses.replace(catfile.load_category(path)[0], weights=built.weights)
    report = sessions.make_report(data, random.Random(0))
    assert not any(sessions.checks(session, data, report).values())
    return session, data, report


def failing(session, data, report) -> set[str]:
    return {name for name, msgs in sessions.checks(session, data, report).items() if msgs}


def with_multiplicity(data, a: int, b: int, c: int, m: int):
    tensor = copy.deepcopy(data.ring.tensor)
    tensor[a, b][c] = m
    return dataclasses.replace(data, ring=dataclasses.replace(data.ring, tensor=tensor))


def with_twist(data, x: int, shift: Fraction):
    twist = list(data.twist)
    twist[x] = twist[x] + RationalAngle(shift.numerator, shift.denominator)
    return dataclasses.replace(data, twist=tuple(twist))


def corruptions() -> None:
    su2 = session_of(("A", 1, 4))
    sl4 = session_of(("A", 3, 2))

    # One changed fusion multiplicity: L1 (x) L1 gets a second copy of 2L1.
    for session, data, report in (su2, sl4):
        s = data.ring.simples
        bad = with_multiplicity(data, s.index("L1"), s.index("L1"), s.index("2L1"), 2)
        got = failing(session, bad, report)
        want = {"ring", "payload"} | ({"su2"} if session.key[:2] == ("A", 1) else set())
        assert want <= got, (session.key, "fusion", got)

    # One shifted twist: the current 2L1 of sl4-2 and the spin-1 object of su(2)_4.
    for session, data, report in (su2, sl4):
        bad = with_twist(data, data.ring.simples.index("2L1"), Fraction(1, 8))
        got = failing(session, bad, report)
        want = {"payload"} | ({"su2"} if session.key[:2] == ("A", 1) else {"currents"})
        assert want <= got, (session.key, "twist", got)

    # One auto-equivalence permutation with two entries of unequal quantum
    # dimension swapped, so it cannot be a fusion-ring automorphism.
    session, data, report = sl4
    i, ae = next((i, a) for i, a in enumerate(report.autoeqs) if a.g != data.ring.unit_index)
    x, y = data.ring.simples.index("L1"), data.ring.simples.index("2L1")
    assert abs(data.qdim[x] - data.qdim[y]) > 1e-3
    perm = list(ae.permutation)
    perm[x], perm[y] = perm[y], perm[x]
    autoeqs = list(report.autoeqs)
    autoeqs[i] = dataclasses.replace(ae, permutation=tuple(perm))
    got = failing(session, data, dataclasses.replace(report, autoeqs=autoeqs))
    assert {"autoeqs", "compositions"} <= got, ("permutation", got)


def main() -> int:
    run_workloads()
    corruptions()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
