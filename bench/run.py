"""Benchmark of simplecurrents: cold builds and load-and-report sessions.

    python3 bench/run.py --workload build-diagrams --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src``.  One process and one thread run every session of the workload
(see ``sessions.py``) in passes, until ``--seconds`` have elapsed, and check
every answer.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` and ``failed`` count sessions.  With ``--trace 0`` the metrics
are the end-to-end ones: ``wall_s`` (median pass time), ``peak_rss_mb`` and
``setup_s``.  With ``--trace 1`` every public call of the package is traced
and the metrics are the per-layer ones, each the median over passes.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import ctypes.util  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("build-diagrams", "build-fold", "load-report")
SETUP_REPEATS = 3
_LIBC = ctypes.CDLL(ctypes.util.find_library("c"))


def release_memory() -> None:
    """Free the previous session's garbage and hand freed heap back to the OS.

    Without the trim, a session's peak memory depends on how fragmented the
    heap was left by whichever session ran before it, and so on the seed.
    """
    gc.collect()
    trim = getattr(_LIBC, "malloc_trim", None)
    if trim is not None:
        trim(0)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Set up and run one workload; return the result object."""
    import sessions
    import tracing

    import_s = time.perf_counter() - T0
    workdir = HERE / ".work" / workload
    setup = []
    for _ in range(SETUP_REPEATS):
        t = time.perf_counter()
        todo = sessions.prepare(workload, workdir, small=small)
        setup.append(time.perf_counter() - t)

    rng = random.Random(seed)
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install(sessions.PACKAGE_MODULES)
    passes, layers = [], []
    attempted = failed = checks_run = checks_failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    try:
        while not passes or time.perf_counter() - start < seconds:
            rng.shuffle(todo)
            first = len(tracer.names) if tracer is not None else 0
            elapsed = 0.0
            for session in todo:
                sessions.clear_caches()
                release_memory()
                attempted += 1
                span = tracer.enter("bench.session") if tracer is not None else None
                t = time.perf_counter()
                try:
                    data, report = session.run(rng)
                except Exception as exc:  # counted as a failed session
                    failed += 1
                    problems.append(f"{session.name}: {type(exc).__name__}: {exc}")
                    continue
                finally:
                    elapsed += time.perf_counter() - t
                    if tracer is not None:
                        tracer.leave(span)
                for name, msgs in sessions.checks(session, data, report).items():
                    checks_run += 1
                    if msgs:
                        checks_failed += 1
                        problems.extend(f"{session.name} [{name}] {m}" for m in msgs[:3])
                del data, report
            passes.append(elapsed)
            if tracer is not None:
                layers.append(tracer.metrics(first, len(tracer.names)))
    finally:
        if tracer is not None:
            tracer.uninstall()

    for p in problems[:20]:
        print(f"  {p}", file=sys.stderr)
    print(f"{workload} seed={seed}: {len(passes)} passes of {len(todo)} sessions, "
          f"pass times " + " ".join(f"{p:.3f}" for p in passes) + " s")
    print(f"sessions attempted {attempted} failed {failed}; "
          f"checks attempted {checks_run} failed {checks_failed}")
    if tracer is not None:
        tracer.dump(HERE / ".work" / f"trace-{workload}.json")
        metrics = {name: {"value": statistics.median(m[name] for m in layers),
                          "unit": unit}
                   for name, unit in tracing.UNITS.items()}
        metrics["traced.wall_s"] = {"value": statistics.median(passes), "unit": "s"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(passes), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
            "setup_s": {"value": import_s + statistics.median(setup), "unit": "s"},
        }
    return {"correct": checks_failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "simplecurrents" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
