"""Command-line surface: build, load-check, invertibles, autoeq, group, reproduce.

Exit codes: 0 success, 1 mathematical failure (gate or golden mismatch),
2 input error.  All output is deterministic: identical inputs produce
identical bytes on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import catfile, currents, fusion, golden, groups, lie
from .angles import RationalAngle
from .catfile import CategoryFileError
from .currents import CoprimalityError, InadmissibleZetaError
from .modular import InconsistentDataError

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2

_ANGLE_SYMBOLS = {"1": (0, 1), "-1": (1, 2), "i": (1, 4), "-i": (3, 4)}
_SYMBOL_OF = {(0, 1): "1", (1, 2): "-1", (1, 4): "i", (3, 4): "-i"}


def parse_angle(text: str) -> RationalAngle:
    """Angles in turns ("2/3") or the symbolic roots 1, -1, i, -i."""
    text = text.strip()
    if text in _ANGLE_SYMBOLS:
        return RationalAngle(*_ANGLE_SYMBOLS[text])
    num, sep, den = text.partition("/")
    try:
        if sep:
            return RationalAngle(int(num), int(den))
        return RationalAngle(int(num), 1)
    except ValueError:
        raise ValueError(
            f"cannot parse angle {text!r}: use p/q in turns or one of 1, -1, i, -i"
        ) from None


def render_angle(a: RationalAngle) -> str:
    sym = _SYMBOL_OF.get(a.pair)
    return f"{a} ({sym})" if sym else f"{a} (e^(2*pi*i*{a}))"


def _resolve_simple(data, label: str) -> int:
    if label == "unit":
        return data.ring.unit_index
    try:
        return data.ring.index(label)
    except KeyError:
        raise CategoryFileError(
            f"no simple object labelled {label!r}; known labels: "
            + ", ".join(data.ring.simples)) from None


# ---------------------------------------------------------------------------
# subcommands


def cmd_build(args) -> int:
    """Write -o once; a cache miss copies it into --cache-dir, made if missing."""
    source = catfile.wzw_source(args.family, args.rank, args.level)
    name = f"{args.family}{args.rank}-{args.level}.json"
    cache = args.cache_dir and Path(args.cache_dir, name)
    if cache:
        cache.parent.mkdir(parents=True, exist_ok=True)
    if cache and cache.exists():
        data, cached = catfile.load_category(cache)
        if cached != source:
            raise CategoryFileError(
                f"cached file {cache} has source {json.dumps(cached, sort_keys=True)}, "
                f"not the requested {json.dumps(source, sort_keys=True)}")
        catfile.save_category(args.out, data, source)
    else:
        data = catfile.build_category_file(args.family, args.rank, args.level,
                                           out_path=args.out)
        if cache:
            cache.write_bytes(Path(args.out).read_bytes())
    print(f"built {args.family}{args.rank} level {args.level}: "
          f"{data.size} simple objects -> {args.out}")
    return EXIT_OK


def cmd_load_check(args) -> int:
    data, _ = catfile.load_category(args.path)
    print(f"OK: {args.path} validates ({data.size} simple objects)")
    return EXIT_OK


def cmd_invertibles(args) -> int:
    data, _ = catfile.load_category(args.path)
    rows = [(p.label, p.M, render_angle(p.q), p.A,
             "yes" if currents.exists_autoequivalence(p) else "no")
            for p in data.profiles.values() if p.g != data.ring.unit_index]
    if not rows:
        print("no non-trivial invertible objects")
        return EXIT_OK
    header = ("object", "order", "braiding eigenvalue", "A", "autoeq")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(5)]
    for r in [header] + rows:
        print("  ".join(str(x).ljust(w) for x, w in zip(r, widths)).rstrip())
    return EXIT_OK


def _autoeq_record(data, ae, p) -> dict:
    moved = {data.ring.simples[i]: data.ring.simples[x]
             for i, x in enumerate(ae.permutation) if i != x}
    return {
        "g": ae.g_label,
        "M": ae.M,
        "q": list(p.q.pair),
        "zeta": list(ae.zeta.pair),
        "A": ae.A,
        "braided": ae.braided,
        "pivotal": ae.pivotal,
        "order_bound": ae.order_bound,
        "permutation": list(ae.permutation),
        "moved": moved,
    }


def cmd_autoeq(args) -> int:
    data, _ = catfile.load_category(args.path)
    g = _resolve_simple(data, args.g)
    p = currents.profile(data, g)
    if args.zeta is not None:
        zetas = [parse_angle(args.zeta)]
    else:
        currents.require_coprimality(p)
        zetas = currents.admissible_zetas(p)
    records = [_autoeq_record(data, currents.construct_autoeq(data, g, z), p)
               for z in zetas]
    print(json.dumps(records if args.zeta is None else records[0],
                     sort_keys=True, indent=1))
    return EXIT_OK


def cmd_group(args) -> int:
    data, _ = catfile.load_category(args.path)
    if not args.generators:
        print("group: trivial")
        print(f"note: {currents.PERMUTATION_LEVEL_CAVEAT}")
        return EXIT_OK
    aes = []
    for spec_text in args.generators:
        label, sep, angle_text = spec_text.partition("=")
        if not sep:
            raise ValueError(
                f"generator {spec_text!r} must look like LABEL=ZETA, e.g. 2L2=2/3")
        g = _resolve_simple(data, label.strip())
        aes.append(currents.construct_autoeq(data, g, parse_angle(angle_text)))
    rep = currents.generated_group(aes, cap=args.cap)
    print(f"group of order {len(rep.elements)}: {rep.iso_type}")
    for ae in aes:
        matches = [f"F({b.g_label}, {b.zeta})" for b in aes
                   if b is not ae and b.permutation == ae.permutation]
        if matches:
            print(f"note: F({ae.g_label}, {ae.zeta}) equals {', '.join(matches)} "
                  f"as a permutation")
    composite_notes = set()
    for a in aes:
        for b in aes:
            if a is b:
                continue
            comp = currents.compose(a, b)
            for cset in aes:
                if cset is not a and cset is not b and comp == cset.permutation:
                    composite_notes.add(
                        f"F({a.g_label},{a.zeta}) o F({b.g_label},{b.zeta}) "
                        f"= F({cset.g_label},{cset.zeta})")
    for note in sorted(composite_notes):
        print(f"note: {note}")
    print(f"note: {rep.caveat}")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    title, fn = golden.EXAMPLES[args.example]
    ok, lines = fn()
    print(f"reproduce {args.example}: {title}")
    for line in lines:
        print(line)
    print(f"reproduce {args.example}: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_MATH


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="simplecurrents",
        description="Level-k category data and simple-current auto-equivalences.")
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a level-k category file")
    b.add_argument("family", choices=list("ABCDEFG"), type=str.upper)
    b.add_argument("rank", type=int)
    b.add_argument("level", type=int)
    b.add_argument("-o", "--out", required=True, help="output category file")
    b.add_argument("--cache-dir", default=None,
                   help="directory for memoized builds")
    b.set_defaults(fn=cmd_build)

    l = sub.add_parser("load-check", help="validate a category file")
    l.add_argument("path")
    l.set_defaults(fn=cmd_load_check)

    i = sub.add_parser("invertibles", help="table of non-trivial invertibles")
    i.add_argument("path")
    i.set_defaults(fn=cmd_invertibles)

    a = sub.add_parser("autoeq", help="construct auto-equivalences for an object")
    a.add_argument("path")
    a.add_argument("g", help='label of the invertible object, e.g. 2L1 or "unit"')
    a.add_argument("--zeta", default=None,
                   help='root of unity: p/q in turns or 1, -1, i, -i '
                        '(use --zeta=-i for the dashed forms)')
    a.set_defaults(fn=cmd_autoeq)

    gp = sub.add_parser("group", help="group generated by auto-equivalences")
    gp.add_argument("path")
    gp.add_argument("generators", nargs="*",
                    help="generators as LABEL=ZETA, e.g. 2L2=2/3 2L3=-1")
    gp.add_argument("--cap", type=int, default=1024,
                    help="closure size cap (default 1024)")
    gp.set_defaults(fn=cmd_group)

    r = sub.add_parser("reproduce", help="re-derive a worked example and verify it")
    r.add_argument("example", choices=sorted(golden.EXAMPLES))
    r.set_defaults(fn=cmd_reproduce)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (CoprimalityError, InadmissibleZetaError, InconsistentDataError,
            fusion.NotInvertibleError, lie.OutOfAlcoveError,
            groups.ClosureCapExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except (CategoryFileError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
