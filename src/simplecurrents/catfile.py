"""Persistent category files: canonical JSON with mandatory validation on load.

Schema (version 1, keys sorted, UTF-8):

    {
      "schema_version": 1,
      "source": {"family": "A", "rank": 3, "level": 2}  |  "external",
      "simples": ["0", "L3", ...],
      "dual":    [0, 6, ...],
      "fusion":  [[a, b, c, N], ...],          # nonzero entries, sorted
      "twists":  [[num, den], ...],            # reduced, 0 <= num < den
      "qdims":   [1.0, ...]
    }

External files (source = "external") let non-level-k data, e.g. an Ising
category, exercise the auto-equivalence machinery; they go through exactly
the same validation as built files.  This module checks only the encoding:
``FusionRing`` checks each fusion entry and the simple count,
``modular.validate`` the list lengths and every identity, and each refusal
reaches the caller as CategoryFileError.  On load the types of the fusion
quads and the twists are checked by one bulk gate, and an entry-by-entry scan
runs only when it fails, to name the first bad entry.

``dumps_canonical`` writes exactly the bytes of ``json.dumps(payload,
sort_keys=True, indent=1, ensure_ascii=False)``, but formats the fusion quads,
nearly all of a file, in one pass of one repeated format string, behind a gate
that lets only lists of four Python ints through.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from . import fusion, lie, modular
from .angles import RationalAngle
from .fusion import FusionRing, is_int
from .modular import ModularCategoryData

SCHEMA_VERSION = 1


class CategoryFileError(ValueError):
    """A category file failed to parse or validate."""


def category_to_payload(data: ModularCategoryData, source) -> dict:
    ring = data.ring
    t = ring.table
    quads = np.column_stack([np.argwhere(t), t[t != 0]]).tolist()  # sorted by (a, b, c)
    return {
        "schema_version": SCHEMA_VERSION,
        "source": source,
        "simples": list(ring.simples),
        "dual": list(ring.dual),
        "fusion": quads,
        "twists": [list(t.pair) for t in data.twist],
        "qdims": list(data.qdim),
    }


#: One fusion quad as ``json.dumps(indent=1)`` writes it inside the top-level list.
_QUAD = "  [\n   %d,\n   %d,\n   %d,\n   %d\n  ]"


def _int_rows(rows, length: int) -> bool:
    """rows is a list of lists of ``length`` Python ints, bools excluded; bulk checks."""
    return (type(rows) is list and set(map(type, rows)) <= {list}
            and set(map(len, rows)) <= {length}
            and set(map(type, chain.from_iterable(rows))) <= {int})


def dumps_canonical(payload: dict) -> str:
    """The canonical text of ``payload``: json.dumps(payload, sort_keys=True,
    indent=1, ensure_ascii=False) + "\\n", byte for byte.  ``payload["fusion"]``
    must be a list of lists of four Python ints, else ValueError names the
    first entry that is not."""
    quads = payload["fusion"]
    if not _int_rows(quads, 4):
        if type(quads) is not list:
            raise ValueError(f"fusion must be a list, got {quads!r}")
        i = next(i for i, q in enumerate(quads) if not _int_rows([q], 4))
        raise ValueError(f"fusion[{i}] must be a list of four ints, got {quads[i]!r}")
    text = json.dumps({**payload, "fusion": []}, sort_keys=True, indent=1,
                      ensure_ascii=False)
    if quads:
        # only top-level keys start a line with one space and a quote
        head, _, tail = text.partition('\n "fusion": []')
        body = ",\n".join([_QUAD] * len(quads)) % tuple(chain.from_iterable(quads))
        text = f'{head}\n "fusion": [\n{body}\n ]{tail}'
    return text + "\n"


def _ints(length: int):
    return lambda x: isinstance(x, list) and len(x) == length and all(map(is_int, x))


def _is_finite(x) -> bool:
    # false for NaN, the infinities and ints beyond the float range
    return (is_int(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max


def _entries(payload: dict, key: str, ok, what: str) -> list:
    """payload[key], a list whose entries all pass ``ok``; else CategoryFileError."""
    raw = payload[key]
    if not isinstance(raw, list):
        raise CategoryFileError(f"{key} must be a list, got {raw!r}")
    for i, x in enumerate(raw):
        if not ok(x):
            raise CategoryFileError(f"{key}[{i}] must be {what}, got {x!r}")
    return raw


def _int_entries(payload: dict, key: str, length: int, what: str) -> list:
    """payload[key], a list of lists of ``length`` integers: one bulk gate, and
    the ``_entries`` scan, which names the first bad entry, only if it fails."""
    raw = payload[key]
    return raw if _int_rows(raw, length) else _entries(payload, key, _ints(length), what)


def wzw_source(family: str, rank: int, level: int) -> dict:
    """The source record of a built level-k category file."""
    return {"family": family.upper(), "rank": rank, "level": level}


def _check_source(source) -> None:
    if source == "external":
        return
    if not isinstance(source, dict) or set(source) != {"family", "rank", "level"}:
        raise CategoryFileError('source must be "external" or {"family", "rank", "level"}')
    if source["family"] not in tuple("ABCDEFG"):
        raise CategoryFileError(
            f'source family must be one of "A" to "G", got {source["family"]!r}')
    for key in ("rank", "level"):
        if not (is_int(source[key]) and source[key] > 0):
            raise CategoryFileError(
                f"source {key} must be a positive integer, got {source[key]!r}")


def payload_to_category(payload: dict) -> tuple[ModularCategoryData, object]:
    """Check the encoding, the source first, then build the ring and validate it
    (see the module docstring for who checks what); raises CategoryFileError."""
    if not isinstance(payload, dict):
        raise CategoryFileError(
            f"category payload must be a JSON object, got {type(payload).__name__}")
    try:
        if payload.get("schema_version") != SCHEMA_VERSION:
            raise CategoryFileError(
                f"unsupported schema_version {payload.get('schema_version')!r}")
        source = payload["source"]
        _check_source(source)
        simples = _entries(payload, "simples", lambda x: isinstance(x, str), "a string")
        dual = _entries(payload, "dual", is_int, "an integer")
        quads = _int_entries(payload, "fusion", 4, "four integers [a, b, c, N]")
        twists_raw = _int_entries(payload, "twists", 2, "two integers [num, den]")
        qdims = [float(x) for x in
                 _entries(payload, "qdims", _is_finite, "a finite number")]
    except KeyError as exc:
        raise CategoryFileError(f"malformed category payload: missing {exc}") from None

    if len(set(simples)) != len(simples):
        raise CategoryFileError("simple labels must be distinct")
    for num, den in twists_raw:
        if not (0 <= num < den and math.gcd(num, den) == 1):
            raise CategoryFileError(
                f"twist [{num},{den}] must be stored reduced with 0 <= num < den")
    tensor: dict[tuple[int, int], dict[int, int]] = {}
    for a, b, c, m in quads:
        if m == 0:
            raise CategoryFileError(f"zero fusion entry for ({a},{b},{c})")
        fiber = tensor.setdefault((a, b), {})
        if c in fiber:
            raise CategoryFileError(f"duplicate fusion entry for ({a},{b},{c})")
        fiber[c] = m
    try:
        ring = FusionRing(simples=simples, unit_index=0, dual=dual, tensor=tensor)
    except fusion.TooLargeError:  # the ring's one check of the simple count
        raise CategoryFileError(
            f"category file has {len(simples)} simple objects, more than the limit "
            f"of {fusion.MAX_SIMPLES}") from None
    except ValueError as exc:
        raise CategoryFileError(str(exc)) from None
    try:
        data = ModularCategoryData(ring=ring, qdim=tuple(qdims),
                                   twist=tuple(RationalAngle(*t) for t in twists_raw))
        modular.validate(data)
    except (ValueError, modular.InconsistentDataError) as exc:  # TooLargeError included
        raise CategoryFileError(str(exc)) from None
    return data, source


def save_category(path, data: ModularCategoryData, source) -> None:
    Path(path).write_text(dumps_canonical(category_to_payload(data, source)),
                          encoding="utf-8")


def load_category(path) -> tuple[ModularCategoryData, object]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CategoryFileError(f"cannot read {path}: {exc}") from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CategoryFileError(f"{path} is not valid JSON: {exc}") from None
    return payload_to_category(payload)


def build_category_file(family: str, rank: int, level: int,
                        out_path=None) -> ModularCategoryData:
    """Build a level-k category and optionally persist it."""
    data = modular.build_wzw_data(lie.lie_algebra(family, rank), level)
    if out_path is not None:
        save_category(out_path, data, wzw_source(family, rank, level))
    return data
