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
``FusionRing`` checks each fusion entry (no zero and no repeated (a, b, c),
its key in [0, n), its multiplicity within int64) and the simple count,
``modular.validate`` the list lengths and every identity, and each refusal
reaches the caller as CategoryFileError.  On load the types of the fusion
quads and the twists are checked by one bulk gate, and an entry-by-entry
scan runs only when it fails, to name the first bad entry.  The quads then
go to ``FusionRing`` as one (m, 4) int64 array, or as the list itself when
a value is past int64.

One serializer, ``_canonical_chunks``, gives exactly the bytes of
``json.dumps(payload, sort_keys=True, indent=1, ensure_ascii=False)`` + "\\n".
It writes the fusion quads, nearly all of a file, from an (m, 4) int64 array,
a few thousand quads at a time: each distinct value of a chunk is made into
decimal text once, and the chunk's text is the non-NUL bytes of a cell array
of those words between fixed separators.  ``save_category`` streams these
bytes from the ring's table into the file, which it opens only once every
check has passed; ``dumps_canonical`` joins them into a str, and also takes a
list of lists of four Python ints, each within int64, behind a gate that
names the first entry that is not.
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


def _table_payload(data: ModularCategoryData, source) -> dict:
    """The payload of ``data``, its "fusion" the (m, 4) int64 array of the
    table's nonzero entries [a, b, c, N], sorted by (a, b, c)."""
    ring = data.ring
    t = ring.table
    return {
        "schema_version": SCHEMA_VERSION,
        "source": source,
        "simples": list(ring.simples),
        "dual": list(ring.dual),
        "fusion": np.column_stack([np.argwhere(t), t[t != 0]]),
        "twists": [list(t.pair) for t in data.twist],
        "qdims": list(data.qdim),
    }


def category_to_payload(data: ModularCategoryData, source) -> dict:
    """The payload of ``data`` as json.dumps takes it: "fusion" is a list of
    [a, b, c, N] lists of Python ints."""
    payload = _table_payload(data, source)
    return {**payload, "fusion": payload["fusion"].tolist()}


def _int_rows(rows, length: int) -> bool:
    """rows is a list of lists of ``length`` Python ints, bools excluded; bulk checks."""
    return (type(rows) is list and set(map(type, rows)) <= {list}
            and set(map(len, rows)) <= {length}
            and set(map(type, chain.from_iterable(rows))) <= {int})


def _as_array(quads: list) -> np.ndarray:
    """A list of lists of four Python ints as an (m, 4) int64 array;
    OverflowError if a value is past int64."""
    return np.fromiter(chain.from_iterable(quads), np.int64, 4 * len(quads)).reshape(-1, 4)


def _quad_array(quads) -> np.ndarray:
    """payload["fusion"] as an (m, 4) int64 array: either that array itself or
    a list of lists of four Python ints within int64; else ValueError naming
    the first entry that is not."""
    if isinstance(quads, np.ndarray):
        if quads.dtype != np.int64 or quads.ndim != 2 or quads.shape[1] != 4:
            raise ValueError(f"fusion array must be int64 of shape (m, 4), "
                             f"got {quads.dtype} of shape {quads.shape}")
        return quads
    if not _int_rows(quads, 4):
        if type(quads) is not list:
            raise ValueError(f"fusion must be a list, got {quads!r}")
        i = next(i for i, q in enumerate(quads) if not _int_rows([q], 4))
        raise ValueError(f"fusion[{i}] must be a list of four ints, got {quads[i]!r}")
    try:
        return _as_array(quads)
    except OverflowError:
        i = next(i for i, q in enumerate(quads)
                 if not all(-2 ** 63 <= x < 2 ** 63 for x in q))
        raise ValueError(f"fusion[{i}] must fit in int64, got {quads[i]!r}") from None


#: Quads formatted at a time: the cell array of a chunk stays a few hundred kB.
_CHUNK = 4096
#: The text around one quad's four values, as json.dumps(indent=1) writes it
#: inside the top-level list; the last quad drops the final ",\n".
_SEPARATORS = (b"  [\n   ", b",\n   ", b",\n   ", b",\n   ", b"\n  ],\n")


def _quad_text(quads: np.ndarray):
    """Yield the UTF-8 text of the quads, ``_CHUNK`` quads at a time.  Each
    distinct value of a chunk is written once, by str(int) as json.dumps
    writes it, into a zero-padded (m, 9) cell array between the separators;
    its bytes without the NULs are the text, since no word or separator holds
    a NUL."""
    for start in range(0, len(quads), _CHUNK):
        chunk = quads[start:start + _CHUNK]
        lo, hi = int(chunk.min()), int(chunk.max())
        if hi - lo < chunk.size:  # dense, as in every built file: no sort
            values, inverse = range(lo, hi + 1), chunk - lo
        else:
            values, inverse = np.unique(chunk, return_inverse=True)
            values = values.tolist()
        words = np.array([str(v) for v in values], dtype="S")
        cells = np.zeros((len(chunk), 9), dtype=f"S{max(7, words.itemsize)}")
        cells[:, 0::2] = _SEPARATORS
        # numpy 1.x and 2.x shape the inverse differently
        cells[:, 1::2] = words[inverse.reshape(chunk.shape)]
        text = cells.tobytes().translate(None, b"\0")
        yield text if start + _CHUNK < len(quads) else text[:-2]


def _canonical_chunks(payload: dict):
    """Check ``payload["fusion"]`` (see ``_quad_array``), then return an
    iterator over the UTF-8 bytes of its canonical text: json.dumps(payload,
    sort_keys=True, indent=1, ensure_ascii=False) + "\\n"."""
    quads = _quad_array(payload["fusion"])
    text = json.dumps({**payload, "fusion": []}, sort_keys=True, indent=1,
                      ensure_ascii=False)
    if not len(quads):
        return iter([f"{text}\n".encode()])
    # only top-level keys start a line with one space and a quote
    head, _, tail = text.partition('\n "fusion": []')
    return chain([f'{head}\n "fusion": [\n'.encode()], _quad_text(quads),
                 [f"\n ]{tail}\n".encode()])


def dumps_canonical(payload: dict) -> str:
    """The canonical text of ``payload``: json.dumps(payload, sort_keys=True,
    indent=1, ensure_ascii=False) + "\\n", byte for byte.  ``payload["fusion"]``
    is an (m, 4) int64 array or a list of lists of four Python ints within
    int64, else ValueError names the array's dtype and shape or the first
    entry that is not."""
    return b"".join(_canonical_chunks(payload)).decode()


def _ints(length: int):
    return lambda x: isinstance(x, list) and len(x) == length and all(map(is_int, x))


def _is_finite(x) -> bool:
    # false for NaN, the infinities and ints beyond the float range
    return (is_int(x) or isinstance(x, float)) and abs(x) <= sys.float_info.max


def _encodes(label: str) -> bool:
    # false for a lone surrogate, which json.loads makes of an escape like "\ud800"
    try:
        label.encode()
    except UnicodeEncodeError:
        return False
    return True


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
        _entries(payload, "simples", _encodes, "a string encodable as UTF-8")
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
    try:
        tensor = _as_array(quads)
    except OverflowError:  # the ring names the value past int64
        tensor = quads
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
    """Write the canonical file of ``data``, streamed from its fusion table.
    The file is opened only once the payload has passed its checks, so a
    refused payload leaves an existing file untouched; a failure while the
    chunks are written (MemoryError, KeyboardInterrupt, a full disk) can
    leave a partial file."""
    chunks = _canonical_chunks(_table_payload(data, source))
    with open(path, "wb") as f:
        f.writelines(chunks)


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
