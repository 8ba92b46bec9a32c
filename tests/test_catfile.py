import hashlib
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from simplecurrents import catfile, cli, currents, fusion, groups, lie, modular
from simplecurrents.angles import ZERO_ANGLE, angle
from simplecurrents.catfile import CategoryFileError
from simplecurrents.fusion import FusionRing


def ising_payload():
    """A hand-written external category: objects 1, eps, sigma."""
    return {
        "schema_version": 1,
        "source": "external",
        "simples": ["0", "eps", "sigma"],
        "dual": [0, 1, 2],
        "fusion": [
            [0, 0, 0, 1], [0, 1, 1, 1], [0, 2, 2, 1],
            [1, 0, 1, 1], [1, 1, 0, 1], [1, 2, 2, 1],
            [2, 0, 2, 1], [2, 1, 2, 1], [2, 2, 0, 1], [2, 2, 1, 1],
        ],
        "twists": [[0, 1], [1, 2], [1, 16]],
        "qdims": [1.0, 1.0, 1.4142135623730951],
    }


def semion_payload():
    """The two-object Z2 category with twist 1/4 on s: q = 1/4 when d_s = 1."""
    return {
        "schema_version": 1, "source": "external", "simples": ["0", "s"],
        "dual": [0, 1],
        "fusion": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]],
        "twists": [[0, 1], [1, 4]], "qdims": [1.0, 1.0],
    }


def z2_payload(twist):
    """Z2 fusion on 0 and x, both of quantum dimension 1, with the given twist on x."""
    return {
        "schema_version": 1, "source": "external", "simples": ["0", "x"],
        "dual": [0, 1],
        "fusion": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1]],
        "twists": [[0, 1], list(twist)], "qdims": [1.0, 1.0],
    }


# monodromy(x, x) = -2 twist(x); the grading check once took the lcm of the
# monodromy orders and refused these as "support 4 < order 2" and "support 3
# < order 2"
Z2_REFUSALS = [
    ((1, 8), "monodromy 3/4 of x with x is not an order-2 root"),
    ((1, 3), "monodromy 1/3 of x with x is not an order-2 root"),
    ((0, 1), "grading by x has support 1 < order 2: x^1 lies in the symmetric centre, "
             "data is not modular"),
]


def z2xz2_payload():
    """Z2 x Z2 on 0, a, b and c = ab: every monodromy of a is 0 but its qdim
    is 2, and b has twist 1/8, so monodromy(b, b) = 3/4."""
    return {
        "schema_version": 1, "source": "external", "simples": ["0", "a", "b", "c"],
        "dual": [0, 1, 2, 3],
        "fusion": [[x, y, x ^ y, 1] for x in range(4) for y in range(4)],
        "twists": [[0, 1], [0, 1], [1, 8], [1, 8]], "qdims": [1.0, 2.0, 1.0, 1.0],
    }


def cyclic_factor(n, twists=None):
    """A factor of deligne_payload: Z_n fusion, quantum dimension 1 and the
    given twists, by default those of SU(n)_1, j(n-j)/2n."""
    return ([str(j) for j in range(n)],
            {(a, b): {(a + b) % n: 1} for a in range(n) for b in range(n)},
            [-j % n for j in range(n)],
            twists or [Fraction(j * (n - j), 2 * n) for j in range(n)], [1.0] * n)


def ising_factor(sigma):
    """A factor of deligne_payload: ising_payload with the twist ``sigma`` on
    sigma.  No check reads the twist of the one non-invertible, so any value
    loads."""
    payload = ising_payload()
    tensor = {}
    for a, b, c, m in payload["fusion"]:
        tensor.setdefault((a, b), {})[c] = m
    return (payload["simples"], tensor, payload["dual"],
            [Fraction(0), Fraction(1, 2), sigma], payload["qdims"])


def deligne_payload(*factors):
    """The category file of the Deligne product of the factors, each a tuple
    (labels, {(a, b): {c: N}}, dual, twists as Fractions, qdims): objects in
    lexicographic order, labels joined by commas, twists summed mod 1."""
    objects = list(itertools.product(*(range(len(f[0])) for f in factors)))
    index = {o: i for i, o in enumerate(objects)}
    quads = []
    for a in objects:
        for b in objects:
            fibers = [f[1][(x, y)].items() for f, x, y in zip(factors, a, b)]
            for terms in itertools.product(*fibers):
                c = tuple(z for z, _ in terms)
                quads.append([index[a], index[b], index[c], math.prod(m for _, m in terms)])
    twists = [sum(f[3][x] for f, x in zip(factors, o)) % 1 for o in objects]
    return {
        "schema_version": 1, "source": "external",
        "simples": [",".join(f[0][x] for f, x in zip(factors, o)) for o in objects],
        "dual": [index[tuple(f[2][x] for f, x in zip(factors, o))] for o in objects],
        "fusion": quads,
        "twists": [[t.numerator, t.denominator] for t in twists],
        "qdims": [math.prod(f[4][x] for f, x in zip(factors, o)) for o in objects],
    }


def z2xz2_twists(twist_c):
    """Z2 x Z2 on 0, a, b and c = ab, all of quantum dimension 1, with twists
    0, 1/4, 0 and twist_c."""
    payload = z2xz2_payload()
    payload["twists"] = [[0, 1], [1, 4], [0, 1], list(twist_c)]
    payload["qdims"] = [1.0] * 4
    return payload


# the first x, in index order, whose monodromy with the first invertible g
# that has one is no root of g's order is named, with that monodromy exact.
# Z2 x Z2: monodromy(a, a) = 1/2 passes, monodromy(a, b) = twist(c) - 1/4
# fails, and so would monodromy(a, c) = -1/4 - twist(c) after it.  Z2 x SU(3)_1:
# every record of the SU(3)_1 currents passes; then g = (1,0) passes with (0,1)
# and (0,2) and fails with itself.  Denominators past 2^64 are named exactly.
FIRST_BAD_MONODROMY = [
    (z2xz2_twists((7, 12)), "monodromy 1/3 of a with b is not an order-2 root"),
    (z2xz2_twists((2 ** 64 + 1, 2 ** 66)),
     f"monodromy 1/{2 ** 66} of a with b is not an order-2 root"),
    (z2_payload((1, 2 ** 70)),
     f"monodromy {2 ** 69 - 1}/{2 ** 69} of x with x is not an order-2 root"),
    (deligne_payload(cyclic_factor(2, [Fraction(0), Fraction(1, 2 ** 70)]),
                     cyclic_factor(3)),
     f"monodromy {2 ** 69 - 1}/{2 ** 69} of 1,0 with 1,0 is not an order-2 root"),
]


def edited(key, index, value):
    payload = semion_payload()
    if index is None:
        payload[key] = value
    else:
        payload[key][index] = value
    return payload


# each payload was loaded (or crashed outside CategoryFileError) before
# numbers and shapes were checked
MALFORMED = [pytest.param(payload, message, id=name) for name, payload, message in [
    ("nan-qdim", edited("qdims", 1, float("nan")),
     "qdims[1] must be a finite number, got nan"),
    ("nan-unit-qdim", edited("qdims", 0, float("nan")),
     "qdims[0] must be a finite number, got nan"),
    ("inf-qdim", edited("qdims", 1, float("inf")),
     "qdims[1] must be a finite number, got inf"),
    ("string-qdim", edited("qdims", 1, "1"), "qdims[1] must be a finite number, got '1'"),
    ("huge-qdim", edited("qdims", 1, 2 ** 1024),
     f"qdims[1] must be a finite number, got {2 ** 1024}"),
    ("float-multiplicity", edited("fusion", 3, [1, 1, 0, 1.9]),
     "fusion[3] must be four integers [a, b, c, N], got [1, 1, 0, 1.9]"),
    ("float-index", edited("fusion", 3, [1, 1.5, 0, 1]),
     "fusion[3] must be four integers [a, b, c, N], got [1, 1.5, 0, 1]"),
    ("bool-multiplicity", edited("fusion", 0, [0, 0, 0, True]),
     "fusion[0] must be four integers [a, b, c, N], got [0, 0, 0, True]"),
    ("short-quad", edited("fusion", 3, [1, 1, 0]),
     "fusion[3] must be four integers [a, b, c, N], got [1, 1, 0]"),
    ("int64-overflow", edited("fusion", 3, [1, 1, 0, 2 ** 70]),
     f"fusion multiplicity at (a, b, c) = (1, 1, 0) must fit in int64, got {2 ** 70}"),
    ("float-twist", edited("twists", 1, [0.25, 1]),
     "twists[1] must be two integers [num, den], got [0.25, 1]"),
    ("string-twist", edited("twists", 1, "1/4"),
     "twists[1] must be two integers [num, den], got '1/4'"),
    ("long-twist", edited("twists", 1, [1, 4, 0]),
     "twists[1] must be two integers [num, den], got [1, 4, 0]"),
    ("float-dual", edited("dual", 1, 1.0), "dual[1] must be an integer, got 1.0"),
    ("int-simple", edited("simples", 0, 0), "simples[0] must be a string, got 0"),
    ("surrogate-simple", edited("simples", 1, "s\ud800"),
     "simples[1] must be a string encodable as UTF-8, got 's\\ud800'"),
    ("string-simples", edited("simples", None, "0s"), "simples must be a list, got '0s'"),
    ("list-payload", [semion_payload()], "category payload must be a JSON object, got list"),
]]


# each check has one owner: catfile the encoding (zero and repeated entries),
# FusionRing each fusion entry, validate the lengths and the identities
OWNED = [pytest.param(payload, message, id=name) for name, payload, message in [
    *((f"{name}-at-{x}", edited("fusion", 3, quad), message)
      for x in (2, -1)
      for name, quad, message in [
          ("a", [x, 1, 0, 1], f"fusion key (a, b, c) = ({x}, 1, 0) is outside [0, 2)"),
          ("b", [1, x, 0, 1], f"fusion key (a, b, c) = (1, {x}, 0) is outside [0, 2)"),
          ("c", [1, 1, x, 1], f"fusion key (a, b, c) = (1, 1, {x}) is outside [0, 2)"),
      ]),
    ("repeated-quad", edited("fusion", None, semion_payload()["fusion"] + [[1, 1, 0, 1]]),
     "duplicate fusion entry for (1,1,0)"),
    ("zero-multiplicity", edited("fusion", 3, [1, 1, 0, 0]), "zero fusion entry for (1,1,0)"),
    ("a-past-int64", edited("fusion", 3, [2 ** 70, 1, 0, 1]),
     f"fusion key (a, b, c) = ({2 ** 70}, 1, 0) is outside [0, 2)"),
    ("c-past-int64", edited("fusion", 3, [1, 1, -2 ** 63 - 1, 1]),
     f"fusion key (a, b, c) = (1, 1, {-2 ** 63 - 1}) is outside [0, 2)"),
    ("negative-multiplicity", edited("fusion", 3, [1, 1, 0, -1]),
     "fusion axioms fail: negative multiplicity N^0_{1,1}"),
    ("multiplicity-2^63", edited("fusion", 3, [1, 1, 0, 2 ** 63]),
     f"fusion multiplicity at (a, b, c) = (1, 1, 0) must fit in int64, got {2 ** 63}"),
    ("short-dual", edited("dual", None, [0]),
     "fusion axioms fail: dual is not a permutation of the simples"),
    ("short-twists", edited("twists", None, [[0, 1]]),
     "twist and qdim lists have lengths 1 and 2, expected the simple count 2"),
    ("long-qdims", edited("qdims", None, [1.0, 1.0, 1.0]),
     "twist and qdim lists have lengths 2 and 3, expected the simple count 2"),
]]


# sha256 of the canonical category file of each build, recorded when weight
# diagrams came from the Freudenthal recursion over every weight in Fractions
# (A3 k=6 when associativity was still checked by a dense n^4 einsum, A3 k=8
# when every pair was folded and associativity checked for every simple)
GOLDEN_SHA256 = {
    ("A", 3, 2): "2d6de9d04ff32a56dde67b44db7c4f85aa9adcad031a011c6579d290b0771ec1",
    ("A", 5, 2): "069c2cdcef633604b99c3a7de16cd6aec24cf314d87a9e843fdb3d4080a1f281",
    ("D", 4, 2): "74bbcabce12fc1f54722b4fbf2ef0f10901edb5f7ad291cf4853fcf48de7629e",
    ("A", 7, 1): "49405317534e995672c54f8c6ef67feb724a0586f8fd41267d6c8036a4a1328d",
    ("B", 4, 2): "11ab5ee6084f84120116812b013c4cd06f6bf7d58f3980d0b0eefd5c292a9d99",
    ("C", 3, 3): "c393245b0c093f52ff36ee76995ad7e5d05a64bdd37f9b9d9bfcbb4ca6a1ce96",
    ("A", 3, 4): "4f22add91656741551b7fc442d9c1bf865371e152e8e0c20537defa1eb090d72",
    ("E", 6, 2): "87d3ddb3c1bfa24db8a754b065b379971a4e1aae732e6e3616b8fe929951d307",
    ("E", 8, 2): "e8b1b3a4e1f920f7fc9c36658e9f2c4df02bf48e03ea1dad93c30034bf740b5f",
    ("A", 3, 6): "659f1d717ea1d3a59c22a98d89b3d4cb3b48e170d77a643a3f8c81eb7d391087",
    ("A", 3, 8): "ce65aa3fc2ed1bb3937344eb380e62124ee4ac27ad3be8ae56bd647aec95834e",
}


@pytest.mark.parametrize("family,rank,level", sorted(GOLDEN_SHA256))
def test_built_file_matches_golden_hash(tmp_path, monkeypatch, family, rank, level):
    # through the list payload and dumps_canonical, and through the file
    # that save_category streams from the table, in slabs of the default
    # budget and of one row of a each
    data = modular.build_wzw_data(lie.lie_algebra(family, rank), level)
    source = {"family": family, "rank": rank, "level": level}
    text = catfile.dumps_canonical(catfile.category_to_payload(data, source))
    assert (hashlib.sha256(text.encode("utf-8")).hexdigest()
            == GOLDEN_SHA256[family, rank, level])
    path = tmp_path / "cat.json"
    for budget in (fusion.CHUNK_BYTES, 1):
        monkeypatch.setattr(fusion, "CHUNK_BYTES", budget)
        catfile.save_category(path, data, source)
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == GOLDEN_SHA256[family, rank, level])


@pytest.mark.parametrize("family,rank,level", sorted(GOLDEN_SHA256))
def test_ring_of_the_quads_equals_the_ring_of_a_dict(family, rank, level):
    data = modular.build_wzw_data(lie.lie_algebra(family, rank), level)
    payload = catfile.category_to_payload(data, catfile.wzw_source(family, rank, level))
    tensor = {}
    for a, b, c, m in payload["fusion"]:
        tensor.setdefault((a, b), {})[c] = m
    ring = data.ring
    quads = np.array(payload["fusion"], dtype=np.int64)
    assert FusionRing(ring.simples, 0, ring.dual, quads) == ring
    assert FusionRing(ring.simples, 0, ring.dual, tensor) == ring
    assert catfile.payload_to_category(payload)[0].ring == ring


def test_built_ring_unchanged_by_editing_its_tensor(tmp_path):
    # ring.tensor is a new dict on every read, so editing it cannot reach the
    # built ring, the file written from it, or what later builds return
    spec, source = lie.lie_algebra("A", 3), {"family": "A", "rank": 3, "level": 2}
    data = modular.build_wzw_data(spec, 2)
    ring = data.ring
    table = ring.table.copy()
    a = ring.index("L1")
    c = next(iter(ring.tensor[a, a]))
    ring.tensor[a, a][c] += 1
    assert modular.build_wzw_data(spec, 2).ring == ring
    assert np.array_equal(ring.table, table)
    path = tmp_path / "A3-2.json"
    catfile.save_category(path, data, source)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256["A", 3, 2]
    assert catfile.load_category(path)[0].ring == ring


class TestRoundTrip:
    @pytest.mark.parametrize("family,rank,level", [("A", 3, 2), ("D", 4, 2)])
    def test_build_save_load_byte_identical(self, tmp_path, family, rank, level):
        path = tmp_path / "cat.json"
        data = catfile.build_category_file(family, rank, level, out_path=path)
        loaded, source = catfile.load_category(path)
        assert fusion.verify_axioms(loaded.ring)
        assert loaded.ring == data.ring
        assert loaded.twist == data.twist
        assert source == {"family": family, "rank": rank, "level": level}
        text = path.read_text(encoding="utf-8")
        assert text == catfile.dumps_canonical(
            catfile.category_to_payload(loaded, source))

    def test_canonical_form_is_sorted(self, tmp_path):
        path = tmp_path / "cat.json"
        catfile.build_category_file("A", 3, 2, out_path=path)
        payload = json.loads(path.read_text())
        assert list(payload) == sorted(payload)
        assert payload["schema_version"] == 1
        assert payload["fusion"] == sorted(payload["fusion"])


def json_dumps(payload):
    """The writer dumps_canonical must match byte for byte: Python's own encoder."""
    return json.dumps(payload, sort_keys=True, indent=1, ensure_ascii=False) + "\n"


INT64 = st.one_of(st.integers(-2 ** 63, 2 ** 63 - 1),
                  st.sampled_from([-2 ** 63, -1, 0, 1, 2 ** 63 - 1]))
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)
SOURCES = st.just("external") | st.fixed_dictionaries(
    {"family": st.sampled_from("ABCDEFG"), "rank": st.integers(1, 8),
     "level": st.integers(1, 8)})


SCHEMA_VALUES = {
    "dual": st.lists(st.integers(0, 9), max_size=4),
    "qdims": st.lists(st.floats(allow_nan=False), max_size=4),
    "schema_version": st.just(1),
    "simples": st.lists(st.text(), max_size=4),
    "source": SOURCES,
    "twists": st.lists(st.lists(INT64, min_size=2, max_size=2), max_size=3),
}


@st.composite
def payloads(draw):
    """A "fusion" list of int quads beside some schema keys and other keys, some
    sorting before "fusion" and some after, whose values may nest a "fusion" key."""
    payload = draw(st.dictionaries(st.text(), JSON, max_size=3))
    for key in draw(st.sets(st.sampled_from(sorted(SCHEMA_VALUES)))):
        payload[key] = draw(SCHEMA_VALUES[key])
    payload["fusion"] = draw(st.lists(st.lists(INT64, min_size=4, max_size=4), max_size=6))
    return payload


class TestWriter:
    @given(payloads())
    @example({"fusion": []})  # the only key, and an empty list
    @example({"fusion": [[0, 0, 0, 1]]})
    @example({"fusion": [[0, 0, 0, 2 ** 63 - 1], [1, 2, 3, -2 ** 63]], "dual": [0]})  # last
    @example({"fusion": [[0, 0, 0, -1]], "simples": ["0", "ε", "σ", "τ\u2028"],
              "twists": []})  # first
    @example({"fusion": [[0, 0, 0, 1]], "a": {"fusion": []}, "z": '\n "fusion": []',
              "source": {"family": "A", "rank": 3, "level": 2}})
    def test_byte_identical_to_json_dumps(self, payload):
        assert catfile.dumps_canonical(payload) == json_dumps(payload)

    def test_built_and_external_payloads(self, sl4_level2):
        source = {"family": "A", "rank": 3, "level": 2}
        for payload in (catfile.category_to_payload(sl4_level2, source),
                        ising_payload(), semion_payload(), z2xz2_payload()):
            assert catfile.dumps_canonical(payload) == json_dumps(payload)

    @pytest.mark.parametrize("quad", [
        [0, 0, 0, True], [0, 0, 0, 1.0], [0, 0, np.int64(0), 1], [0, 0, 0], [0, 0, 0, 1, 1],
        (0, 0, 0, 1), "0001",
    ], ids=["bool", "float", "numpy-int", "short", "long", "tuple", "str"])
    def test_quad_that_is_not_four_ints_refused(self, quad):
        payload = semion_payload()
        payload["fusion"][2] = quad
        with pytest.raises(ValueError) as exc:
            catfile.dumps_canonical(payload)
        assert str(exc.value) == f"fusion[2] must be a list of four ints, got {quad!r}"

    def test_fusion_that_is_not_a_list_refused(self):
        with pytest.raises(ValueError) as exc:
            catfile.dumps_canonical(edited("fusion", None, "[]"))
        assert str(exc.value) == "fusion must be a list, got '[]'"

    @given(st.lists(st.lists(INT64, min_size=4, max_size=4), max_size=12),
           st.sampled_from([1, 3, catfile._CHUNK]))
    @example([[0, 0, 0, 2 ** 63 - 1], [1, 2, 3, -2 ** 63]], 1)  # one word per chunk
    @example([[-2 ** 63, -2 ** 63, -2 ** 63, -2 ** 63 + 1]], 3)  # offsets from -2^63
    @example([[0, 1, 2, 3]] * 7, 3)  # 7 = 3 + 3 + 1 quads
    def test_array_payload_byte_identical_to_json_dumps(self, quads, chunk):
        payload = {**semion_payload(), "fusion": np.array(quads, np.int64).reshape(-1, 4)}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(catfile, "_CHUNK", chunk)
            assert catfile.dumps_canonical(payload) == json_dumps({**payload, "fusion": quads})

    @pytest.mark.parametrize("chunk", [1, 3, 100])
    def test_chunk_boundaries_leave_the_file_unchanged(self, tmp_path, monkeypatch,
                                                       sl4_level2, chunk):
        # at 1 byte the table is read one row of a at a time, 10 slabs of 10
        # to 18 quads, so chunks of 3 and 100 quads span slabs
        source = {"family": "A", "rank": 3, "level": 2}
        monkeypatch.setattr(catfile, "_CHUNK", chunk)
        path = tmp_path / "A3-2.json"
        for budget in (fusion.CHUNK_BYTES, 1):
            monkeypatch.setattr(fusion, "CHUNK_BYTES", budget)
            catfile.save_category(path, sl4_level2, source)
            assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256["A", 3, 2]
            assert path.read_text(encoding="utf-8") == catfile.dumps_canonical(
                catfile.category_to_payload(sl4_level2, source))

    def test_save_holds_no_array_of_every_quad(self, tmp_path):
        # A3 k=8, 356,263 quads: 25.7 MB traced at the parent, which made
        # the whole quad array first; 1.8 MB from slabs of one row of a
        data = modular.build_wzw_data(lie.lie_algebra("A", 3), 8)
        path = tmp_path / "A3-8.json"
        tracemalloc.start()
        try:
            catfile.save_category(path, data, catfile.wzw_source("A", 3, 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_SHA256["A", 3, 8]

    @pytest.mark.parametrize("quads,shown", [
        (np.zeros((2, 4), np.int32), "int32 of shape (2, 4)"),
        (np.zeros((2, 4), np.uint64), "uint64 of shape (2, 4)"),
        (np.zeros((2, 4)), "float64 of shape (2, 4)"),
        (np.zeros((2, 3), np.int64), "int64 of shape (2, 3)"),
        (np.zeros(8, np.int64), "int64 of shape (8,)"),
        (np.zeros((2, 2, 4), np.int64), "int64 of shape (2, 2, 4)"),
    ])
    def test_array_of_another_dtype_or_shape_refused(self, quads, shown):
        with pytest.raises(ValueError) as exc:
            catfile.dumps_canonical({**semion_payload(), "fusion": quads})
        assert str(exc.value) == f"fusion array must be int64 of shape (m, 4), got {shown}"

    @pytest.mark.parametrize("quad", [[0, 0, 0, 2 ** 63], [0, -2 ** 63 - 1, 0, 1],
                                      [2 ** 100, 0, 0, 1]])
    def test_quad_outside_int64_refused(self, quad):
        payload = semion_payload()
        payload["fusion"][2] = quad
        with pytest.raises(ValueError) as exc:
            catfile.dumps_canonical(payload)
        assert str(exc.value) == f"fusion[2] must fit in int64, got {quad!r}"

    @pytest.mark.parametrize("fault", ["source", "table"])
    def test_refused_save_leaves_the_file_untouched(self, tmp_path, monkeypatch,
                                                    sl4_level2, fault):
        path = tmp_path / "cat.json"
        path.write_bytes(b"old contents")
        source = {"family": "A", "rank": 3, "level": 2}
        if fault == "source":
            source = {"family": "A", "rank": 3, "level": {2}}  # not JSON
            error = TypeError
        else:
            table_payload = catfile._table_payload
            quads = np.array(catfile.category_to_payload(sl4_level2, source)["fusion"], np.int32)
            monkeypatch.setattr(catfile, "_table_payload", lambda data, source: {
                **table_payload(data, source), "fusion": quads})
            error = ValueError
        with pytest.raises(error):
            catfile.save_category(path, sl4_level2, source)
        assert path.read_bytes() == b"old contents"


class TestValidation:
    def write(self, tmp_path, payload):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return path

    def test_bad_schema_version(self, tmp_path):
        payload = ising_payload()
        payload["schema_version"] = 99
        with pytest.raises(CategoryFileError, match="schema_version"):
            catfile.load_category(self.write(tmp_path, payload))

    def test_unreduced_twist(self, tmp_path):
        payload = ising_payload()
        payload["twists"][1] = [2, 4]
        with pytest.raises(CategoryFileError, match="reduced"):
            catfile.load_category(self.write(tmp_path, payload))

    def test_axiom_violation_rejected(self, tmp_path):
        payload = ising_payload()
        payload["fusion"].append([1, 1, 2, 1])  # eps x eps gains a sigma
        with pytest.raises(CategoryFileError, match="axioms"):
            catfile.load_category(self.write(tmp_path, payload))

    def test_too_many_simples_refused_before_the_ring(self, tmp_path):
        payload = ising_payload()
        payload["simples"] = [str(i) for i in range(fusion.MAX_SIMPLES + 1)]
        with pytest.raises(CategoryFileError) as exc:
            catfile.load_category(self.write(tmp_path, payload))
        assert str(exc.value) == (
            f"category file has {fusion.MAX_SIMPLES + 1} simple objects, "
            f"more than the limit of {fusion.MAX_SIMPLES}")

    def test_fusion_past_the_exact_float_bound_refused(self, tmp_path):
        # x (x) x = 1 + 2^26 x is a fusion ring, but n * max(N)^2 = 2^53
        payload = {
            "schema_version": 1, "source": "external", "simples": ["0", "x"],
            "dual": [0, 1],
            "fusion": [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, 1],
                       [1, 1, 0, 1], [1, 1, 1, 2 ** 26]],
            "twists": [[0, 1], [0, 1]], "qdims": [1.0, 1.0],
        }
        with pytest.raises(CategoryFileError) as exc:
            catfile.load_category(self.write(tmp_path, payload))
        assert str(exc.value) == (
            "associativity check is exact only while n * max(N)^2 < 2^53 = "
            "9007199254740992: n = 2, max(N) = 67108864, "
            "n * max(N)^2 = 9007199254740992")

    def test_length_mismatch(self, tmp_path):
        payload = ising_payload()
        payload["qdims"] = [1.0, 1.0]
        with pytest.raises(CategoryFileError, match="length"):
            catfile.load_category(self.write(tmp_path, payload))

    def test_bad_source(self, tmp_path):
        payload = ising_payload()
        payload["source"] = "wzw"
        with pytest.raises(CategoryFileError, match="source"):
            catfile.load_category(self.write(tmp_path, payload))

    def test_bad_source_refused_before_any_check(self, tmp_path, monkeypatch):
        def no_check(ring):
            raise AssertionError("axiom check reached")
        monkeypatch.setattr(fusion, "axiom_violation", no_check)
        payload = ising_payload()
        payload["source"] = "wzw"
        with pytest.raises(CategoryFileError) as exc:
            catfile.load_category(self.write(tmp_path, payload))
        assert str(exc.value) == 'source must be "external" or {"family", "rank", "level"}'

    @pytest.mark.parametrize("key,value,message", [
        ("family", None, 'source family must be one of "A" to "G", got None'),
        ("family", "a", 'source family must be one of "A" to "G", got \'a\''),
        ("family", "AB", 'source family must be one of "A" to "G", got \'AB\''),
        ("rank", [], "source rank must be a positive integer, got []"),
        ("rank", 0, "source rank must be a positive integer, got 0"),
        ("rank", True, "source rank must be a positive integer, got True"),
        ("level", {}, "source level must be a positive integer, got {}"),
        ("level", 2.0, "source level must be a positive integer, got 2.0"),
        ("level", -1, "source level must be a positive integer, got -1"),
    ], ids=["family-None", "family-lower", "family-two-letters", "rank-list", "rank-0",
            "rank-bool", "level-dict", "level-float", "level-negative"])
    def test_source_fields_refused_before_any_check(self, tmp_path, key, value, message):
        payload = ising_payload()
        payload["source"] = {"family": "A", "rank": 3, "level": 2, key: value}
        payload["simples"] = "0s"  # refused next, were the source accepted
        path = self.write(tmp_path, payload)
        with pytest.raises(CategoryFileError) as exc:
            catfile.load_category(path)
        assert str(exc.value) == message

    @pytest.mark.parametrize("twist,message", Z2_REFUSALS)
    def test_inconsistent_twist_refused(self, tmp_path, twist, message):
        with pytest.raises(CategoryFileError) as exc:
            catfile.load_category(self.write(tmp_path, z2_payload(twist)))
        assert str(exc.value) == message

    @pytest.mark.parametrize("twist,message", Z2_REFUSALS)
    def test_load_check_command_refuses_inconsistent_twist(self, tmp_path, twist, message):
        root = Path(__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                          env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "simplecurrents.cli", "load-check",
             str(self.write(tmp_path, z2_payload(twist)))],
            env=env, capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {message}\n")

    def test_two_faults_name_the_earlier_invertible(self, tmp_path, capsys):
        # each invertible's record is checked whole before the next one, so
        # a's qdim is named, not b's monodromy
        message = "invertible a has |qdim| = 2.0, expected 1"
        path = self.write(tmp_path, z2xz2_payload())
        with pytest.raises(CategoryFileError) as exc:
            catfile.load_category(path)
        assert str(exc.value) == message
        assert cli.main(["load-check", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("payload,message", FIRST_BAD_MONODROMY)
    def test_first_bad_monodromy_named(self, tmp_path, capsys, payload, message):
        path = self.write(tmp_path, payload)
        with pytest.raises(CategoryFileError) as exc:
            catfile.load_category(path)
        assert str(exc.value) == message
        assert cli.main(["load-check", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_keys_compared_whole(self, tmp_path):
        # a n^2 + b n + c is 2 for both (0, 0, 2) and (0, 1, 0), which are not
        # a repeat: the key outside [0, 2) is named
        payload = semion_payload()
        payload["fusion"] += [[0, 0, 2, 1], [0, 1, 0, 1]]
        with pytest.raises(CategoryFileError) as exc:
            catfile.load_category(self.write(tmp_path, payload))
        assert str(exc.value) == "fusion key (a, b, c) = (0, 0, 2) is outside [0, 2)"

    @pytest.mark.parametrize("extra,message", [
        ([[1, 1, 0, 1], [0, 1, 0, 0]], "duplicate fusion entry for (1,1,0)"),
        ([[0, 1, 0, 0], [1, 1, 0, 1]], "zero fusion entry for (0,1,0)"),
        ([[1, 1, 0, 0]], "zero fusion entry for (1,1,0)"),  # both: the zero is named
        # the file's own checks come before any of the ring's, in or past int64
        ([[5, 0, 0, 1], [1, 1, 0, 1]], "duplicate fusion entry for (1,1,0)"),
        ([[2 ** 70, 1, 0, 1], [1, 1, 0, 1]], "duplicate fusion entry for (1,1,0)"),
        ([[0, 1, 0, 2 ** 70], [1, 0, 0, 0]], "zero fusion entry for (1,0,0)"),
    ])
    def test_first_fault_in_file_order_named(self, tmp_path, extra, message):
        payload = semion_payload()
        payload["fusion"] += extra
        with pytest.raises(CategoryFileError) as exc:
            catfile.load_category(self.write(tmp_path, payload))
        assert str(exc.value) == message

    @pytest.mark.parametrize("seed", range(4))
    def test_quads_in_any_order(self, tmp_path, seed):
        ring = catfile.payload_to_category(ising_payload())[0].ring
        payload = ising_payload()
        random.Random(seed).shuffle(payload["fusion"])
        assert catfile.load_category(self.write(tmp_path, payload))[0].ring == ring
        a, b, c, _ = payload["fusion"][5]
        payload["fusion"].insert(0, [a, b, c, 1])
        with pytest.raises(CategoryFileError) as exc:
            catfile.load_category(self.write(tmp_path, payload))
        assert str(exc.value) == f"duplicate fusion entry for ({a},{b},{c})"

    def test_not_json(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text("not json", encoding="utf-8")
        with pytest.raises(CategoryFileError, match="JSON"):
            catfile.load_category(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CategoryFileError):
            catfile.load_category(tmp_path / "absent.json")

    def test_semion_loads_with_q_one_quarter(self, tmp_path):
        data, _ = catfile.load_category(self.write(tmp_path, semion_payload()))
        assert currents.profile(data, 1).q == angle(1, 4)

    @pytest.mark.parametrize("payload,message", MALFORMED + OWNED)
    def test_malformed_numbers_refused(self, tmp_path, payload, message):
        with pytest.raises(CategoryFileError) as exc:
            catfile.load_category(self.write(tmp_path, payload))
        assert str(exc.value) == message

    @pytest.mark.parametrize("payload,message", MALFORMED + OWNED)
    def test_load_check_exits_2_on_malformed_numbers(self, tmp_path, capsys,
                                                     payload, message):
        assert cli.main(["load-check", str(self.write(tmp_path, payload))]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")


class TestExternalIsing:
    @pytest.fixture()
    def ising(self, tmp_path):
        path = tmp_path / "ising.json"
        path.write_text(catfile.dumps_canonical(ising_payload()), encoding="utf-8")
        data, source = catfile.load_category(path)
        assert source == "external"
        return data

    def test_invertibles(self, ising):
        assert fusion.invertibles(ising.ring) == [0, 1]
        assert fusion.invertible_order(ising.ring, 1) == 2

    def test_profile(self, ising):
        p = currents.profile(ising, 1)
        assert (p.M, p.q, p.A) == (2, angle(1, 2), 2)
        assert currents.exists_autoequivalence(p)
        assert currents.admissible_zetas(p) == [angle(1, 2)]

    def test_autoeq_fixes_every_object(self, ising):
        # the fermion grading moves sigma by eps, which fuses back to sigma
        ae = currents.construct_autoeq(ising, 1, angle(1, 2))
        assert ae.permutation == (0, 1, 2)
        assert ae.braided and ae.pivotal

    def test_order_bound_not_sharp_here(self, ising):
        # the bound is 2 but the permutation already has order 1; the bound
        # still divides correctly
        ae = currents.construct_autoeq(ising, 1, angle(1, 2))
        assert ae.order_bound == 2
        assert groups.perm_order(ae.permutation) == 1
        assert ae.order_bound % groups.perm_order(ae.permutation) == 0

    def test_grading(self, ising):
        p = currents.profile(ising, 1)
        assert modular.grading(p, angle(1, 2)) == (0, 0, 1)
        assert modular.grading_support(p) == 2
