import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from simplecurrents import catfile, cli, currents, fusion, groups, lie, modular
from simplecurrents.angles import ZERO_ANGLE, angle
from simplecurrents.catfile import CategoryFileError


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
     f"fusion multiplicity must be in [1, 2^63), got {2 ** 70}"),
    ("float-twist", edited("twists", 1, [0.25, 1]),
     "twists[1] must be two integers [num, den], got [0.25, 1]"),
    ("string-twist", edited("twists", 1, "1/4"),
     "twists[1] must be two integers [num, den], got '1/4'"),
    ("long-twist", edited("twists", 1, [1, 4, 0]),
     "twists[1] must be two integers [num, den], got [1, 4, 0]"),
    ("float-dual", edited("dual", 1, 1.0), "dual[1] must be an integer, got 1.0"),
    ("int-simple", edited("simples", 0, 0), "simples[0] must be a string, got 0"),
    ("string-simples", edited("simples", None, "0s"), "simples must be a list, got '0s'"),
    ("list-payload", [semion_payload()], "category payload must be a JSON object, got list"),
]]


# sha256 of the canonical category file of each build, recorded when weight
# diagrams came from the Freudenthal recursion over every weight in Fractions
# (A3 k=6 when associativity was still checked by a dense n^4 einsum)
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
}


@pytest.mark.parametrize("family,rank,level", sorted(GOLDEN_SHA256))
def test_built_file_matches_golden_hash(family, rank, level):
    data = modular.build_wzw_data(lie.lie_algebra(family, rank), level)
    text = catfile.dumps_canonical(catfile.category_to_payload(
        data, {"family": family, "rank": rank, "level": level}))
    assert (hashlib.sha256(text.encode("utf-8")).hexdigest()
            == GOLDEN_SHA256[family, rank, level])


def test_cached_build_unchanged_by_editing_its_tensor(tmp_path):
    # ring.tensor is a new dict on every read, so editing it cannot reach the
    # cached ring, the file written from it, or what later builds return
    spec, source = lie.lie_algebra("A", 3), {"family": "A", "rank": 3, "level": 2}
    data = modular.build_wzw_data(spec, 2)
    ring = data.ring
    table = ring.table.copy()
    a = ring.index("L1")
    c = next(iter(ring.tensor[a, a]))
    ring.tensor[a, a][c] += 1
    assert modular.build_wzw_data(spec, 2) is data
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

    @pytest.mark.parametrize("payload,message", MALFORMED)
    def test_malformed_numbers_refused(self, tmp_path, payload, message):
        with pytest.raises(CategoryFileError) as exc:
            catfile.load_category(self.write(tmp_path, payload))
        assert str(exc.value) == message

    @pytest.mark.parametrize("payload,message", MALFORMED)
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
