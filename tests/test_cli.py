import json

import pytest

from simplecurrents import catfile, cli, fusion, modular
from simplecurrents.angles import angle


@pytest.fixture()
def a3_file(tmp_path):
    path = tmp_path / "A3-2.json"
    assert cli.main(["build", "A", "3", "2", "-o", str(path)]) == 0
    return path


@pytest.fixture()
def a5_file(tmp_path):
    path = tmp_path / "A5-2.json"
    assert cli.main(["build", "A", "5", "2", "-o", str(path)]) == 0
    return path


class TestParseAngle:
    def test_symbols(self):
        assert cli.parse_angle("1") == angle(0, 1)
        assert cli.parse_angle("-1") == angle(1, 2)
        assert cli.parse_angle("i") == angle(1, 4)
        assert cli.parse_angle("-i") == angle(3, 4)

    def test_fractions(self):
        assert cli.parse_angle("2/3") == angle(2, 3)
        assert cli.parse_angle("-1/4") == angle(3, 4)

    def test_bad(self):
        with pytest.raises(ValueError):
            cli.parse_angle("j")


class TestBuildAndLoad:
    def test_build_reports_count(self, a3_file, capsys):
        capsys.readouterr()
        assert cli.main(["load-check", str(a3_file)]) == 0
        out = capsys.readouterr().out
        assert "10 simple objects" in out

    def test_build_counts(self, tmp_path, capsys):
        for family, rank, level, count in [("A", 5, 2, 21), ("D", 4, 2, 11)]:
            path = tmp_path / f"{family}{rank}-{level}.json"
            assert cli.main(["build", family, str(rank), str(level),
                             "-o", str(path)]) == 0
            assert f"{count} simple objects" in capsys.readouterr().out

    def test_build_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        cli.main(["build", "A", "3", "2", "-o", str(p1)])
        cli.main(["build", "A", "3", "2", "-o", str(p2)])
        assert p1.read_bytes() == p2.read_bytes()

    def test_cache_dir(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        out = tmp_path / "out.json"
        assert cli.main(["build", "A", "3", "2", "-o", str(out),
                         "--cache-dir", str(cache)]) == 0
        assert (cache / "A3-2.json").exists()
        out2 = tmp_path / "out2.json"
        assert cli.main(["build", "A", "3", "2", "-o", str(out2),
                         "--cache-dir", str(cache)]) == 0
        assert out.read_bytes() == out2.read_bytes()

    def test_cache_dir_made_if_missing(self, tmp_path, capsys):
        cache = tmp_path / "missing" / "cache"
        out = tmp_path / "out.json"
        assert cli.main(["build", "A", "3", "2", "-o", str(out),
                         "--cache-dir", str(cache)]) == 0
        assert (cache / "A3-2.json").read_bytes() == out.read_bytes()

    def test_each_build_serialized_once(self, tmp_path, capsys, monkeypatch):
        plain = tmp_path / "plain.json"
        assert cli.main(["build", "A", "3", "2", "-o", str(plain)]) == 0
        # _canonical_chunks is the one serializer, behind both save_category
        # and dumps_canonical
        calls = []
        serialize, load = catfile._canonical_chunks, catfile.load_category
        monkeypatch.setattr(catfile, "_canonical_chunks",
                            lambda payload: calls.append("serialize") or serialize(payload))
        monkeypatch.setattr(catfile, "load_category",
                            lambda path: calls.append("load") or load(path))
        cache = tmp_path / "cache"
        for name, made in [("miss.json", ["serialize"]),
                           ("hit.json", ["load", "serialize"])]:
            calls.clear()
            assert cli.main(["build", "A", "3", "2", "-o", str(tmp_path / name),
                             "--cache-dir", str(cache)]) == 0
            assert calls == made
        for path in (tmp_path / "miss.json", tmp_path / "hit.json", cache / "A3-2.json"):
            assert path.read_bytes() == plain.read_bytes()

    def test_cache_dir_refuses_a_file_of_another_category(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        stale = cache / "A5-2.json"
        assert cli.main(["build", "A", "3", "2", "-o", str(stale)]) == 0
        capsys.readouterr()
        out = tmp_path / "out.json"
        assert cli.main(["build", "A", "5", "2", "-o", str(out),
                         "--cache-dir", str(cache)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f'error: cached file {stale} has source {{"family": "A", "level": 2, '
            f'"rank": 3}}, not the requested {{"family": "A", "level": 2, "rank": 5}}\n')
        assert not out.exists()

    def test_build_refuses_diagrams_too_large(self, tmp_path, capsys):
        # 31 simples, under MAX_SIMPLES, but 2^31 - 1 weights in their diagrams
        out = tmp_path / "A30-1.json"
        assert cli.main(["build", "A", "30", "1", "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: A30 at level 1 has weight diagrams of 2147483647 weights in all, "
            f"more than the limit of {modular.MAX_DIAGRAM_WEIGHTS}\n")
        assert not out.exists()

    def test_load_check_rejects_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        assert cli.main(["load-check", str(bad)]) == 2

    def test_unknown_subcommand(self):
        assert cli.main(["frobnicate"]) == 2


class TestInvertibles:
    def test_sl6_table(self, a5_file, capsys):
        capsys.readouterr()
        assert cli.main(["invertibles", str(a5_file)]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.startswith("2L")]
        assert len(lines) == 5
        orders = sorted(int(l.split()[1]) for l in lines)
        assert orders == [2, 3, 3, 6, 6]
        assert sum("yes" in l for l in lines) == 3

    def test_deterministic_output(self, a5_file, capsys):
        cli.main(["invertibles", str(a5_file)])
        first = capsys.readouterr().out
        cli.main(["invertibles", str(a5_file)])
        assert capsys.readouterr().out == first

    def test_trivial_category_empty_table(self, tmp_path, capsys):
        trivial = tmp_path / "trivial.json"
        trivial.write_text(json.dumps({
            "schema_version": 1, "source": "external", "simples": ["0"],
            "dual": [0], "fusion": [[0, 0, 0, 1]], "twists": [[0, 1]],
            "qdims": [1.0]}), encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["invertibles", str(trivial)]) == 0
        assert "no non-trivial invertible objects" in capsys.readouterr().out


class TestAutoeq:
    def test_explicit_zeta(self, a3_file, capsys):
        capsys.readouterr()
        assert cli.main(["autoeq", str(a3_file), "2L1", "--zeta=-i"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["M"] == 4 and record["A"] == 2
        assert record["zeta"] == [3, 4]
        assert record["moved"] == {"L1": "L1+L2", "L1+L2": "L1",
                                   "2L1": "2L3", "2L3": "2L1",
                                   "L3": "L2+L3", "L2+L3": "L3"}
        assert record["braided"] is False and record["pivotal"] is True

    def test_all_zetas_reported(self, a3_file, capsys):
        capsys.readouterr()
        assert cli.main(["autoeq", str(a3_file), "2L1"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["zeta"] for r in records] == [[1, 4], [3, 4]]
        assert records[0]["braided"] is True

    def test_coprimality_error(self, a5_file, capsys):
        capsys.readouterr()
        assert cli.main(["autoeq", str(a5_file), "2L1"]) == 1
        err = capsys.readouterr().err
        assert "gcd(A+1, M) = 3" in err
        assert "(A = 2, M = 6) for 2L1" in err

    def test_inadmissible_zeta_lists_admissible(self, a3_file, capsys):
        capsys.readouterr()
        assert cli.main(["autoeq", str(a3_file), "2L1", "--zeta=1/3"]) == 1
        err = capsys.readouterr().err
        assert "admissible" in err and "1/4" in err and "3/4" in err

    def test_unit_identity_report(self, a3_file, capsys):
        capsys.readouterr()
        assert cli.main(["autoeq", str(a3_file), "unit"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert records[0]["moved"] == {}
        assert records[0]["permutation"] == list(range(10))

    @staticmethod
    def count_profiles(monkeypatch):
        made, profile = [], modular.InvertibleProfile

        def counted(**fields):
            made.append(fields["g"])
            return profile(**fields)
        monkeypatch.setattr(modular, "InvertibleProfile", counted)
        return made

    @pytest.mark.parametrize("zeta", [[], ["--zeta=-i"]])
    def test_profile_computed_once(self, a3_file, capsys, monkeypatch, zeta):
        # validate fills data.profiles on load; the command builds no other
        inv = fusion.invertibles(catfile.load_category(a3_file)[0].ring)
        made = self.count_profiles(monkeypatch)
        assert cli.main(["autoeq", str(a3_file), "2L1", *zeta]) == 0
        assert made == inv

    def test_one_profile_per_invertible(self, a3_file, capsys, monkeypatch):
        made = self.count_profiles(monkeypatch)
        data, _ = catfile.load_category(a3_file)
        inv = fusion.invertibles(data.ring)
        assert made == inv
        made.clear()
        assert cli.main(["group", str(a3_file), "2L1=i", "2L1=-i", "2L3=i"]) == 0
        assert made == inv

    def test_unknown_label(self, a3_file, capsys):
        assert cli.main(["autoeq", str(a3_file), "7L9"]) == 2

    def test_non_invertible(self, a3_file, capsys):
        assert cli.main(["autoeq", str(a3_file), "L1"]) == 1


class TestGroup:
    def test_sl6_generators(self, a5_file, capsys):
        capsys.readouterr()
        assert cli.main(["group", str(a5_file), "2L2=2/3", "2L3=-1"]) == 0
        out = capsys.readouterr().out
        assert "Z2 x Z2" in out
        assert "permutation" in out  # the caveat line

    def test_inadmissible_zeta_names_its_generator(self, a5_file, capsys):
        capsys.readouterr()
        assert cli.main(["group", str(a5_file), "2L2=2/3", "2L3=-1", "2L4=1/3"]) == 1
        assert capsys.readouterr().err == (
            "error: zeta = 1/3 is not admissible for 2L4; admissible choices: 2/3\n")

    def test_composite_matches_third_note(self, tmp_path, capsys):
        path = tmp_path / "D4-2.json"
        cli.main(["build", "D", "4", "2", "-o", str(path)])
        capsys.readouterr()
        assert cli.main(["group", str(path), "2L1=-1", "2L3=-1", "2L4=-1"]) == 0
        out = capsys.readouterr().out
        assert "Z2 x Z2" in out
        assert "= F(2L4,1/2)" in out

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_cap_below_one_is_an_input_error(self, a3_file, capsys, cap):
        capsys.readouterr()
        assert cli.main(["group", str(a3_file), "2L1=i", f"--cap={cap}"]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: closure cap must be at least 1, got {cap}\n")

    def test_empty_generator_list(self, a3_file, capsys):
        capsys.readouterr()
        assert cli.main(["group", str(a3_file)]) == 0
        assert "trivial" in capsys.readouterr().out

    def test_bad_generator_syntax(self, a3_file):
        assert cli.main(["group", str(a3_file), "2L1"]) == 2


class TestReproduce:
    @pytest.mark.parametrize("example", ["sl4-2", "sl6-2", "so8-2", "sl4-4-negative"])
    def test_examples_pass(self, example, capsys):
        assert cli.main(["reproduce", example]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("PASS")
        assert "[FAIL]" not in out

    def test_unknown_example(self):
        assert cli.main(["reproduce", "nope"]) == 2
