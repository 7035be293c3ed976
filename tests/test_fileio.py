from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from rollmix import ROOT, Schema
from rollmix.fileio import (
    ParseError,
    SchemaSyntaxError,
    dump_canonical,
    format_rational,
    format_schema,
    load_population,
    parse_rational,
    parse_schema,
    population_to_json,
    read_schemata_file,
    save_population,
)
from rollmix.fixtures import payoffs_a, population_a, population_b
from rollmix.model import InvalidPopulationError

FIXTURES = Path(__file__).parent / "fixtures"


class TestSchemaText:
    def test_wildcard_schema(self):
        assert parse_schema("alpha,1,2,#") == Schema("alpha", (1, 2), "#")

    def test_root(self):
        assert parse_schema("#") == ROOT

    def test_terminal_schema(self):
        assert parse_schema("alpha,1,2,f1") == Schema("alpha", (1, 2), "f1")

    def test_missing_tail_rejected(self):
        with pytest.raises(SchemaSyntaxError) as err:
            parse_schema("alpha,1,2")
        assert "'2'" in str(err.value)

    def test_bad_class_token_pinpointed(self):
        with pytest.raises(SchemaSyntaxError) as err:
            parse_schema("alpha,1,x,#")
        assert "'x'" in str(err.value)

    def test_bare_action_rejected(self):
        with pytest.raises(SchemaSyntaxError):
            parse_schema("alpha")

    def test_numeric_action_rejected(self):
        with pytest.raises(SchemaSyntaxError):
            parse_schema("1,2,#")

    @given(
        st.sampled_from(["alpha", "beta", "act1"]),
        st.lists(st.integers(1, 9), max_size=4),
        st.sampled_from(["#", "f1", "t12", "cap_t3"]),
    )
    def test_print_parse_roundtrip(self, action, classes, tail):
        h = Schema(action, tuple(classes), tail)
        assert parse_schema(format_schema(h)) == h

    def test_root_roundtrip(self):
        assert parse_schema(format_schema(ROOT)) == ROOT

    def test_schemata_file(self, tmp_path):
        f = tmp_path / "schemata.txt"
        f.write_text("alpha,1,2,#\n\n#\nbeta,2,f2\n", encoding="utf-8")
        assert read_schemata_file(f) == [
            Schema("alpha", (1, 2), "#"),
            ROOT,
            Schema("beta", (2,), "f2"),
        ]


class TestRationals:
    def test_parse_forms(self):
        assert parse_rational("3/2") == Fraction(3, 2)
        assert parse_rational("-7") == Fraction(-7)
        assert parse_rational(4) == Fraction(4)

    def test_format(self):
        assert format_rational(Fraction(3, 2)) == "3/2"
        assert format_rational(Fraction(2)) == "2"

    def test_bad_rational(self):
        with pytest.raises(ParseError):
            parse_rational("1/0")
        with pytest.raises(ParseError):
            parse_rational("x")


class TestPopulationFiles:
    def test_shipped_fixtures_load(self):
        pa, payoffs = load_population(FIXTURES / "P_A.json")
        assert pa == population_a()
        assert payoffs == payoffs_a()
        pb, _ = load_population(FIXTURES / "P_B.json")
        assert pb == population_b()

    def test_roundtrip_byte_stable(self, tmp_path):
        src = (FIXTURES / "P_A.json").read_bytes()
        p, payoffs = load_population(FIXTURES / "P_A.json")
        out = tmp_path / "copy.json"
        save_population(out, p, payoffs)
        assert out.read_bytes() == src

    def test_truncated_file(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text('{"rollouts": [', encoding="utf-8")
        with pytest.raises(ParseError):
            load_population(f)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_population(tmp_path / "absent.json")

    def test_duplicate_terminal_file(self, tmp_path):
        f = tmp_path / "dup.json"
        f.write_text(
            '{"rollouts": ['
            '{"action": "a", "states": [[1, "a", 0]], "terminal": "f"},'
            '{"action": "b", "states": [[1, "b", 0]], "terminal": "f"}]}',
            encoding="utf-8",
        )
        with pytest.raises(InvalidPopulationError) as err:
            load_population(f)
        assert err.value.violations[0].kind == "DuplicateTerminal"

    def test_duplicate_state_file(self, tmp_path):
        f = tmp_path / "dup.json"
        f.write_text(
            '{"rollouts": ['
            '{"action": "a", "states": [[1, "a", 0]], "terminal": "f1"},'
            '{"action": "b", "states": [[1, "a", 0]], "terminal": "f2"}]}',
            encoding="utf-8",
        )
        with pytest.raises(InvalidPopulationError) as err:
            load_population(f)
        assert err.value.violations[0].kind == "DuplicateState"

    def test_malformed_state_entry(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(
            '{"rollouts": [{"action": "a", "states": [[1, "a"]], "terminal": "f"}]}',
            encoding="utf-8",
        )
        with pytest.raises(ParseError):
            load_population(f)

    def test_payoffs_survive_roundtrip(self):
        data = population_to_json(population_a(), payoffs_a())
        assert data["payoffs"] == {"f1": "1", "f2": "0", "f3": "2"}

    def test_canonical_dump_is_sorted_and_newline_terminated(self):
        text = dump_canonical({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")


class TestDigraphFiles:
    def test_serialised_form(self):
        from rollmix import build_digraph
        from rollmix.fileio import digraph_to_json

        data = digraph_to_json(build_digraph(population_b()))
        assert data["nodes"] == {
            "actions": ["alpha", "beta"],
            "classes": ["c1", "c2"],
            "terminals": ["f1", "f2"],
        }
        assert ["alpha", "c1", 1] in data["edges"]
        assert ["c1", "c2", 1] in data["edges"]
        assert ["c2", "f1", 1] in data["edges"]

    def test_roundtrip(self):
        from rollmix import build_digraph
        from rollmix.fileio import digraph_from_json, digraph_to_json

        g = build_digraph(population_a())
        data = digraph_to_json(g)
        again = digraph_from_json(data)
        assert digraph_to_json(again) == data
        assert again.weights == g.weights

    def test_loaded_graph_keeps_out_weights(self):
        import random

        from rollmix import build_digraph
        from rollmix.fileio import digraph_from_json, digraph_to_json
        from rollmix.fixtures import random_population

        rng = random.Random(41)
        for _ in range(100):
            p = random_population(rng, max_b=8, max_height=4, allow_stateless=True)
            g = build_digraph(p)
            loaded = digraph_from_json(digraph_to_json(g))
            assert loaded.b == g.b == p.b
            for node, outs in g.weights.items():
                assert g.out_weight(node) == loaded.out_weight(node) == sum(outs.values())

    def test_bad_edge_rejected(self):
        from rollmix.fileio import digraph_from_json

        with pytest.raises(ParseError):
            digraph_from_json({"nodes": {"actions": ["a"]}, "edges": [["a", "c9", 1]]})
        nodes = {"actions": ["a"], "terminals": ["f"]}
        with pytest.raises(ParseError, match="bad edge"):
            digraph_from_json({"nodes": nodes, "edges": [["a", "f", True]]})
        with pytest.raises(ParseError, match="twice"):
            digraph_from_json({"nodes": nodes, "edges": [["a", "f", 1], ["a", "f", 2]]})
        for name in ("c\u00b2", "c\u0661"):
            with pytest.raises(ParseError, match="bad class node"):
                digraph_from_json({"nodes": {"classes": [name]}, "edges": []})
