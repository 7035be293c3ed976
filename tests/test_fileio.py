import json
from fractions import Fraction
from pathlib import Path
from typing import Any

import pytest
from hypothesis import given, settings, strategies as st
from test_cli import _population_documents

from rollmix.fileio import (
    ParseError,
    SchemaSyntaxError,
    dump_canonical,
    format_rational,
    is_json_int,
    load_population,
    parse_rational,
    parse_schema,
    population_from_json,
    population_text,
    population_to_json,
    read_schemata_file,
    save_population,
)
from rollmix.fixtures import payoffs_a, population_a, population_b
from rollmix.model import (
    ROOT,
    InvalidPopulationError,
    Population,
    Rollout,
    Schema,
    StateTag,
    TaggedState,
    validate_population,
)

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

    # Past CPython's int-to-str digit limit int() raises a plain ValueError.
    @pytest.mark.parametrize(
        "text",
        ["alpha,1" + "0" * 4999 + ",#", "alpha," + "9" * 4301 + ",f1", "alpha,1,2," + "7" * 5000 + ",#"],
        ids=["leading", "just-past-limit", "third-class"],
    )
    def test_over_long_class_token_is_a_syntax_error(self, text):
        with pytest.raises(SchemaSyntaxError) as err:
            parse_schema(text)
        assert str(err.value).startswith("bad class token")

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
        assert parse_schema(str(h)) == h

    def test_root_roundtrip(self):
        assert parse_schema(str(ROOT)) == ROOT

    def test_schemata_file(self, tmp_path):
        f = tmp_path / "schemata.txt"
        f.write_text("alpha,1,2,#\n\n#\nbeta,2,f2\n", encoding="utf-8")
        assert read_schemata_file(f) == [
            Schema("alpha", (1, 2), "#"),
            ROOT,
            Schema("beta", (2,), "f2"),
        ]

    def test_schemata_file_with_byte_order_mark(self, tmp_path):
        # Editors that save "UTF-8 with BOM" prefix the first line with
        # U+FEFF, which is not whitespace and would join the first action.
        f = tmp_path / "schemata.txt"
        f.write_bytes(b"\xef\xbb\xbfalpha,1,#\nalpha,#\n")
        assert read_schemata_file(f) == [Schema("alpha", (1,), "#"), Schema("alpha", (), "#")]


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

    # Fraction would expand the exponent into a power of ten first:
    # "1e10000000" took seconds.
    @pytest.mark.parametrize("text", ["1e4301", "-1E5000", "1e-5000", "2.5e+4_301", "1e10000000"])
    def test_exponent_past_the_bound_is_rejected(self, text):
        with pytest.raises(ParseError, match="bad rational"):
            parse_rational(text)

    @pytest.mark.parametrize(
        "text, value",
        [("1e400", Fraction(10**400)), ("-1e-4300", Fraction(-1, 10**4300)), ("2.5e3", Fraction(2500)),
         ("1e0_3", Fraction(1000)), ("1.5", Fraction(3, 2))],
    )
    def test_exponent_within_the_bound_parses(self, text, value):
        assert parse_rational(text) == value


class TestPopulationFiles:
    def test_shipped_fixtures_load(self):
        pa, payoffs = load_population(FIXTURES / "P_A.json")
        assert pa == population_a()
        assert payoffs == payoffs_a()
        pb, _ = load_population(FIXTURES / "P_B.json")
        assert pb == population_b()

    def test_roundtrip_byte_stable(self, tmp_path):
        for name in ("P_A.json", "P_B.json"):
            src = (FIXTURES / name).read_bytes()
            p, payoffs = load_population(FIXTURES / name)
            out = tmp_path / name
            save_population(out, p, payoffs)
            assert out.read_bytes() == src
            assert src.decode("utf-8") == dump_canonical(population_to_json(p, payoffs))

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


# Labels json must escape (quotes, backslashes, control characters) or may
# write raw (non-ASCII, U+2028), next to plain ones.
_LABEL = st.one_of(
    st.text(min_size=1, max_size=4),
    st.sampled_from(["f1", "alpha", '"', "\\", "a\"b\\c", "\x00", "\x1f\t\n", "\u2028", "\u00e9t\u00e9", "\U0001d11e"]),
)
_PAYOFF_VALUE = st.one_of(
    st.fractions(),
    st.integers(-(10**30), 10**30).map(Fraction),
    st.sampled_from([Fraction(10**30), Fraction(-7, 3), Fraction(0)]),
)


@st.composite
def _populations_with_payoffs(draw):
    """A valid population and a payoff map (None, empty, or keyed by its
    terminals and other labels).  Rollouts share out the drawn states round
    robin, so rollouts past the last state are stateless."""
    states = draw(st.lists(st.tuples(st.integers(1, 2**40), _LABEL, st.integers(0, 3)), unique=True, max_size=12))
    terminals = draw(st.lists(_LABEL, min_size=1, max_size=6, unique=True))
    rollouts = []
    for k, terminal in enumerate(terminals):
        tagged = tuple(TaggedState(cls, StateTag(sym, copy)) for cls, sym, copy in states[k :: len(terminals)])
        rollouts.append(Rollout(draw(_LABEL), tagged, terminal))
    labels = st.sampled_from(terminals) | _LABEL
    payoffs = draw(st.none() | st.dictionaries(labels, _PAYOFF_VALUE, max_size=8))
    return validate_population(rollouts), payoffs


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_populations_with_payoffs())
def test_population_text_is_byte_identical_to_json_dumps(case):
    p, payoffs = case
    text = population_text(p, payoffs)
    assert text == json.dumps(population_to_json(p, payoffs), sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert population_from_json(json.loads(text)) == (p, dict(payoffs or {}))


def _reference_population_from_json(data: Any) -> tuple[Population, dict]:
    """The loader as it was before it became one pass: a helper per state
    and one parse_rational call per payoff."""

    def state_from_json(entry: Any, where: str) -> TaggedState:
        if (
            not isinstance(entry, list)
            or len(entry) != 3
            or not is_json_int(entry[0])
            or not isinstance(entry[1], str)
            or not is_json_int(entry[2])
        ):
            raise ParseError(f"{where}: state entries are [class, tag, copy] triples, got {entry!r}")
        try:
            return TaggedState(entry[0], StateTag(entry[1], entry[2]))
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from None

    if not isinstance(data, dict) or "rollouts" not in data:
        raise ParseError("population files are objects with a 'rollouts' list")
    raw_rollouts = data["rollouts"]
    if not isinstance(raw_rollouts, list):
        raise ParseError("'rollouts' must be a list")
    rollouts: list[Rollout] = []
    for i, entry in enumerate(raw_rollouts):
        where = f"rollout {i}"
        if not isinstance(entry, dict):
            raise ParseError(f"{where}: must be an object")
        try:
            action = entry["action"]
            terminal = entry["terminal"]
        except KeyError as exc:
            raise ParseError(f"{where}: missing field {exc}") from None
        states = entry.get("states", [])
        if not isinstance(states, list):
            raise ParseError(f"{where}: 'states' must be a list")
        if not isinstance(action, str) or not isinstance(terminal, str):
            raise ParseError(f"{where}: action and terminal are strings")
        parsed = tuple(state_from_json(s, where) for s in states)
        try:
            rollouts.append(Rollout(action, parsed, terminal))
        except ValueError as exc:
            raise ParseError(f"{where}: {exc}") from None
    raw_payoffs = data.get("payoffs", {})
    if not isinstance(raw_payoffs, dict):
        raise ParseError("'payoffs' must be an object")
    payoffs = {name: parse_rational(value) for name, value in raw_payoffs.items()}
    population = validate_population(rollouts)
    return population, payoffs


class _IntSub(int):
    def __repr__(self) -> str:
        return f"_IntSub({int(self)})"


class _StrSub(str):
    def __repr__(self) -> str:
        return f"_StrSub({str(self)!r})"


def _outcome(load, data):
    try:
        return load(data)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(data=_population_documents())
def test_loader_agrees_with_the_reference(data):
    """Valid and malformed documents (bools, huge ints, unhashable payoffs,
    duplicates): the same population and payoffs, or the same error."""
    assert _outcome(population_from_json, data) == _outcome(_reference_population_from_json, data)


@pytest.mark.parametrize(
    "data",
    [
        {"rollouts": [{"action": "a", "states": [[0, "a", 0]], "terminal": "f"}]},
        {"rollouts": [{"action": "a", "states": [[1, "", 0]], "terminal": "f"}]},
        {"rollouts": [{"action": "a", "states": [[1, "a", -1]], "terminal": "f"}]},
        {"rollouts": [{"action": "", "states": [], "terminal": "f"}]},
        {"rollouts": [{"action": "a", "terminal": ""}]},
        {"rollouts": [{"action": "a", "terminal": "f"}], "payoffs": {"f": "1/3", "g": "1/3", "h": "1/0"}},
        {"rollouts": [{"action": "a", "terminal": "f"}], "payoffs": {"f": 2, "g": "2", "h": True, "i": 1.0}},
        {"rollouts": [{"action": "a", "terminal": "f"}], "payoffs": {"f": [1], "g": {"p": 1}}},
        {"rollouts": []},
        # Entries the unchecked path must leave to the checked one.
        *(
            {"rollouts": [{"action": "a", "states": [[2, "b", 0], entry], "terminal": "f"}]}
            for entry in (
                [True, "a", 0],
                [1, "a", False],
                [1.0, "a", 0],
                [_IntSub(1), "a", 0],
                [1, _StrSub("a"), 0],
                [1, "a"],
                [1, "a", 0, 0],
                (1, "a", 0),
            )
        ),
    ],
    ids=repr,
)
def test_loader_agrees_with_the_reference_on_edge_documents(data):
    assert _outcome(population_from_json, data) == _outcome(_reference_population_from_json, data)
