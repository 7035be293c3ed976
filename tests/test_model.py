import random

import pytest
from hypothesis import given, settings, strategies as st

from rollmix.model import (
    InvalidPopulationError,
    Population,
    ROOT,
    Rollout,
    Schema,
    StateTag,
    TaggedState,
    inflate,
    is_homologous,
    population_violations,
    schema_count,
    schema_match,
    state,
    validate_population,
)
from rollmix.fixtures import population_a, population_b, random_population


class TestValidation:
    def test_fixture_a_is_valid(self):
        assert not population_violations(population_a().rollouts)

    def test_duplicate_state_reported(self):
        rollouts = [
            Rollout("alpha", (state(1, "a"),), "f1"),
            Rollout("beta", (state(1, "a"),), "f2"),
        ]
        violations = population_violations(rollouts)
        assert [v.kind for v in violations] == ["DuplicateState"]
        assert violations[0].rollouts == (0, 1)
        with pytest.raises(InvalidPopulationError):
            validate_population(rollouts)

    def test_duplicate_terminal_reported(self):
        rollouts = [
            Rollout("alpha", (state(1, "a"),), "f1"),
            Rollout("beta", (state(1, "b"),), "f1"),
        ]
        violations = population_violations(rollouts)
        assert [v.kind for v in violations] == ["DuplicateTerminal"]

    def test_within_rollout_duplicate_is_a_state_violation(self):
        rollouts = [Rollout("alpha", (state(1, "a"), state(1, "a")), "f1")]
        violations = population_violations(rollouts)
        assert violations[0].kind == "DuplicateState"
        assert violations[0].rollouts == (0, 0)

    def test_empty_population(self):
        assert population_violations([])[0].kind == "EmptyPopulation"
        with pytest.raises(InvalidPopulationError):
            Population(())

    def test_all_violations_listed(self):
        rollouts = [
            Rollout("alpha", (state(1, "a"),), "f1"),
            Rollout("beta", (state(1, "a"),), "f1"),
        ]
        kinds = sorted(v.kind for v in population_violations(rollouts))
        assert kinds == ["DuplicateState", "DuplicateTerminal"]


class TestTaggedStates:
    # Tags and tagged states are tuples, so populations hash, compare and
    # sort them in C; they must keep the value semantics of the frozen,
    # ordered dataclasses they replaced.
    def test_hashes_are_those_of_the_field_tuples(self):
        assert hash(StateTag("ab", 3)) == hash(("ab", 3))
        assert hash(TaggedState(2, StateTag("c"))) == hash((2, StateTag("c")))
        assert hash(TaggedState(2, StateTag("c"))) == hash((2, ("c", 0)))

    def test_sort_by_fields(self):
        rng = random.Random(5)
        fields = [(cls, sym, copy) for cls in (1, 2, 10) for sym in ("a", "b", "aa") for copy in (0, 1, 12)]
        states = [TaggedState(cls, StateTag(sym, copy)) for cls, sym, copy in fields]
        rng.shuffle(states)
        assert [(s.cls, s.tag.symbol, s.tag.copy) for s in sorted(states)] == sorted(fields)
        tags = [s.tag for s in states]
        assert [(t.symbol, t.copy) for t in sorted(tags)] == sorted((t.symbol, t.copy) for t in tags)

    def test_repr_and_str(self):
        assert repr(state(1, "a")) == "TaggedState(cls=1, tag=StateTag(symbol='a', copy=0))"
        assert str(state(1, "a")) == "(1,a)"
        assert str(state(4, "zz", 2)) == "(4,zz@2)"

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: StateTag(""), "tag symbol must be non-empty"),
            (lambda: StateTag("a", -1), "copy index must be >= 0"),
            (lambda: TaggedState(0, StateTag("a")), "class ids are positive integers"),
        ],
    )
    def test_checks(self, build, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()

    def test_immutable(self):
        s = state(1, "a")
        with pytest.raises(AttributeError):
            s.cls = 2  # type: ignore[misc]
        with pytest.raises(AttributeError):
            s.tag.copy = 1  # type: ignore[misc]

    def test_keyword_construction(self):
        assert TaggedState(cls=3, tag=StateTag(symbol="b")) == state(3, "b")
        assert StateTag(symbol="b", copy=2) == StateTag("b", 2)
        assert StateTag("b").copy == 0


class TestHomologous:
    def test_fixture_a(self):
        assert is_homologous(population_a())

    def test_fixture_b(self):
        # class 1 appears at positions one and two
        assert not is_homologous(population_b())

    def test_single_rollout(self):
        p = validate_population([Rollout("alpha", (state(1, "a"), state(2, "a")), "f")])
        assert is_homologous(p)


class TestInflate:
    def test_factor_one_is_identity(self):
        assert inflate(population_a(), 1) == population_a()

    def test_counts(self):
        q = inflate(population_a(), 3)
        assert q.b == 9
        assert sum(r.height for r in q.rollouts) == 18
        assert not population_violations(q.rollouts)

    def test_preserves_homologous(self):
        assert is_homologous(inflate(population_a(), 3))
        assert not is_homologous(inflate(population_b(), 2))

    def test_wildcard_counts_scale(self):
        rng = random.Random(5)
        h = Schema("alpha", (1,), "#")
        for _ in range(25):
            p = random_population(rng)
            for m in (1, 2, 3):
                q = inflate(p, m)
                assert schema_count(h, q) == m * schema_count(h, p)
                assert schema_count(ROOT, q) == m * p.b

    def test_terminal_tails_keep_original_copy(self):
        q = inflate(population_a(), 2)
        assert schema_count(Schema("alpha", (1, 2), "f1"), q) == 1
        assert {r.terminal for r in q.rollouts} == {
            "f1", "f2", "f3", "f1@1", "f2@1", "f3@1",
        }

    def test_colliding_terminal_names_survive_inflation(self):
        p = validate_population(
            [
                Rollout("alpha", (state(1, "a"),), "f"),
                Rollout("alpha", (state(1, "b"),), "f@1"),
            ]
        )
        q = inflate(p, 2)
        assert q.b == 4
        assert len(set(q.terminals())) == 4
        assert not population_violations(q.rollouts)


class TestSchemaMatch:
    def test_wildcard_allows_longer_rollouts(self):
        h = Schema("alpha", (1, 2), "#")
        r = Rollout(
            "alpha", (state(1, "a"), state(2, "c"), state(5, "a"), state(3, "c")), "f"
        )
        assert schema_match(h, r)

    def test_action_must_agree(self):
        h = Schema("alpha", (1, 2), "#")
        r = Rollout(
            "beta", (state(1, "a"), state(2, "c"), state(5, "a"), state(3, "c")), "f"
        )
        assert not schema_match(h, r)

    def test_class_prefix_must_agree(self):
        h = Schema("alpha", (1, 2), "#")
        r = Rollout(
            "alpha", (state(1, "a"), state(3, "a"), state(5, "a"), state(3, "c")), "f"
        )
        assert not schema_match(h, r)

    def test_terminal_tail_requires_exact_length(self):
        h = Schema("alpha", (1, 2), "f")
        long = Rollout(
            "alpha", (state(1, "a"), state(2, "c"), state(5, "a"), state(3, "c")), "f"
        )
        exact = Rollout("alpha", (state(1, "c"), state(2, "b")), "f")
        assert not schema_match(h, long)
        assert schema_match(h, exact)

    def test_root_matches_everything(self):
        assert schema_match(ROOT, Rollout("zeta", (), "t"))

    def test_wildcard_matches_zero_continuation(self):
        h = Schema("alpha", (1,), "#")
        assert schema_match(h, Rollout("alpha", (state(1, "a"),), "f"))

    def test_counts_on_fixtures(self):
        assert schema_count(ROOT, population_a()) == 3
        assert schema_count(Schema("alpha", (1,), "#"), population_a()) == 2
        assert schema_count(Schema("beta", (2,), "#"), population_b()) == 1


@st.composite
def rollouts_and_prefix(draw):
    length = draw(st.integers(1, 5))
    classes = [draw(st.integers(1, 4)) for _ in range(length)]
    states = tuple(state(c, f"s{i}") for i, c in enumerate(classes))
    r = Rollout("alpha", states, "f")
    cut = draw(st.integers(0, length))
    return r, tuple(classes[:cut])


@given(rollouts_and_prefix())
@settings(max_examples=200)
def test_terminal_match_implies_wildcard_match(case):
    r, prefix = case
    exact = Schema("alpha", r.classes, "f")
    assert schema_match(exact, r)
    assert schema_match(Schema("alpha", r.classes, "#"), r)
    assert schema_match(Schema("alpha", prefix, "#"), r)


def test_schema_count_never_exceeds_population_size():
    rng = random.Random(11)
    for _ in range(50):
        p = random_population(rng, allow_stateless=True)
        for h in (ROOT, Schema("alpha", (1,), "#"), Schema("beta", (2, 1), "f1")):
            assert 0 <= schema_count(h, p) <= p.b
