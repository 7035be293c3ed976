import random
from collections import Counter
from fractions import Fraction

from rollmix.digraph import action_node, class_node, terminal_node
from rollmix.fixtures import population_a, population_b, random_population
from rollmix.model import ROOT, Schema
from rollmix.recombine import apply_transform, generator_index
from rollmix.stats import (
    down_report,
    frequency_children,
    limiting_frequency,
    limiting_frequency_from_report,
)


def successions(p):
    """(predecessor, successor) counts tallied straight from the rollouts;
    the action opens each rollout and its terminal closes it."""
    counts = Counter()
    for r in p.rollouts:
        path = [action_node(r.action), *map(class_node, r.classes), terminal_node(r.terminal)]
        counts.update(zip(path, path[1:]))
    return counts


class TestDownReport:
    def test_fixture_a_counts(self):
        g = down_report(population_a())
        assert g.b == 3
        assert g.successors(action_node("alpha")) == ([1], [])
        assert g.edge_weight(action_node("alpha"), class_node(1)) == 2
        assert g.edge_weight(action_node("beta"), class_node(1)) == 1
        assert g.successors(class_node(1)) == ([2], [])
        assert g.edge_weight(class_node(1), class_node(2)) == 3
        assert g.successors(class_node(2)) == ([], ["f1", "f2", "f3"])
        assert g.out_weight(class_node(1)) == g.out_weight(class_node(2)) == 3

    def test_fixture_b_counts(self):
        g = down_report(population_b())
        assert g.successors(class_node(1)) == ([2], ["f2"])
        assert g.edge_weight(class_node(1), class_node(2)) == 1
        assert g.successors(class_node(2)) == ([1], ["f1"])
        assert g.edge_weight(class_node(2), class_node(1)) == 1

    def test_absent_pairs_are_zero(self):
        g = down_report(population_a())
        assert g.edge_weight(class_node(2), class_node(1)) == 0
        assert g.edge_weight(class_node(7), class_node(1)) == 0
        assert g.edge_weight(action_node("alpha"), class_node(9)) == 0
        assert g.out_weight(class_node(9)) == 0
        assert g.successors(class_node(9)) == ([], [])

    def test_occurrence_identity(self):
        rng = random.Random(21)
        for _ in range(100):
            p = random_population(rng, allow_stateless=True)
            g = down_report(p)
            counts = successions(p)
            for cls in p.class_ids():
                node = class_node(cls)
                expected = sum(1 for _, _, s in p.states() if s.cls == cls)
                outgoing = sum(n for (src, _), n in counts.items() if src == node)
                assert g.out_weight(node) == expected == outgoing
                classes, terminals = g.successors(node)
                assert outgoing == sum(counts[node, class_node(j)] for j in classes) + len(terminals)

    def test_terminal_counts_sum_to_population_size(self):
        rng = random.Random(22)
        for _ in range(100):
            p = random_population(rng)
            g = down_report(p)
            assert sum(len(g.successors(class_node(i))[1]) for i in g.classes) == p.b

    def test_action_order_totals(self):
        rng = random.Random(23)
        for _ in range(50):
            p = random_population(rng, allow_stateless=True)
            g = down_report(p)
            assert g.b == p.b
            for action in g.actions:
                node = action_node(action)
                classes, terminals = g.successors(node)
                starts = Counter(r.classes[0] for r in p.rollouts if r.action == action and r.classes)
                assert {j: g.edge_weight(node, class_node(j)) for j in classes} == starts
                stateless = sorted(r.terminal for r in p.rollouts if r.action == action and not r.classes)
                assert terminals == stateless
                assert sum(starts.values()) + len(stateless) == g.out_weight(node)


class TestLimitingFrequency:
    def test_fixture_a_pinned_value(self):
        assert limiting_frequency(population_a(), Schema("alpha", (1, 2), "f1")) == Fraction(2, 9)

    def test_fixture_b_pinned_value(self):
        assert limiting_frequency(population_b(), Schema("alpha", (1, 2), "f1")) == Fraction(1, 8)

    def test_root_is_one(self):
        rng = random.Random(31)
        for _ in range(10):
            assert limiting_frequency(random_population(rng), ROOT) == 1

    def test_absent_class_gives_zero(self):
        assert limiting_frequency(population_a(), Schema("alpha", (5,), "#")) == 0

    def test_absent_action_gives_zero(self):
        assert limiting_frequency(population_a(), Schema("omega", (1,), "#")) == 0

    def test_terminal_not_following_gives_zero(self):
        # f1 never follows class 1 in the loop fixture
        assert limiting_frequency(population_b(), Schema("alpha", (1,), "f1")) == 0

    def test_action_only_wildcard(self):
        assert limiting_frequency(population_a(), Schema("alpha", (), "#")) == Fraction(2, 3)
        assert limiting_frequency(population_b(), Schema("beta", (), "#")) == Fraction(1, 2)

    def test_values_within_unit_interval_and_tail_bound(self):
        rng = random.Random(32)
        for _ in range(50):
            p = random_population(rng, allow_stateless=True)
            g = down_report(p)
            for action in {"alpha", "beta"}:
                for classes in [(), (1,), (1, 2), (2, 2)]:
                    open_h = Schema(action, classes, "#")
                    open_f = limiting_frequency_from_report(g, open_h)
                    assert 0 <= open_f <= 1
                    for terminal in p.terminals():
                        closed = Schema(action, classes, terminal)
                        closed_f = limiting_frequency_from_report(g, closed)
                        assert 0 <= closed_f <= open_f

    def test_action_level_totals(self):
        rng = random.Random(33)
        for _ in range(50):
            p = random_population(rng)
            g = down_report(p)
            for action in {r.action for r in p.rollouts}:
                total = sum(
                    limiting_frequency_from_report(g, Schema(action, (i,), "#"))
                    for i in p.class_ids()
                )
                share = Fraction(sum(1 for r in p.rollouts if r.action == action), p.b)
                assert total == share


class TestFrequencyChildren:
    def test_fixture_a_one_step(self):
        children = frequency_children(population_a(), Schema("alpha", (1,), "#"))
        assert children == {Schema("alpha", (1, 2), "#"): Fraction(2, 3)}

    def test_fixture_b_splits_between_class_and_terminal(self):
        children = frequency_children(population_b(), Schema("alpha", (1,), "#"))
        assert children == {
            Schema("alpha", (1, 2), "#"): Fraction(1, 4),
            Schema("alpha", (1,), "f2"): Fraction(1, 4),
        }

    def test_fixture_a_terminal_fanout(self):
        children = frequency_children(population_a(), Schema("alpha", (1, 2), "#"))
        assert children == {
            Schema("alpha", (1, 2), f): Fraction(2, 9) for f in ("f1", "f2", "f3")
        }

    def test_root_children_partition_unity(self):
        rng = random.Random(41)
        for _ in range(30):
            p = random_population(rng, allow_stateless=True)
            children = frequency_children(p, ROOT)
            assert sum(children.values(), Fraction(0)) == 1

    def test_flow_conservation_random(self):
        rng = random.Random(42)
        for _ in range(60):
            p = random_population(rng, allow_stateless=True)
            for action in {r.action for r in p.rollouts}:
                for classes in [(), (1,), (2,), (1, 2), (3, 1)]:
                    h = Schema(action, classes, "#")
                    parent = limiting_frequency(p, h)
                    children = frequency_children(p, h)
                    assert sum(children.values(), Fraction(0)) == parent


def test_report_invariant_under_transform_sequences():
    rng = random.Random(51)
    for _ in range(40):
        p = random_population(rng)
        reference = down_report(p).weights
        gens = generator_index(p)
        q = p
        for _ in range(60):
            q = apply_transform(q, gens[rng.randrange(len(gens))])
        assert down_report(q).weights == reference
