import random
from collections import Counter
from fractions import Fraction

import pytest

from rollmix import Rollout, Schema, state, validate_population
from rollmix.digraph import (
    CapExceeded,
    NoData,
    Unsolvable,
    WeightedDigraph,
    action_node,
    build_digraph,
    class_node,
    evaluate_actions,
    exact_expected_payoff,
    path_probability,
    terminal_node,
    walk,
)
from rollmix.fixtures import (
    payoffs_a,
    payoffs_b,
    population_a,
    population_b,
    random_population,
)


class TestIngest:
    def test_loop_fixture_edges(self):
        g = build_digraph(population_b())
        expected = {
            (action_node("alpha"), class_node(1)): 1,
            (class_node(1), class_node(2)): 1,
            (class_node(2), terminal_node("f1")): 1,
            (action_node("beta"), class_node(2)): 1,
            (class_node(2), class_node(1)): 1,
            (class_node(1), terminal_node("f2")): 1,
        }
        actual = {
            (src, dst): w
            for src, outs in g.weights.items()
            for dst, w in outs.items()
        }
        assert actual == expected

    def test_succession_weight_accumulates(self):
        g = build_digraph(population_a())
        assert g.edge_weight(class_node(1), class_node(2)) == 3

    def test_double_ingest_doubles(self):
        r = population_b().rollouts[0]
        g = WeightedDigraph()
        g.ingest(r)
        once = {src: dict(outs) for src, outs in g.weights.items()}
        g.ingest(r)
        for src, outs in g.weights.items():
            for dst, w in outs.items():
                assert w == 2 * once[src][dst]

    def test_stateless_rollout_makes_action_terminal_edge(self):
        g = WeightedDigraph()
        g.ingest(Rollout("alpha", (), "f9"))
        assert g.edge_weight(action_node("alpha"), terminal_node("f9")) == 1

    def test_order_independent(self):
        p = population_a()
        g1 = build_digraph(p)
        g2 = WeightedDigraph()
        for r in reversed(p.rollouts):
            g2.ingest(r)
        assert g1.weights == g2.weights

    def test_class_nodes_always_lead_to_some_terminal(self):
        # structural guarantee for population-built graphs: every class node
        # has an outgoing edge, and a terminal sink is reachable from every
        # node an action can reach
        rng = random.Random(82)
        for _ in range(40):
            p = random_population(rng, allow_stateless=True)
            g = build_digraph(p)
            for cls in g.classes:
                assert g.out_weight(class_node(cls)) > 0
            for action in g.actions:
                exact_expected_payoff(
                    g, action, {t: Fraction(0) for t in g.terminals}
                )  # raises Unsolvable if a reachable node is stuck

    def test_weights_match_succession_statistics(self):
        # Recount every succession from the rollouts themselves: class to
        # class, action to first class, and last state (or action) to terminal.
        rng = random.Random(81)
        for _ in range(60):
            p = random_population(rng, allow_stateless=True)
            g = build_digraph(p)
            order, starts, ends = Counter(), Counter(), Counter()
            for r in p.rollouts:
                order.update(zip(r.classes, r.classes[1:]))
                starts[r.action, r.classes[0] if r.classes else r.terminal] += 1
                ends[r.classes[-1] if r.classes else r.action, r.terminal] += 1
            for (i, j), n in order.items():
                assert g.edge_weight(class_node(i), class_node(j)) == n
            for (a, first), n in starts.items():
                dst = class_node(first) if isinstance(first, int) else terminal_node(first)
                assert g.edge_weight(action_node(a), dst) == n
            for (last, f), n in ends.items():
                src = class_node(last) if isinstance(last, int) else action_node(last)
                assert g.edge_weight(src, terminal_node(f)) == n
            edges = sum(len(outs) for outs in g.weights.values())
            assert edges == len(order) + len(starts) + len(ends) - sum(
                1 for r in p.rollouts if not r.classes
            )
            assert g.b == p.b


class TestWalk:
    def test_forced_path_terminal_distribution_exact(self):
        g = build_digraph(population_a())
        for f in ("f1", "f2", "f3"):
            assert path_probability(g, Schema("alpha", (1, 2), f)) == Fraction(1, 3)
        assert path_probability(g, Schema("alpha", (1, 2), "#")) == 1

    def test_no_data(self):
        g = build_digraph(population_b())
        with pytest.raises(NoData):
            walk(g, "omega")

    def test_cap_exceeded(self):
        g = build_digraph(population_b())
        with pytest.raises(CapExceeded):
            walk(g, "alpha", cap=1, rng=random.Random(3))

    def test_walks_reach_terminals(self):
        g = build_digraph(population_b())
        rng = random.Random(4)
        for _ in range(200):
            outcome = walk(g, "alpha", cap=10**6, rng=rng)
            assert outcome.terminal in {"f1", "f2"}
            assert outcome.steps >= 2

    def test_missing_edge_has_zero_path_probability(self):
        g = build_digraph(population_a())
        assert path_probability(g, Schema("alpha", (2,), "#")) == 0


class TestExactExpectedPayoff:
    def test_loop_fixture_values(self):
        g = build_digraph(population_b())
        assert exact_expected_payoff(g, "alpha", payoffs_b()) == Fraction(1, 3)
        assert exact_expected_payoff(g, "beta", payoffs_b()) == Fraction(2, 3)

    def test_direct_absorption(self):
        g = WeightedDigraph()
        g.ingest(Rollout("alpha", (), "f"))
        assert exact_expected_payoff(g, "alpha", {"f": Fraction(7, 2)}) == Fraction(7, 2)

    def test_forced_path_fixture(self):
        g = build_digraph(population_a())
        assert exact_expected_payoff(g, "alpha", payoffs_a()) == 1
        assert exact_expected_payoff(g, "beta", payoffs_a()) == 1

    def test_unsolvable_cycle(self):
        g = WeightedDigraph()
        g.actions.add("alpha")
        g.classes.update({1, 2})
        g.add_weight(action_node("alpha"), class_node(1))
        g.add_weight(class_node(1), class_node(2))
        g.add_weight(class_node(2), class_node(1))
        with pytest.raises(Unsolvable):
            exact_expected_payoff(g, "alpha", {})

    def test_unknown_action(self):
        g = build_digraph(population_b())
        with pytest.raises(NoData):
            exact_expected_payoff(g, "omega", payoffs_b())


class TestEvaluateActions:
    def test_zero_walks_gives_empty_table(self):
        g = build_digraph(population_b())
        report = evaluate_actions(g, ["alpha", "beta"], 0, payoffs_b(), seed=1)
        assert report.per_action == {}

    def test_duplicate_actions_merged(self):
        g = build_digraph(population_b())
        report = evaluate_actions(g, ["alpha", "alpha"], 100, payoffs_b(), seed=6)
        assert report.per_action["alpha"].n == 100

    def test_payoff_map_must_be_total(self):
        g = build_digraph(population_b())
        with pytest.raises(ValueError):
            evaluate_actions(g, ["alpha"], 10, {"f1": Fraction(1)}, seed=7)

    def test_estimates_near_oracle(self):
        g = build_digraph(population_b())
        report = evaluate_actions(g, ["alpha", "beta"], 20_000, payoffs_b(), seed=8)
        for action in ("alpha", "beta"):
            ev = report.per_action[action]
            exact = exact_expected_payoff(g, action, payoffs_b())
            se = ev.stddev / ev.n**0.5
            assert abs(float(ev.mean) - float(exact)) <= 3 * se
            assert ev.cap_exceeded == 0

    def test_workers_produce_identical_results(self):
        g = build_digraph(population_b())
        serial = evaluate_actions(g, ["alpha", "beta"], 2_000, payoffs_b(), seed=9, workers=1)
        parallel = evaluate_actions(g, ["alpha", "beta"], 2_000, payoffs_b(), seed=9, workers=3)
        for action in ("alpha", "beta"):
            assert serial.per_action[action] == parallel.per_action[action]

    def test_capped_walks_counted_and_excluded(self):
        g = build_digraph(population_b())
        report = evaluate_actions(g, ["alpha"], 50, payoffs_b(), cap=2, seed=10)
        ev = report.per_action["alpha"]
        assert ev.cap_exceeded > 0
        assert ev.n + ev.cap_exceeded == 50


def test_walk_path_probability_reproduces_limiting_frequency():
    # Conditioned on the start action, the walk's chance of tracing a
    # schema's class path and terminal, rescaled by (action rollouts)/b
    # against the action's out-weight, is the succession product
    # count(a -> c1)/b * prod count(c_{q-1} -> c_q)/occ(c_{q-1}) * 1/occ(ck),
    # recounted here from the rollouts; the closed form gives it too.
    from rollmix.stats import limiting_frequency

    rng = random.Random(91)
    for _ in range(40):
        p = random_population(rng)
        g = build_digraph(p)
        order, occ = Counter(), Counter()
        for r in p.rollouts:
            order.update(zip((r.action,) + r.classes, r.classes))
            occ.update(r.classes)
        for r in p.rollouts:
            h = Schema(r.action, r.classes, r.terminal)
            product = Fraction(order[r.action, r.classes[0]], p.b) / occ[r.classes[-1]]
            for prev, cur in zip(r.classes, r.classes[1:]):
                product *= Fraction(order[prev, cur], occ[prev])
            out_weight = g.out_weight(action_node(r.action))
            assert path_probability(g, h) * Fraction(out_weight, p.b) == product
            assert limiting_frequency(p, h) == product


def test_pinned_link_between_walk_and_frequency():
    g = build_digraph(population_a())
    assert path_probability(g, Schema("alpha", (1, 2), "f1")) * Fraction(2, 3) == Fraction(2, 9)
