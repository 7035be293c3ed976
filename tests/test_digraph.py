import random
from collections import Counter
from fractions import Fraction

import pytest

from rollmix.digraph import (
    CapExceeded,
    NoData,
    Unsolvable,
    WeightedDigraph,
    _action_key,
    _walk_hits,
    _walk_rows,
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
from rollmix.model import Rollout, Schema, state


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

    def test_integer_draw_reaches_the_last_unit_of_weight(self):
        # The last target owns only the top integer of [0, total), and
        # total is far above 2**53, where a float draw could not reach it.
        class TopDraw:
            def randrange(self, n):
                self.total = n
                return n - 1

        g = WeightedDigraph()
        g.add_weight(action_node("alpha"), terminal_node("f1"), 2**60)
        g.add_weight(action_node("alpha"), terminal_node("f2"))
        rng = TopDraw()
        assert walk(g, "alpha", rng=rng).terminal == "f2"
        assert rng.total == 2**60 + 1

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


# --- the integer solver against the Fraction solve it replaced ----------------


def _reference_exact_expected_payoff(g, action, payoffs):
    """Gauss-Jordan elimination with partial pivoting over Fraction: the
    absorbing-chain solve that exact_expected_payoff replaced."""
    start = action_node(action)
    if start not in g.weights:
        raise NoData(f"action {action!r} has no recorded successors")
    reachable = {start}
    frontier = [start]
    while frontier:
        for dst in g.out_edges(frontier.pop()):
            if dst not in reachable:
                reachable.add(dst)
                frontier.append(dst)
    can_finish = {n for n in reachable if n[0] == "terminal"}
    grew = True
    while grew:
        grew = False
        for node in reachable:
            if node not in can_finish and any(dst in can_finish for dst in g.out_edges(node)):
                can_finish.add(node)
                grew = True
    stuck = reachable - can_finish
    if stuck:
        raise Unsolvable(f"nodes cannot reach a terminal: {sorted(stuck, key=repr)}")

    classes = sorted((n for n in reachable if n[0] == "class"), key=repr)
    index = {node: i for i, node in enumerate(classes)}
    m = len(classes)
    # Rows: E_i - sum_j p_ij E_j = sum_f p_if * payoff(f)
    matrix = [[Fraction(0)] * (m + 1) for _ in range(m)]
    for node, i in index.items():
        matrix[i][i] = Fraction(1)
        total = g.out_weight(node)
        for dst, w in g.out_edges(node).items():
            prob = Fraction(w, total)
            if dst[0] == "class":
                matrix[i][index[dst]] -= prob
            else:
                matrix[i][m] += prob * payoffs[dst[1]]
    for col in range(m):
        pivot = next(r for r in range(col, m) if matrix[r][col] != 0)
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        inv = 1 / matrix[col][col]
        matrix[col] = [x * inv for x in matrix[col]]
        for r in range(m):
            if r != col and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[col])]
    solution = [matrix[r][m] for r in range(m)]

    total = g.out_weight(start)
    value = Fraction(0)
    for dst, w in g.out_edges(start).items():
        prob = Fraction(w, total)
        value += prob * (solution[index[dst]] if dst[0] == "class" else payoffs[dst[1]])
    return value


def _random_looped_digraph(rng):
    """Actions, classes that may loop (self-loops too) or dead-end, and
    terminals with negative and non-integer payoffs; weights up to 10**12."""
    g = WeightedDigraph()
    classes = [class_node(c) for c in range(1, rng.randint(1, 9))]
    terminals = [terminal_node(f"f{t}") for t in range(rng.randint(1, 3))]
    weight = lambda: rng.choice((1, rng.randint(1, 1000), rng.randint(1, 10**12)))  # noqa: E731
    for node in [action_node(f"a{k}") for k in range(rng.randint(1, 3))] + classes:
        targets = classes + terminals
        dead_end = node[0] == "class" and rng.random() < 0.1
        for dst in rng.sample(targets, rng.randint(0 if dead_end else 1, min(4, len(targets)))):
            g.add_weight(node, dst, weight())
    g.actions.update(a for kind, a in g.weights if kind == "action")
    g.classes.update(c for _, c in classes)
    g.terminals.update(f for _, f in terminals)
    payoffs = {f: Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 720)) for _, f in terminals}
    return g, payoffs


def _assert_solvers_agree(g, payoffs):
    """Both solvers give the same Fraction, or the same Unsolvable message;
    returns, per action, whether it was solved."""
    solved = []
    for action in sorted(g.actions):
        try:
            expected = _reference_exact_expected_payoff(g, action, payoffs)
        except Unsolvable as exc:
            with pytest.raises(Unsolvable) as caught:
                exact_expected_payoff(g, action, payoffs)
            assert str(caught.value) == str(exc)
            solved.append(False)
        else:
            assert exact_expected_payoff(g, action, payoffs) == expected
            solved.append(True)
    return solved


class TestIntegerSolverMatchesReference:
    def test_fixtures(self):
        for pop, payoffs in ((population_a(), payoffs_a()), (population_b(), payoffs_b())):
            assert all(_assert_solvers_agree(build_digraph(pop), payoffs))

    def test_random_looped_digraphs(self):
        rng = random.Random(2024)
        solved, stuck, looped = 0, 0, 0
        for _ in range(300):
            g, payoffs = _random_looped_digraph(rng)
            outcomes = _assert_solvers_agree(g, payoffs)
            solved += any(outcomes)
            stuck += not all(outcomes)
            looped += any(
                src in g.out_edges(dst)
                for src in g.weights if src[0] == "class" for dst in g.out_edges(src)
            )
        assert solved >= 200 and stuck > 0 and looped >= 100

    def test_random_populations_with_fractional_payoffs(self):
        rng = random.Random(83)
        for _ in range(40):
            g = build_digraph(random_population(rng, allow_stateless=True))
            payoffs = {f: Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for f in g.terminals}
            assert all(_assert_solvers_agree(g, payoffs))

    def test_digraph_file(self):
        # Weights far above 2**53 on a 1 <-> 2 loop with a self-loop on 3.
        a, c, f = action_node, class_node, terminal_node
        g = WeightedDigraph()
        for src, dst, w in [
            (a("alpha"), c(1), 3), (a("alpha"), f("f2"), 1), (a("beta"), c(2), 10**18),
            (a("beta"), c(3), 7), (c(1), c(2), 2**62), (c(1), f("f1"), 5),
            (c(2), c(1), 10**17 + 3), (c(2), c(3), 1), (c(3), c(3), 2**55),
            (c(3), f("f2"), 9),
        ]:
            g.add_weight(src, dst, w)
        g.actions.update(("alpha", "beta"))
        g.classes.update((1, 2, 3))
        g.terminals.update(("f1", "f2"))
        assert all(_assert_solvers_agree(g, {"f1": Fraction(-7, 3), "f2": Fraction(5, 11)}))


# --- the walk engine -----------------------------------------------------------


def _draw(key, index, step):
    """The engine's draw for step ``step`` of walk ``index``, one at a time."""
    mask = 2**64 - 1
    z = (key + ((index << 32) + step) * 0x9E3779B97F4A7C15) & mask
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & mask
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
    return z ^ (z >> 31)


def _splitmix64(state, n):
    """The textbook SplitMix64 stream: n outputs from the given state."""
    mask = 2**64 - 1
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = (state ^ (state >> 30)) * 0xBF58476D1CE4E5B9 & mask
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & mask
        out.append(z ^ (z >> 31))
    return out


class KeyedDraws:
    """An rng for ``walk`` that replays the engine's draws for one walk."""

    def __init__(self, key, index):
        self.key, self.index, self.step = key, index, 0

    def randrange(self, n):
        x = _draw(self.key, self.index, self.step)
        self.step += 1
        return x % n


class TestWalkEngine:
    def test_golden_draws(self):
        pinned = {
            (0, "alpha", 0, 0): 0x17A9F5D4A7F13D30,
            (7, "beta", 3, 1): 0xD8D5EC067070DB6B,
            (606, "alpha", 99_999, 2): 0x06E45A3AE6B0CE5A,
            (2**40, "a0", 12, 5): 0x1AA45A4D101719BB,
        }
        for (seed, action, index, step), value in pinned.items():
            assert _draw(_action_key(seed, action), index, step) == value
        # Walk 0 continues the SplitMix64 stream seeded with the action key.
        key = _action_key(7, "beta")
        assert [_draw(key, 0, s) for s in (1, 2, 3)] == _splitmix64(key, 3)

    @pytest.mark.parametrize("cap", [2, 10**6])
    def test_span_invariance(self, cap):
        rng = random.Random(84)
        graphs = [build_digraph(population_b())]
        graphs += [build_digraph(random_population(rng, allow_stateless=True)) for _ in range(5)]
        for g in graphs:
            rows = _walk_rows(g)
            for action in sorted(g.actions):
                start, key = rows.ids[action_node(action)], _action_key(5, action)
                whole = _walk_hits(rows, start, key, range(0, 600), cap)
                left = _walk_hits(rows, start, key, range(0, 217), cap)
                right = _walk_hits(rows, start, key, range(217, 600), cap)
                assert whole[0] == [a + b for a, b in zip(left[0], right[0])]
                assert whole[1] == left[1] + right[1]

    @pytest.mark.parametrize("cap", [3, 10**6])
    def test_payoff_sums_equal_per_walk_fractions(self, cap):
        # Replay every walk through ``walk`` with the engine's draws and
        # accumulate its payoff as a Fraction.
        rng = random.Random(85)
        cases = [(build_digraph(population_b()), {"f1": Fraction(-2, 3), "f2": Fraction(5, 7)})]
        for _ in range(3):
            g = build_digraph(random_population(rng, allow_stateless=True))
            cases.append((g, {f: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for f in g.terminals}))
        for g, payoffs in cases:
            actions = sorted(g.actions)
            report = evaluate_actions(g, actions, 300, payoffs, cap=cap, seed=12)
            for action in actions:
                total, total_sq, n, capped = Fraction(0), Fraction(0), 0, 0
                for i in range(300):
                    try:
                        outcome = walk(g, action, cap, KeyedDraws(_action_key(12, action), i))
                    except CapExceeded:
                        capped += 1
                        continue
                    v = payoffs[outcome.terminal]
                    total, total_sq, n = total + v, total_sq + v * v, n + 1
                ev = report.per_action[action]
                assert (ev.payoff_sum, ev.payoff_sumsq, ev.n, ev.cap_exceeded) == (total, total_sq, n, capped)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_cap_below_one_rejected(self, cap):
        g = build_digraph(population_b())
        with pytest.raises(ValueError):
            evaluate_actions(g, ["alpha"], 10, payoffs_b(), cap=cap, seed=1)
