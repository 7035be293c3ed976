"""Weighted succession digraph and the walker-based action evaluator.

Rollouts stream into a directed graph whose nodes are action sources,
similarity classes, and terminal sinks.  Each observed succession bumps
the corresponding edge weight by one, so after ingesting a population the
edge weights are its succession counts; they are the only store of those
counts, which the closed-form frequency (:mod:`rollmix.stats`) reads too.
Independent walkers ("bugs") start at an action and move along outgoing
edges with probability proportional to edge weight until they hit a
terminal sink.  An action's value is the exact mean of the payoffs its
walkers collect, summed as rationals, which equals the running-mean update
Q := n/(n+1) * Q + payoff/(n+1) in any completion order.

The walker estimate converges to the expected absorbed payoff, which
exact_expected_payoff() computes in closed form over the rationals by
solving the absorbing-chain linear system; the two routes are kept
independent so each checks the other.
"""

from __future__ import annotations

import hashlib
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import sqrt
from typing import Mapping, Sequence

from .model import ActionLabel, ClassId, Population, Rollout, Schema, TerminalLabel

# Node keys: ("action", name) | ("class", id) | ("terminal", name).
Node = tuple[str, object]

PayoffMap = Mapping[TerminalLabel, Fraction]


class WalkError(Exception):
    pass


class NoData(WalkError):
    """The requested start action has never been ingested."""


class CapExceeded(WalkError):
    """A walk ran for the full step cap without reaching a terminal."""


class Unsolvable(Exception):
    """Some node reachable from the action cannot reach any terminal."""


def action_node(name: ActionLabel) -> Node:
    return ("action", name)


def class_node(cls: ClassId) -> Node:
    return ("class", cls)


def terminal_node(name: TerminalLabel) -> Node:
    return ("terminal", name)


@dataclass
class WeightedDigraph:
    """Succession graph with integer edge weights.  Single-writer ingestion."""

    weights: dict[Node, dict[Node, int]] = field(default_factory=dict)
    actions: set[ActionLabel] = field(default_factory=set)
    classes: set[ClassId] = field(default_factory=set)
    terminals: set[TerminalLabel] = field(default_factory=set)
    # Summed out-edge weight per node, kept by add_weight, the only writer.
    _out: dict[Node, int] = field(default_factory=dict, init=False, repr=False, compare=False)

    def add_weight(self, src: Node, dst: Node, weight: int = 1) -> None:
        outs = self.weights.setdefault(src, {})
        outs[dst] = outs.get(dst, 0) + weight
        self._out[src] = self._out.get(src, 0) + weight

    def ingest(self, r: Rollout) -> None:
        """Add one rollout: every succession increments its edge by one."""
        self.actions.add(r.action)
        self.terminals.add(r.terminal)
        for s in r.states:
            self.classes.add(s.cls)
        path: list[Node] = [action_node(r.action)]
        path.extend(class_node(s.cls) for s in r.states)
        path.append(terminal_node(r.terminal))
        for src, dst in zip(path, path[1:]):
            self.add_weight(src, dst)

    def out_edges(self, node: Node) -> dict[Node, int]:
        return self.weights.get(node, {})

    def out_weight(self, node: Node) -> int:
        return self._out.get(node, 0)

    def edge_weight(self, src: Node, dst: Node) -> int:
        return self.out_edges(src).get(dst, 0)

    @property
    def b(self) -> int:
        """Number of ingested rollouts: the summed out-weight of the actions."""
        return sum(self.out_weight(action_node(a)) for a in self.actions)

    def successors(self, node: Node) -> tuple[list[ClassId], list[TerminalLabel]]:
        """Sorted class and terminal successors of a node."""
        outs = self.out_edges(node)
        classes = sorted(x for kind, x in outs if kind == "class")
        terminals = sorted(x for kind, x in outs if kind == "terminal")
        return classes, terminals  # type: ignore[return-value]

    def snapshot(self) -> "WalkTable":
        """Immutable sampling tables for the current graph state."""
        table: dict[Node, tuple[tuple[Node, ...], tuple[int, ...], int]] = {}
        for src, outs in self.weights.items():
            targets = tuple(sorted(outs, key=repr))
            cum: list[int] = []
            running = 0
            for t in targets:
                running += outs[t]
                cum.append(running)
            table[src] = (targets, tuple(cum), running)
        return WalkTable(table)


@dataclass(frozen=True)
class WalkTable:
    """Frozen per-node cumulative weights used by walkers."""

    table: Mapping[Node, tuple[tuple[Node, ...], tuple[int, ...], int]]

    def step(self, node: Node, rng: random.Random) -> Node:
        targets, cum, total = self.table[node]
        r = rng.random() * total
        return targets[bisect_right(cum, r)]

    def has_node(self, node: Node) -> bool:
        return node in self.table


def build_digraph(p: Population) -> WeightedDigraph:
    """Fold every rollout of the population into a fresh graph."""
    g = WeightedDigraph()
    for r in p.rollouts:
        g.ingest(r)
    return g


@dataclass(frozen=True)
class WalkOutcome:
    action: ActionLabel
    terminal: TerminalLabel
    steps: int


def walk(
    g: WeightedDigraph | WalkTable,
    start: ActionLabel,
    cap: int = 10**6,
    rng: random.Random | None = None,
) -> WalkOutcome:
    """One walker trip from the action to a terminal sink.

    Raises NoData when the action has no outgoing edges and CapExceeded
    when the cap is hit before absorption.
    """
    table = g.snapshot() if isinstance(g, WeightedDigraph) else g
    node = action_node(start)
    if not table.has_node(node):
        raise NoData(f"action {start!r} has no recorded successors")
    rng = rng if rng is not None else random.Random()
    steps = 0
    while steps < cap:
        node = table.step(node, rng)
        steps += 1
        kind, payload = node
        if kind == "terminal":
            return WalkOutcome(start, payload, steps)  # type: ignore[arg-type]
    raise CapExceeded(f"no terminal reached from {start!r} within {cap} steps")


@dataclass(frozen=True)
class ActionEvaluation:
    """Per-action walker statistics; the exact payoff sum makes the mean
    independent of walk completion order."""

    payoff_sum: Fraction
    payoff_sumsq: Fraction
    n: int
    cap_exceeded: int

    @property
    def mean(self) -> Fraction:
        return self.payoff_sum / self.n

    @property
    def stddev(self) -> float:
        if self.n < 2:
            return 0.0
        var = (self.payoff_sumsq - self.payoff_sum**2 / self.n) / (self.n - 1)
        return sqrt(max(float(var), 0.0))


@dataclass(frozen=True)
class EvaluationReport:
    per_action: Mapping[ActionLabel, ActionEvaluation]
    walks_requested: int
    seed: int


def _walk_rng(seed: int, action: ActionLabel, index: int) -> random.Random:
    # Stable across processes and interpreter runs, unlike hash().
    digest = hashlib.sha256(f"{seed}:{action}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _run_walks(
    table: WalkTable,
    action: ActionLabel,
    payoffs: PayoffMap,
    indices: range,
    cap: int,
    seed: int,
) -> ActionEvaluation:
    total = Fraction(0)
    total_sq = Fraction(0)
    n = 0
    capped = 0
    for i in indices:
        try:
            outcome = walk(table, action, cap, _walk_rng(seed, action, i))
        except CapExceeded:
            capped += 1
            continue
        v = payoffs[outcome.terminal]
        total += v
        total_sq += v * v
        n += 1
    return ActionEvaluation(total, total_sq, n, capped)


def _merge(parts: Sequence[ActionEvaluation]) -> ActionEvaluation:
    return ActionEvaluation(
        sum((p.payoff_sum for p in parts), Fraction(0)),
        sum((p.payoff_sumsq for p in parts), Fraction(0)),
        sum(p.n for p in parts),
        sum(p.cap_exceeded for p in parts),
    )


def evaluate_actions(
    g: WeightedDigraph,
    actions: Sequence[ActionLabel],
    walks: int,
    payoffs: PayoffMap,
    cap: int = 10**6,
    seed: int = 0,
    workers: int = 1,
) -> EvaluationReport:
    """Run ``walks`` independent walkers per action and average their payoffs.

    Each walk index owns its RNG substream, so results are bit-identical
    for any worker count and any completion order.  Capped walks are
    counted and excluded from the mean.
    """
    missing = g.terminals - set(payoffs)
    if missing:
        raise ValueError(f"payoff map misses terminals: {sorted(missing)}")
    unique_actions: list[ActionLabel] = []
    for a in actions:
        if a not in unique_actions:
            unique_actions.append(a)
    table = g.snapshot()
    for a in unique_actions:
        if not table.has_node(action_node(a)):
            raise NoData(f"action {a!r} has no recorded successors")

    per_action: dict[ActionLabel, ActionEvaluation] = {}
    if walks > 0:
        chunk = max(1, (walks + max(workers, 1) - 1) // max(workers, 1))
        spans = [range(lo, min(lo + chunk, walks)) for lo in range(0, walks, chunk)]
        if workers > 1 and len(spans) > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = {
                    a: [
                        pool.submit(_run_walks, table, a, dict(payoffs), span, cap, seed)
                        for span in spans
                    ]
                    for a in unique_actions
                }
                for a, futs in futures.items():
                    per_action[a] = _merge([f.result() for f in futs])
        else:
            for a in unique_actions:
                per_action[a] = _merge(
                    [_run_walks(table, a, payoffs, span, cap, seed) for span in spans]
                )

    return EvaluationReport(per_action, walks, seed)


def _reachable(g: WeightedDigraph, start: Node) -> set[Node]:
    seen = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for dst in g.out_edges(node):
            if dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    return seen


def exact_expected_payoff(
    g: WeightedDigraph, action: ActionLabel, payoffs: PayoffMap
) -> Fraction:
    """Expected absorbed payoff of a walk from the action, solved exactly.

    Sets up E_i = sum_j (w_ij / W_i) E_j + sum_f (w_if / W_i) payoff(f)
    over the class nodes reachable from the action and eliminates over the
    rationals.  Raises Unsolvable if some reachable node cannot reach a
    terminal (the system would have no absorbing solution).
    """
    start = action_node(action)
    if start not in g.weights:
        raise NoData(f"action {action!r} has no recorded successors")
    reachable = _reachable(g, start)

    # Every reachable non-terminal must reach a terminal sink.
    can_finish: set[Node] = {n for n in reachable if n[0] == "terminal"}
    grew = True
    while grew:
        grew = False
        for node in reachable:
            if node in can_finish:
                continue
            if any(dst in can_finish for dst in g.out_edges(node)):
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
                matrix[i][m] += prob * payoffs[dst[1]]  # type: ignore[index]

    solution = _solve_fraction_system(matrix, m)

    total = g.out_weight(start)
    value = Fraction(0)
    for dst, w in g.out_edges(start).items():
        prob = Fraction(w, total)
        if dst[0] == "class":
            value += prob * solution[index[dst]]
        else:
            value += prob * payoffs[dst[1]]  # type: ignore[index]
    return value


def _solve_fraction_system(matrix: list[list[Fraction]], m: int) -> list[Fraction]:
    """Gaussian elimination with partial pivoting over the rationals."""
    for col in range(m):
        pivot = next((r for r in range(col, m) if matrix[r][col] != 0), None)
        if pivot is None:
            raise Unsolvable("singular absorbing-chain system")
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        inv = 1 / matrix[col][col]
        matrix[col] = [x * inv for x in matrix[col]]
        for r in range(m):
            if r != col and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[col])]
    return [matrix[r][m] for r in range(m)]


def path_probability(g: WeightedDigraph, h: Schema) -> Fraction:
    """Exact probability that a walk from the schema's action traces its
    class sequence (and, for a terminal tail, ends on that terminal).

    A #-tailed schema only pins the class prefix.  Missing nodes or edges
    give probability 0.
    """
    if h.is_root:
        raise ValueError("path probability needs an action-rooted schema")
    assert h.action is not None
    path: list[Node] = [action_node(h.action)]
    path.extend(class_node(c) for c in h.classes)
    if not h.wildcard_tail:
        assert h.tail is not None
        path.append(terminal_node(h.tail))
    prob = Fraction(1)
    for src, dst in zip(path, path[1:]):
        total = g.out_weight(src)
        w = g.edge_weight(src, dst)
        if w == 0:
            return Fraction(0)
        prob *= Fraction(w, total)
    return prob
