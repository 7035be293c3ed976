"""Weighted succession digraph and the walker-based action evaluator.

Rollouts stream into a directed graph whose nodes are action sources,
similarity classes, and terminal sinks.  Each observed succession bumps
the corresponding edge weight by one, so after ingesting a population the
edge weights are its succession counts; they are the only store of those
counts, which the closed-form frequency (:mod:`rollmix.stats`) reads too.
Independent walkers ("bugs") start at an action and move along outgoing
edges with probability proportional to edge weight until they hit a
terminal sink.  Step s of walk i draws an integer from a counter-based
stream keyed by (seed, action, i, s), so no walk depends on another.  An
action's value is the exact mean of the payoffs its walkers collect,
summed as integers over the payoffs' common denominator.

The walker estimate converges to the expected absorbed payoff, which
exact_expected_payoff() computes exactly by fraction-free elimination of
the absorbing-chain linear system; the two routes are kept independent so
each checks the other.  ``_reaching`` and ``_absorbing_solve`` check and
solve that system, and the orbit oracle counts its threadings with them.
"""

from __future__ import annotations

import hashlib
import random
import sys
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain
from math import inf, isqrt, lcm, sqrt
from typing import AbstractSet, Iterable, Mapping, NamedTuple, Sequence

from .model import ActionLabel, ClassId, Population, Rollout, Schema, TerminalLabel

# Node keys: ("action", name) | ("class", id) | ("terminal", name).
Node = tuple[str, object]

PayoffMap = Mapping[TerminalLabel, Fraction]


class NoData(Exception):
    """The requested start action has never been ingested."""


class CapExceeded(Exception):
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


class _Rows(NamedTuple):
    """Sampling rows over integer node ids.

    Row ``i`` holds the cumulative out-weights of node ``i`` with its
    targets in ``sorted(outs, key=repr)`` order; terminal ``j`` of
    ``terminals`` is encoded as the negative id ``~j``.  A node without
    out-edges loops on itself, so a walker that reaches it hits the cap.
    """

    ids: dict[Node, int]
    cum: list[list[int]]
    target: list[list[int]]
    total: list[int]
    terminals: list[TerminalLabel]


def _walk_rows(g: WeightedDigraph) -> _Rows:
    nodes = dict.fromkeys(chain(g.weights, *g.weights.values()))
    terminals = [node for node in nodes if node[0] == "terminal"]
    ids = {node: ~j for j, node in enumerate(terminals)}
    ids.update((node, i) for i, node in enumerate(n for n in nodes if n[0] != "terminal"))
    rows = _Rows(ids, [], [], [], [label for _, label in terminals])
    for node in nodes:
        if node[0] != "terminal":
            outs = g.weights.get(node) or {node: 1}
            order = sorted(outs, key=repr)
            rows.cum.append(list(accumulate(outs[t] for t in order)))
            rows.target.append([ids[t] for t in order])
            rows.total.append(rows.cum[-1][-1])
    return rows


def walk(
    g: WeightedDigraph,
    start: ActionLabel,
    cap: int = 10**6,
    rng: random.Random | None = None,
) -> WalkOutcome:
    """One walker trip from the action to a terminal sink.

    Each step draws ``rng.randrange(total)`` and takes the target whose
    cumulative-weight band holds it.  Raises NoData when the action has no
    outgoing edges and CapExceeded when the cap is hit before absorption.
    """
    rows = _walk_rows(g)
    node = rows.ids.get(action_node(start))
    if node is None:
        raise NoData(f"action {start!r} has no recorded successors")
    rng = rng if rng is not None else random.Random()
    for steps in range(1, cap + 1):
        node = rows.target[node][bisect_right(rows.cum[node], rng.randrange(rows.total[node]))]
        if node < 0:
            return WalkOutcome(start, rows.terminals[~node], steps)
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
        var = (self.payoff_sumsq - self.payoff_sum**2 / self.n) / (self.n - 1)  # exact, >= 0
        # Past the float range, isqrt of var's integer part is exact far below float precision.
        return sqrt(var) if var <= sys.float_info.max else as_float(isqrt(var.numerator // var.denominator))


def as_float(x: Fraction | int) -> float:
    """x rounded to a float, or +-inf where it lies beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return inf if x > 0 else -inf


@dataclass(frozen=True)
class EvaluationReport:
    per_action: Mapping[ActionLabel, ActionEvaluation]
    walks_requested: int
    seed: int


# SplitMix64 (Steele, Lea & Flood 2014): the golden-ratio increment and
# the two multipliers of its output finaliser.
_MASK = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Walk i starts its counter at i * 2**32; a walk would need 2**32 steps to
# reach the next walk's counters.
_STRIDE = (_GAMMA << 32) & _MASK


def _action_key(seed: int, action: ActionLabel) -> int:
    # Stable across processes and interpreter runs, unlike hash().
    return int.from_bytes(hashlib.sha256(f"{seed}:{action}".encode()).digest()[:8], "big")


def _walk_hits(rows: _Rows, start: int, key: int, indices: range, cap: int) -> tuple[list[int], int]:
    """Terminal hit counts (indexed like ``rows.terminals``) and the number
    of capped walks over the walk indices.

    Step s of walk i draws x, the SplitMix64 finaliser of the counter
    ``(key + (i * 2**32 + s) * gamma) mod 2**64``, and moves to the target
    whose cumulative-weight band holds ``x mod total``.  A step is a pure
    function of (key, i, s), so any split of the indices gives the same
    totals.
    """
    cum, target, total = rows.cum, rows.target, rows.total
    hits = [0] * len(rows.terminals)
    capped = 0
    for i in indices:
        z = (key + i * _STRIDE) & _MASK
        node = start
        for _ in range(cap):
            x = (z ^ (z >> 30)) * _MIX1 & _MASK
            x = (x ^ (x >> 27)) * _MIX2 & _MASK
            node = target[node][bisect_right(cum[node], (x ^ (x >> 31)) % total[node])]
            if node < 0:
                hits[~node] += 1
                break
            z = (z + _GAMMA) & _MASK
        else:
            capped += 1
    return hits, capped


def _scaled_payoffs(payoffs: PayoffMap, labels: Sequence[TerminalLabel]) -> tuple[int, list[int]]:
    """L, the LCM of the labels' payoff denominators, and each payoff times L."""
    values = [payoffs[label] for label in labels]
    scale = lcm(*(v.denominator for v in values))
    return scale, [v.numerator * (scale // v.denominator) for v in values]


def evaluate_actions(
    g: WeightedDigraph,
    actions: Sequence[ActionLabel],
    walks: int,
    payoffs: PayoffMap,
    cap: int = 10**6,
    seed: int = 0,
) -> EvaluationReport:
    """Run ``walks`` independent walkers per action and average their payoffs.

    Every step of every walk draws from a counter-based stream keyed by
    (seed, action, walk index, step), so results do not depend on how the
    walks are split or ordered.  Capped walks are counted and excluded
    from the mean.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    missing = g.terminals - set(payoffs)
    if missing:
        raise ValueError(f"payoff map misses terminals: {sorted(missing)}")
    unique_actions = list(dict.fromkeys(actions))
    for a in unique_actions:
        if action_node(a) not in g.weights:
            raise NoData(f"action {a!r} has no recorded successors")

    per_action: dict[ActionLabel, ActionEvaluation] = {}
    if walks > 0:
        rows = _walk_rows(g)
        scale, nums = _scaled_payoffs(payoffs, rows.terminals)
        for a in unique_actions:
            start = rows.ids[action_node(a)]
            hits, capped = _walk_hits(rows, start, _action_key(seed, a), range(walks), cap)
            per_action[a] = ActionEvaluation(
                Fraction(sum(h * v for h, v in zip(hits, nums)), scale),
                Fraction(sum(h * v * v for h, v in zip(hits, nums)), scale * scale),
                sum(hits),
                capped,
            )
    return EvaluationReport(per_action, walks, seed)


def _closure(edges: Mapping[Node, Iterable[Node]], seeds: Iterable[Node]) -> set[Node]:
    """The seeds and every node a path along ``edges`` leads to from them."""
    seen = set(seeds)
    todo = list(seen)
    while todo:
        for dst in edges.get(todo.pop(), ()):
            if dst not in seen:
                seen.add(dst)
                todo.append(dst)
    return seen


def _reaching(weights: Mapping[Node, Mapping[Node, int]], sinks: AbstractSet[Node]) -> set[Node]:
    """The nodes with a path into one of the sinks, where ``weights`` lists
    positive weights only: one reverse search, seeded from the nodes with
    an edge into a sink."""
    into: dict[Node, list[Node]] = {}
    for src, outs in weights.items():
        for dst in outs.keys() & weights.keys():  # a node without out-edges reaches nothing
            into.setdefault(dst, []).append(src)
    return _closure(into, [src for src, outs in weights.items() if not sinks.isdisjoint(outs)])


def _absorbing_solve(
    weights: Mapping[Node, Mapping[Node, int]], nodes: Sequence[Node], absorbed: Mapping[Node, int]
) -> tuple[int, list[int]]:
    """det(M) and det(M) * x for the absorbing-chain system M x = r over
    the unknowns ``nodes``: M_vv is v's summed out-weight, M_vu = -w_vu for
    u in nodes, and r_v sums w_vu * absorbed[u] over v's targets outside
    nodes, which alone ``absorbed`` names (a target it lacks adds 0).

    Bareiss's fraction-free elimination without row swaps; every division
    is exact.  M is a Z-matrix whose rows all lead out of nodes, a
    nonsingular M-matrix: each pivot, a leading principal minor, is positive.
    """
    index = {v: i for i, v in enumerate(nodes)}
    m = len(nodes)
    matrix = []
    for i, v in enumerate(nodes):
        row = [0] * (m + 1)
        row[i] = sum(weights[v].values())
        for u, w in weights[v].items():
            value = absorbed.get(u)
            if value is not None:
                row[m] += w * value
            elif u in index:
                row[index[u]] -= w
        matrix.append(row)
    prev = 1
    for k, pivot_row in enumerate(matrix):
        pivot = pivot_row[k]
        assert pivot > 0, "absorbing-chain system lost a positive leading minor"
        tail = pivot_row[k + 1 :]
        for row in matrix[k + 1 :]:
            f = row[k]
            row[k + 1 :] = [(pivot * x - f * y) // prev for x, y in zip(row[k + 1 :], tail)]
        prev = pivot
    solution = [0] * m
    for i in reversed(range(m)):
        row = matrix[i]
        rest = sum(row[j] * solution[j] for j in range(i + 1, m))
        solution[i] = (prev * row[m] - rest) // row[i]
    return prev, solution


def exact_expected_payoff(
    g: WeightedDigraph, action: ActionLabel, payoffs: PayoffMap
) -> Fraction:
    """Expected absorbed payoff of a walk from the action, solved exactly.

    Solves W_i E_i - sum_j w_ij E_j = sum_f w_if payoff(f) over the action
    and the class nodes reachable from it, scaled by the payoffs' common
    denominator so every coefficient is an integer; the action is the
    first unknown.  Raises Unsolvable if some reachable node cannot reach
    a terminal (the system would have no absorbing solution).
    """
    start = action_node(action)
    if start not in g.weights:
        raise NoData(f"action {action!r} has no recorded successors")
    reachable = _closure(g.weights, [start])
    terminals = {n for n in reachable if n[0] == "terminal"}
    stuck = reachable - terminals - _reaching(g.weights, terminals)
    if stuck:
        raise Unsolvable(f"nodes cannot reach a terminal: {sorted(stuck, key=repr)}")

    scale, scaled = _scaled_payoffs(payoffs, [n[1] for n in terminals])  # type: ignore[arg-type]
    classes = sorted((n for n in reachable if n[0] == "class"), key=repr)
    det, solution = _absorbing_solve(g.weights, [start, *classes], dict(zip(terminals, scaled)))
    return Fraction(solution[0], det * scale)


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
