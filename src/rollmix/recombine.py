"""Crossover transformations, the mixing chain, and the exact orbit oracle.

Two primitive transformations act on a population, both parametrised by a
similarity class and an unordered pair of tags:

* suffix crossover: if the two tagged states sit in distinct rollouts,
  the tails from those states (inclusive, terminals included) are
  exchanged; a same-rollout pair leaves the population fixed;
* position swap: the two tagged states themselves are exchanged in
  place, whether they sit in one rollout or two.

Every such transformation is an involution, so the chain that applies an
independently sampled transformation per step is a symmetric, aperiodic
Markov chain whose stationary distribution is uniform over the orbit of
the initial population.  The orbit oracle computes exact averages over it.

The chain never lists its generators: ``GeneratorView`` decodes a
generator from its index in (class, tag pair, kind) order, so set-up
memory follows the number of states, not the number of tag pairs.
``_Slots`` holds a population in mutable slots and is the one
implementation of both moves: ``run_chain`` applies each move in place and
updates schema counts by the change in the at most two slots a move
rewrites, and ``apply_transform`` wraps one move for the ``Transform``
objects.  The chain draws exactly what sampling one transform per step
draws (``rng.random()`` against epsilon, then ``rng.randrange`` over the
generators), so each seed keeps the trajectory of applying
``apply_transform`` step by step.

The chain encodes each rollout once (``_encode_start``) as an integer
tuple (action id, terminal token, classes...) and compiles each schema
once (``_pattern``) into a test on that tuple (``_fits``).  No move
changes a slot's action, and a suffix crossover at position k keeps
classes 0..k of both slots it rewrites, because the suffix that comes in
starts with a state of the class that went out; the orbit oracle's "no
move changes a slot's first class" is the case k = 0.  So after a
crossover at k the chain matches again only the #-tailed schemata of
height above k + 1 and the terminal-tailed ones.

The oracle counts instead of enumerating: tag relabellings act freely and
no schema sees them, so the orbit is a number of tag-erased classes, each
of ``prod_i n_i!`` members (the fiber), and the classes are threadings of
the succession multigraph, counted by one integer determinant.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from math import factorial, isqrt, prod
from typing import Hashable, Iterable, Mapping, Sequence

from .model import (
    ClassId,
    Population,
    Rollout,
    Schema,
    StateTag,
    TaggedState,
    inflate,
)
from .digraph import _bareiss_solve
from .stats import Frequency


class OrbitCapExceeded(Exception):
    """The orbit is larger than the caller allowed."""


class TransformKind(Enum):
    ONE_POINT = "chi"
    SINGLE_SWAP = "nu"
    IDENTITY = "identity"


@dataclass(frozen=True)
class Transform:
    """One primitive transformation (or the identity)."""

    kind: TransformKind
    cls: ClassId | None = None
    tags: frozenset[StateTag] | None = None

    def __post_init__(self) -> None:
        if self.kind is TransformKind.IDENTITY:
            if self.cls is not None or self.tags is not None:
                raise ValueError("identity transform carries no parameters")
        else:
            if self.cls is None or self.tags is None or len(self.tags) != 2:
                raise ValueError("crossover transforms need a class and two distinct tags")


IDENTITY = Transform(TransformKind.IDENTITY)


def _unrank_pair(n: int, rank: int) -> tuple[int, int]:
    """The pair at position ``rank`` of ``combinations(range(n), 2)``."""
    # Pairs whose first index is below i number i(2n - i - 1)/2; the
    # quadratic's root overshoots the first index by at most one.
    i = (2 * n - 1 - isqrt((2 * n - 1) ** 2 - 8 * rank)) // 2
    if i * (2 * n - i - 1) // 2 > rank:
        i -= 1
    return i, rank - i * (2 * n - i - 1) // 2 + i + 1


@dataclass(frozen=True)
class GeneratorView(Sequence[Transform]):
    """Every (kind, class, tag pair) generator of a population, as a
    read-only sequence decoded by index.

    The order is: classes ascending; within a class, pairs of its sorted
    tags in ``combinations`` order; within a pair, suffix crossover before
    position swap.  Only the sorted classes, their sorted tags and the
    running generator counts are stored, so memory follows the number of
    states, not the number of tag pairs.  Applicability is fixed by the
    state multiset, which every transform preserves, so the view built
    from p stays valid along any chain started from p.
    """

    classes: tuple[ClassId, ...]
    tags: tuple[tuple[StateTag, ...], ...]
    ends: tuple[int, ...]  # generators of classes[:c + 1]

    @classmethod
    def from_population(cls, p: Population) -> "GeneratorView":
        by_class: dict[ClassId, list[StateTag]] = {}
        for r in p.rollouts:
            for c, tag in r.states:
                by_class.setdefault(c, []).append(tag)
        classes = tuple(sorted(by_class))
        tags = tuple(tuple(sorted(by_class[c])) for c in classes)
        return cls(classes, tags, tuple(accumulate(len(t) * (len(t) - 1) for t in tags)))

    def __len__(self) -> int:
        return self.ends[-1] if self.ends else 0

    def decode(self, g: int) -> tuple[int, int, int, bool]:
        """(class index, tag index, tag index, is suffix crossover) of
        generator g, for 0 <= g < len(self)."""
        c = bisect_right(self.ends, g)
        local = g - self.ends[c - 1] if c else g
        i, j = _unrank_pair(len(self.tags[c]), local >> 1)
        return c, i, j, not local & 1

    def __getitem__(self, g: int) -> Transform:  # type: ignore[override]
        if g < 0:
            g += len(self)
        if not 0 <= g < len(self):
            raise IndexError("generator index out of range")
        c, i, j, chi = self.decode(g)
        kind = TransformKind.ONE_POINT if chi else TransformKind.SINGLE_SWAP
        return Transform(kind, self.classes[c], frozenset((self.tags[c][i], self.tags[c][j])))


def generator_index(p: Population) -> list[Transform]:
    """The identity followed by every generator of p, in GeneratorView order."""
    return [IDENTITY, *GeneratorView.from_population(p)]


@dataclass(frozen=True)
class TransformDistribution:
    """Per-step sampling rule: identity with probability epsilon, else a
    uniformly chosen crossover generator.  The generator set is fixed at
    construction from the initial population."""

    epsilon: float
    generators: GeneratorView

    def __post_init__(self) -> None:
        if not (0 < self.epsilon < 1):
            raise ValueError("identity probability must lie in (0, 1)")

    @classmethod
    def from_population(cls, p: Population, epsilon: float = 0.01) -> "TransformDistribution":
        return cls(epsilon, GeneratorView.from_population(p))

    def sample(self, rng: random.Random) -> Transform:
        if not self.generators or rng.random() < self.epsilon:
            return IDENTITY
        return self.generators[rng.randrange(len(self.generators))]


@dataclass(frozen=True)
class ChainTrace:
    """Outcome of a mixing run: per-schema visit totals over P^0..P^T."""

    initial: Population
    steps: int
    seed: int
    schema_counts: Mapping[Schema, int]
    visits: Mapping[Population, int] | None = None

    def phi(self, h: Schema) -> Fraction:
        """Running frequency of the schema over the whole trajectory."""
        return Fraction(self.schema_counts[h], self.initial.b * (self.steps + 1))


# --- slot encoding -----------------------------------------------------------

# A shape erases tags: one integer tuple per slot, (action id, terminal
# token, class, class, ...).  Ids number the sorted action and terminal
# names.
EncodedShape = tuple[tuple[int, ...], ...]
# (action id, lo, hi, values): a slot fits when slot[0] is the action id
# and slot[lo:hi] equals values; None fits every slot.
Pattern = tuple[int, int, int | None, tuple[int, ...]] | None


def _encode_start(p: Population) -> tuple[EncodedShape, tuple[str, ...], tuple[str, ...]]:
    """The population's shape, integer-encoded, with its action and terminal names."""
    action_names = tuple(sorted({r.action for r in p.rollouts}))
    terminal_names = tuple(sorted(p.terminals()))
    action_ids = {name: i for i, name in enumerate(action_names)}
    terminal_ids = {name: i for i, name in enumerate(terminal_names)}
    start = tuple(
        [(action_ids[r.action], terminal_ids[r.terminal], *[s.cls for s in r.states]) for r in p.rollouts]
    )
    return start, action_names, terminal_names


def _pattern(h: Schema, action_names: Sequence[str], terminal_names: Sequence[str]) -> Pattern:
    """The schema as a test on encoded slots.  A #-tailed schema fixes the
    classes at 2..2+k, a terminal-tailed one the token and every class."""
    if h.is_root:
        return None
    if h.action not in action_names or not (h.wildcard_tail or h.tail in terminal_names):
        return -1, 0, 0, ()  # no slot has action id -1
    action = action_names.index(h.action)
    if h.wildcard_tail:
        return action, 2, 2 + len(h.classes), h.classes
    return action, 1, None, (terminal_names.index(h.tail), *h.classes)


def _fits(pattern: Pattern, slot: tuple[int, ...]) -> bool:
    return pattern is None or (slot[0] == pattern[0] and slot[pattern[1] : pattern[2]] == pattern[3])


def _arrangements(items: Iterable[Hashable]) -> int:
    """Permutations that map each item to an equal one: prod of factorial(multiplicity)."""
    return prod(map(factorial, Counter(items).values()))


class _Slots:
    """A population as mutable slots of state ids: the one implementation
    of both moves.  Slot i holds action id ``actions[i]``, terminal token
    ``terminals[i]`` and the ids ``slots[i]``; ``slot_of`` and ``pos_of``
    place every id, ``ids`` numbers the states, and ``start`` is the shape
    at construction."""

    def __init__(self, p: Population) -> None:
        self.start, self.action_names, self.terminal_names = _encode_start(p)
        self.actions = [slot[0] for slot in self.start]
        self.terminals = [slot[1] for slot in self.start]
        self.states = [s for r in p.rollouts for s in r.states]  # state id -> state
        self.ids = {s: n for n, s in enumerate(self.states)}
        self.slots: list[list[int]] = []
        self.slot_of: list[int] = []
        self.pos_of: list[int] = []
        for i, r in enumerate(p.rollouts):
            self.slots.append(list(range(len(self.slot_of), len(self.slot_of) + r.height)))
            self.slot_of.extend([i] * r.height)
            self.pos_of.extend(range(r.height))

    def move(self, x: int, y: int, chi: bool) -> tuple[int, ...]:
        """Suffix crossover (chi) or position swap of the same-class states
        x and y, in place; returns the slots whose classes changed."""
        slots, slot_of, pos_of = self.slots, self.slot_of, self.pos_of
        s1, k1, s2, k2 = slot_of[x], pos_of[x], slot_of[y], pos_of[y]
        if not chi:
            # Same-class states trade places: no slot's classes change.
            slots[s1][k1], slots[s2][k2] = y, x
            slot_of[x], pos_of[x], slot_of[y], pos_of[y] = s2, k2, s1, k1
            return ()
        if s1 == s2:
            return ()
        one, two = slots[s1], slots[s2]
        one[k1:], two[k2:] = two[k2:], one[k1:]
        terminals = self.terminals
        terminals[s1], terminals[s2] = terminals[s2], terminals[s1]
        for s, slot, k in ((s1, one, k1), (s2, two, k2)):
            for pos in range(k, len(slot)):
                slot_of[slot[pos]], pos_of[slot[pos]] = s, pos
        return s1, s2

    def population(self) -> Population:
        states, action_names, terminal_names = self.states, self.action_names, self.terminal_names
        return Population(
            tuple(
                Rollout(action_names[a], tuple(states[x] for x in slot), terminal_names[f])
                for a, slot, f in zip(self.actions, self.slots, self.terminals)
            )
        )


def apply_transform(p: Population, t: Transform) -> Population:
    """t applied to p by the chain's move; p itself for the identity or a
    transform naming a state that p lacks."""
    if t.kind is TransformKind.IDENTITY:
        return p
    assert t.cls is not None and t.tags is not None
    engine = _Slots(p)
    x, y = (engine.ids.get(TaggedState(t.cls, tag)) for tag in t.tags)
    if x is None or y is None:
        return p
    engine.move(x, y, t.kind is TransformKind.ONE_POINT)
    return engine.population()


def run_chain(
    p0: Population,
    steps: int,
    mu: TransformDistribution,
    schemata: Sequence[Schema],
    seed: int,
    visit_stride: int | None = None,
) -> ChainTrace:
    """Iterate P^{t+1} = theta_t(P^t) for t < steps, accumulating schema counts.

    Counts cover the steps+1 populations P^0..P^steps.  With visit_stride
    set, every stride-th population is tallied into ``visits`` (used by the
    stationarity check, which needs approximately independent samples).

    Each step draws from ``rng`` exactly what ``mu.sample`` would draw, so
    a seed fixes the same trajectory as applying sampled transforms one by
    one.  The population is held in ``_Slots``; only a suffix crossover
    changes a slot's classes, and it rewrites at most two slots.  A
    crossover at position k keeps each slot's action and classes 0..k (the
    incoming suffix starts with a state of the same class), so only the
    #-tailed schemata of height above k + 1 and the terminal-tailed ones
    are matched again.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rng = random.Random(seed)
    gens, epsilon = mu.generators, mu.epsilon
    n_gens = len(gens)

    engine = _Slots(p0)
    patterns = [_pattern(h, engine.action_names, engine.terminal_names) for h in schemata]
    actions, terminals, slots, pos_of = engine.actions, engine.terminals, engine.slots, engine.pos_of
    classes = [s.cls for s in engine.states]
    # Generator tag indices -> state ids; None for a state p0 lacks, whose
    # moves leave the population fixed.
    ids = engine.ids
    table = [[ids.get((cls, tag)) for tag in tags] for cls, tags in zip(gens.classes, gens.tags)]
    # rematch[k]: the schemata a crossover at position k can change.  Every
    # cut past the deepest #-tailed schema shares the terminal-tailed list.
    heights = [h.height if h.is_root or h.wildcard_tail else None for h in schemata]
    deepest = max((d for d in heights if d is not None), default=0)
    rematch = [[q for q, d in enumerate(heights) if d is None or d > k + 1] for k in range(deepest - 1)]
    rematch += [[q for q, d in enumerate(heights) if d is None]] * (len(classes) - len(rematch))

    matched = [[_fits(pattern, shape) for pattern in patterns] for shape in engine.start]
    # Each total starts as if P^0 lasted all steps+1 populations; a change
    # made by step t holds for the steps - t populations P^{t+1}..P^steps.
    totals = [sum(column) * (steps + 1) for column in zip(*matched)]
    visits: dict[Population, int] | None = {} if visit_stride else None
    random_, randrange, decode, move = rng.random, rng.randrange, gens.decode, engine.move
    for t in range(steps + 1):
        if visits is not None and t % visit_stride == 0:  # type: ignore[operator]
            current = engine.population()
            visits[current] = visits.get(current, 0) + 1
        if t == steps or not n_gens or random_() < epsilon:
            continue
        c, i, j, chi = decode(randrange(n_gens))
        x, y = table[c][i], table[c][j]
        if x is None or y is None:
            continue
        cuts = rematch[pos_of[x]], rematch[pos_of[y]]
        for s, todo in zip(move(x, y, chi), cuts):
            if not todo:
                continue
            shape = (actions[s], terminals[s], *[classes[v] for v in slots[s]])
            row = matched[s]
            for q in todo:
                new = _fits(patterns[q], shape)
                if new != row[q]:
                    totals[q] += (new - row[q]) * (steps - t)
                    row[q] = new
    return ChainTrace(p0, steps, seed, dict(zip(schemata, totals)), visits)


# --- exact orbit counts -------------------------------------------------------

# With every action source and terminal sink merged into one root r, a
# stateful slot is a path r -> c_1 .. c_h -> r through the succession
# multigraph G.  No move changes G, a slot's action and first class, a
# terminal's last class or a stateless slot.  A block, a set of classes
# that only one edge of G enters, is passed in one run of one slot that no
# move changes: moves act at classes two slots share.  With every maximal
# block contracted, the orbit held every loop-free threading on every
# population tried: an observation, not a theorem (compare Kotzig 1966 on
# Euler circuits, Pevzner 1995 on Eulerian paths).

Node = tuple[ClassId, ...]  # a block's run, or (c,) for a class in no block


def _runs(paths: Sequence[tuple[ClassId, ...]]) -> dict[ClassId, Node]:
    """Each class mapped to the run of its maximal block, or to (c,): a
    block is a stretch of a slot holding every occurrence of its classes."""
    occurrences = Counter(c for path in paths for c in path)
    runs: dict[ClassId, Node] = {}
    for path in paths:
        i = 0
        while i < len(path):
            end, seen, total = i + 1, set(), 0
            for j in range(i, len(path)):
                if path[j] not in seen:
                    seen.add(path[j])
                    total += occurrences[path[j]]
                if total == j + 1 - i:
                    end = j + 1
            runs.update(dict.fromkeys(path[i:end], path[i:end]))
            i = end
    return runs


def _contract(classes: tuple[ClassId, ...], runs: Mapping[ClassId, Node]) -> tuple[list[Node], bool] | None:
    """A class path as nodes of the contracted graph, and whether it stops
    inside a run; None if it enters a block other than along its run."""
    nodes: list[Node] = []
    i = 0
    while i < len(classes):
        run = runs.get(classes[i], (classes[i],))
        if classes[i : i + len(run)] != run[: len(classes) - i]:
            return None
        nodes.append(run)
        i += len(run)
    return nodes, i > len(classes)


def _threadings(edges: Mapping[tuple[Node, Node], int], exits: Mapping[Node, int]) -> int:
    """Loop-free threadings (parallel edges told apart; ``exits[v]`` edges
    run from v into the root): t_r(G) * prod_v (d_v - 1)! by the BEST and
    matrix-tree theorems, or 0 if a node cannot reach the root, so the
    solver only ever sees a nonsingular M-matrix."""
    degree = Counter(exits)
    into: dict[Node, list[Node]] = {}
    for (u, v), w in edges.items():
        if w:
            degree[u] += w
            into.setdefault(v, []).append(u)
    nodes = [v for v, d in degree.items() if d]
    seen = {v for v, w in exits.items() if w}
    todo = list(seen)
    while todo:
        for u in into.get(todo.pop(), ()):
            if u not in seen:
                seen.add(u)
                todo.append(u)
    if len(seen) < len(nodes):
        return 0
    # Row v: d_v on the diagonal less w_vu, with a zero right-hand side.
    matrix = [[degree[v] * (u == v) - edges.get((v, u), 0) for u in nodes] + [0] for v in nodes]
    return _bareiss_solve(matrix)[0] * prod(factorial(degree[v] - 1) for v in nodes)


def _class_fiber(p: Population) -> int:
    """Number of tag relabellings of a population: prod_i n_i! over classes."""
    return _arrangements(s.cls for _, _, s in p.states())


def _fixed_data(p: Population) -> tuple:
    """What no move changes: slot actions and first classes (stateless slots
    whole), tagged states, successions and block runs."""
    return (
        [(r.action, r.states[0].cls) if r.states else (r.action, r.terminal) for r in p.rollouts],
        sorted(s for _, _, s in p.states()),
        Counter(pair for r in p.rollouts for pair in zip(r.classes, (*r.classes[1:], r.terminal))),
        set(_runs([r.classes for r in p.rollouts if r.states]).values()),
    )


def _frequency(o: OrbitSet, h: Schema) -> Frequency:
    """Exact orbit mean of (slots fitting h)/b: the slots of h's (action,
    first class) times the share of threadings in which one of them follows
    h's path, whose edges (and a terminal tail's, which stands for its
    token) leave the graph, times the ordered choices of parallel edges."""
    if h.is_root:
        return Fraction(1)
    if not h.classes and h.wildcard_tail:  # no move changes a slot's action
        return Fraction(sum(n for (a, _), n in o.heads.items() if a == h.action), o.b)
    if not h.classes:  # nor a stateless slot
        return Fraction(o.heads.get((h.action, h.tail), 0), o.b)  # type: ignore[arg-type]
    ways = o.heads.get((h.action, h.classes[0]), 0)
    contracted = _contract(h.classes, o.runs) if ways else None
    if contracted is None:
        return Fraction(0)
    nodes, inside = contracted
    if h.wildcard_tail and len(nodes) == 1:
        return Fraction(ways, o.b)  # nor a first class, nor the run it starts
    edges, exits = dict(o.edges), dict(o.exits)
    for step in zip(nodes, nodes[1:]):
        ways *= edges.get(step, 0)
        if not ways:
            return Fraction(0)
        edges[step] -= 1
    if not h.wildcard_tail:
        last, family = o.ends.get(h.tail, (None, 0))  # type: ignore[arg-type]
        if inside or last != nodes[-1]:
            return Fraction(0)
        ways *= family
        exits[last] -= 1
    return Fraction(ways * _threadings(edges, exits), o.threadings * o.b)


@dataclass(frozen=True)
class OrbitSet:
    """The reachable populations, as counts.  ``n_classes``, the tag-erased
    classes, is the loop-free threadings of the contracted graph over prod
    w_uv! and the relabellings of each terminal token; ``size = n_classes *
    fiber`` is the exact number of reachable populations."""

    initial: Population
    heads: Mapping[tuple[str, ClassId | str], int]  # slots by action and first class, or stateless token
    runs: Mapping[ClassId, Node]  # class -> its block's run, or (c,)
    ends: Mapping[str, tuple[Node, int]]  # stateful token's name -> (last node, labels)
    edges: Mapping[tuple[Node, Node], int]  # w_uv of the contracted graph
    exits: Mapping[Node, int]  # edges from a node into the root
    threadings: int
    fiber: int
    n_classes: int

    @property
    def b(self) -> int:
        return self.initial.b

    @property
    def size(self) -> int:
        return self.n_classes * self.fiber

    def family_frequency(self, h: Schema) -> Frequency:
        """Exact orbit mean of (rollouts fitting h)/b, h's terminal standing
        for every label of its token (its whole copy family)."""
        return _frequency(self, h)

    def contains(self, p: Population) -> bool:
        """Membership, by the observation above: the initial fixed data."""
        return _fixed_data(p) == _fixed_data(self.initial)


# The inflated orbit is the same orbit, counted from copies.
InflatedOrbit = OrbitSet


def _orbit(initial: Population, slots: Sequence[tuple[str, tuple[ClassId, ...], str]], cap: int) -> OrbitSet:
    """The orbit from each slot's action, classes and terminal token, a label
    or a copy family; the fiber counts the relabellings within tokens too."""
    heads = Counter((action, classes[0] if classes else token) for action, classes, token in slots)
    runs = _runs([classes for _, classes, _ in slots if classes])
    edges: Counter[tuple[Node, Node]] = Counter()
    exits: Counter[Node] = Counter()
    ends: dict[str, tuple[Node, int]] = {}
    for _, classes, token in slots:
        if classes:
            nodes = _contract(classes, runs)[0]  # type: ignore[index]
            edges.update(zip(nodes, nodes[1:]))
            exits[nodes[-1]] += 1
            ends[token] = (nodes[-1], ends.get(token, ((), 0))[1] + 1)
    threadings = _threadings(edges, exits)
    relabellings = _arrangements(token for _, _, token in slots)
    n_classes = threadings // (prod(map(factorial, edges.values())) * relabellings)
    fiber = _class_fiber(initial) * relabellings
    if n_classes * fiber > cap:  # str() fails on ints past 4300 digits
        size = n_classes * fiber
        raise OrbitCapExceeded(f"orbit size {size} exceeds cap {cap}" if size < 10**4000 else "orbit size exceeds cap")
    return OrbitSet(initial, heads, runs, ends, edges, exits, threadings, fiber, n_classes)


def enumerate_orbit(p0: Population, cap: int = 10**6) -> OrbitSet:
    """The orbit of the initial population under all generators, counted;
    OrbitCapExceeded when its exact size exceeds ``cap``."""
    return _orbit(p0, [(r.action, r.classes, r.terminal) for r in p0.rollouts], cap)


def orbit_frequency(o: OrbitSet, h: Schema) -> Frequency:
    """Exact mean of (matching rollouts)/b over the whole orbit."""
    return _frequency(o, h)


def enumerate_inflated_orbit(p0: Population, m: int, cap: int = 10**6) -> OrbitSet:
    """Exact orbit of inflate(p0, m).  Relabellings within a copy family of
    terminals are reachable and act freely, so a family is one token, which
    a base schema's terminal stands for; p0 needs a state in every rollout,
    since a stateless rollout's terminal never moves."""
    if any(r.height == 0 for r in p0.rollouts):
        raise ValueError("family quotient needs every rollout to carry a state")
    # Slot i*m + c of inflate(p0, m) is copy c of base rollout i.
    return _orbit(inflate(p0, m), [(r.action, r.classes, r.terminal) for r in p0.rollouts for _ in range(m)], cap)
