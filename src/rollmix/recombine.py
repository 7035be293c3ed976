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
the initial population.  The orbit oracle enumerates that orbit exactly.

The chain never lists its generators: ``GeneratorView`` decodes a
generator from its index in (class, tag pair, kind) order, so set-up
memory follows the number of states, not the number of tag pairs.
``run_chain`` keeps the population in mutable slots, applies each move in
place and updates schema counts by the change in the at most two slots a
move rewrites.  It draws exactly what sampling one transform per step
draws (``rng.random()`` against epsilon, then ``rng.randrange`` over the
generators), so each seed keeps the trajectory of applying
``apply_transform`` step by step.

The chain and the oracle share one slot encoding (``_encode_start``): a
rollout is an integer tuple (action id, terminal token, classes...).  A
schema compiles once (``_pattern``) into a test on that tuple
(``_fits``), so both routes count schemata with the same matcher.

Enumeration exploits a factorisation: position swaps generate every
relabelling of same-class tags, those relabellings act freely, and no
schema can see a tag.  The orbit therefore splits into tag-erased
canonical classes of identical size ``prod_i n_i!`` (n_i = occurrences of
class i), and only suffix-crossover moves connect distinct classes.  The
oracle walks the canonical classes and carries the fiber size exactly,
which keeps populations with astronomically many reachable tag
arrangements within reach of exact averaging.

It also quotients by slot order.  A suffix crossover never changes a
slot's action or first class, and the one at the first states of two
slots that share both swaps those slots whole, so the orbit holds every
reordering of the slots within such a group, and no schema can see slot
order.  The search therefore keeps one sorted shape per reordering class
together with its weight, the number of tag-erased classes it stands for;
``n_classes`` is the sum of the weights.  The inflated-population oracle
is the same search from a start of repeated slots, with each copy family
of terminals as one token.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations
from math import factorial, isqrt, prod
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .model import (
    ClassId,
    Population,
    Rollout,
    Schema,
    StateTag,
    TaggedState,
    inflate,
)
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


def _locate(p: Population, cls: ClassId, tag: StateTag) -> tuple[int, int] | None:
    target = TaggedState(cls, tag)
    for i, r in enumerate(p.rollouts):
        for k, s in enumerate(r.states):
            if s == target:
                return i, k
    return None


def apply_chi(p: Population, cls: ClassId, c: StateTag, d: StateTag) -> Population:
    """Suffix crossover at the pair (cls, c), (cls, d).

    The suffixes starting at the two states (terminals included) are
    exchanged when the states lie in distinct rollouts; a same-rollout
    pair, or a missing state, leaves the population unchanged.
    """
    loc1 = _locate(p, cls, c)
    loc2 = _locate(p, cls, d)
    if loc1 is None or loc2 is None or loc1[0] == loc2[0]:
        return p
    (i1, k1), (i2, k2) = loc1, loc2
    r1, r2 = p.rollouts[i1], p.rollouts[i2]
    new1 = Rollout(r1.action, r1.states[:k1] + r2.states[k2:], r2.terminal)
    new2 = Rollout(r2.action, r2.states[:k2] + r1.states[k1:], r1.terminal)
    rollouts = list(p.rollouts)
    rollouts[i1], rollouts[i2] = new1, new2
    return Population(tuple(rollouts))


def apply_nu(p: Population, cls: ClassId, c: StateTag, d: StateTag) -> Population:
    """Position swap of the two states (cls, c) and (cls, d), in place."""
    loc1 = _locate(p, cls, c)
    loc2 = _locate(p, cls, d)
    if loc1 is None or loc2 is None:
        return p
    (i1, k1), (i2, k2) = loc1, loc2
    rollouts = list(p.rollouts)
    if i1 == i2:
        states = list(rollouts[i1].states)
        states[k1], states[k2] = states[k2], states[k1]
        rollouts[i1] = Rollout(rollouts[i1].action, tuple(states), rollouts[i1].terminal)
    else:
        r1, r2 = rollouts[i1], rollouts[i2]
        s1, s2 = list(r1.states), list(r2.states)
        s1[k1], s2[k2] = r2.states[k2], r1.states[k1]
        rollouts[i1] = Rollout(r1.action, tuple(s1), r1.terminal)
        rollouts[i2] = Rollout(r2.action, tuple(s2), r2.terminal)
    return Population(tuple(rollouts))


def apply_transform(p: Population, t: Transform) -> Population:
    if t.kind is TransformKind.IDENTITY:
        return p
    assert t.cls is not None and t.tags is not None
    c, d = sorted(t.tags)
    if t.kind is TransformKind.ONE_POINT:
        return apply_chi(p, t.cls, c, d)
    return apply_nu(p, t.cls, c, d)


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
        for _, _, s in p.states():
            by_class.setdefault(s.cls, []).append(s.tag)
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
# names; an inflated orbit gives each copy family of terminals one token.
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
    start = tuple((action_ids[r.action], terminal_ids[r.terminal]) + r.classes for r in p.rollouts)
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
    one.  The population is held as mutable slots of state ids, with the
    slot and position of every id; a move rewrites at most two slots, and
    only their schema matches are recomputed.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    rng = random.Random(seed)
    gens, epsilon = mu.generators, mu.epsilon
    n_gens = len(gens)

    start, action_names, terminal_names = _encode_start(p0)
    patterns = [_pattern(h, action_names, terminal_names) for h in schemata]
    states = [s for r in p0.rollouts for s in r.states]  # state id -> state
    classes = [s.cls for s in states]
    terminals = [slot[1] for slot in start]  # terminal token per slot
    slots: list[list[int]] = []
    slot_of: list[int] = []
    pos_of: list[int] = []
    for i, r in enumerate(p0.rollouts):
        slots.append(list(range(len(slot_of), len(slot_of) + r.height)))
        slot_of.extend([i] * r.height)
        pos_of.extend(range(r.height))
    ids = {s: n for n, s in enumerate(states)}
    # Generator tag indices -> state ids; None for a state p0 lacks, whose
    # moves leave the population fixed.
    table = [
        [ids.get(TaggedState(cls, tag)) for tag in tags] for cls, tags in zip(gens.classes, gens.tags)
    ]

    def fits(slot: int) -> list[bool]:
        encoded = (start[slot][0], terminals[slot], *[classes[x] for x in slots[slot]])
        return [_fits(pattern, encoded) for pattern in patterns]

    matched = [fits(slot) for slot in range(len(slots))]
    # Each total starts as if P^0 lasted all steps+1 populations; a change
    # made by step t holds for the steps - t populations P^{t+1}..P^steps.
    totals = [sum(m[q] for m in matched) * (steps + 1) for q in range(len(schemata))]
    visits: dict[Population, int] | None = {} if visit_stride else None
    random_, randrange, decode = rng.random, rng.randrange, gens.decode
    for t in range(steps + 1):
        if visits is not None and t % visit_stride == 0:  # type: ignore[operator]
            current = Population(
                tuple(
                    Rollout(action_names[r[0]], tuple(states[x] for x in slot), terminal_names[f])
                    for r, slot, f in zip(start, slots, terminals)
                )
            )
            visits[current] = visits.get(current, 0) + 1
        if t == steps or not n_gens or random_() < epsilon:
            continue
        c, i, j, chi = decode(randrange(n_gens))
        x, y = table[c][i], table[c][j]
        if x is None or y is None:
            continue
        s1, k1, s2, k2 = slot_of[x], pos_of[x], slot_of[y], pos_of[y]
        if not chi:
            # Same-class states trade places: no slot's classes change.
            slots[s1][k1], slots[s2][k2] = y, x
            slot_of[x], pos_of[x], slot_of[y], pos_of[y] = s2, k2, s1, k1
        elif s1 != s2:
            one, two = slots[s1], slots[s2]
            one[k1:], two[k2:] = two[k2:], one[k1:]
            terminals[s1], terminals[s2] = terminals[s2], terminals[s1]
            for s, slot, k in ((s1, one, k1), (s2, two, k2)):
                for pos in range(k, len(slot)):
                    slot_of[slot[pos]], pos_of[slot[pos]] = s, pos
                new = fits(s)
                for q, (before, after) in enumerate(zip(matched[s], new)):
                    totals[q] += (after - before) * (steps - t)
                matched[s] = new
    return ChainTrace(p0, steps, seed, dict(zip(schemata, totals)), visits)


# --- exact orbit enumeration -------------------------------------------------

# A canonical shape forgets the slot order: its slots are sorted.  No move
# changes a slot's group (see _group), and the slots of a group can be put
# in any order, so a canonical shape stands for ``_weight`` shapes of the
# orbit.

def _suffix_move_images(shape: EncodedShape) -> Iterator[EncodedShape]:
    """Images of a shape under every suffix-crossover move.

    Position swaps never change a shape, so only suffix swaps at two
    same-class positions in distinct slots appear here.  Slot layout:
    index 0 action id, index 1 terminal token, classes from index 2.
    """
    positions: dict[int, list[tuple[int, int]]] = {}
    for slot_index, slot in enumerate(shape):
        for idx in range(2, len(slot)):
            positions.setdefault(slot[idx], []).append((slot_index, idx))
    for cls_positions in positions.values():
        for (s1, k1), (s2, k2) in combinations(cls_positions, 2):
            if s1 == s2:
                continue
            a = shape[s1]
            b = shape[s2]
            new = list(shape)
            new[s1] = (a[0], b[1]) + a[2:k1] + b[k2:]
            new[s2] = (b[0], a[1]) + b[2:k2] + a[k1:]
            yield tuple(new)


def _group(slot: tuple[int, ...]) -> tuple:
    """What no move changes in a slot: its action and first class.

    Suffix crossover keeps both, and the one at the first states of two
    slots of one group swaps those slots whole.  A stateless slot never
    moves, so it is a group of its own.
    """
    return (slot[0], slot[2]) if len(slot) > 2 else (slot,)


def _weight(shape: EncodedShape) -> int:
    """Distinct slot orders of a shape that keep every slot in its group:
    prod over groups of |g|!, over the factorials of repeated slots."""
    return _arrangements(map(_group, shape)) // _arrangements(shape)


def _canonical_shapes(start: EncodedShape, fiber: int, cap: int) -> dict[EncodedShape, int]:
    """Breadth-first closure of start under suffix moves, as canonical
    shapes and their weights.

    Raises OrbitCapExceeded as soon as the weights found so far times the
    fiber exceed ``cap``, so it trips exactly when the orbit is too large.
    """
    weights: dict[EncodedShape, int] = {}
    total = 0
    images: Iterator[EncodedShape] = iter((start,))
    while True:
        frontier = []
        for image in images:
            shape = tuple(sorted(image))
            if shape not in weights:
                weights[shape] = _weight(shape)
                total += weights[shape]
                if total * fiber > cap:
                    raise OrbitCapExceeded(
                        f"orbit size exceeds cap {cap} "
                        f"({total} tag-erased classes found so far, {fiber} populations each)"
                    )
                frontier.append(shape)
        if not frontier:
            return weights
        images = (image for shape in frontier for image in _suffix_move_images(shape))


def _class_fiber(p: Population) -> int:
    """Number of tag relabellings of a population: prod_i n_i! over classes."""
    return _arrangements(s.cls for _, _, s in p.states())


def _shape_frequency(o: OrbitSet, h: Schema) -> Frequency:
    """Weighted mean of (slots fitting the schema)/b over canonical shapes."""
    pattern = _pattern(h, o.action_names, o.terminal_names)
    total = sum(weight for slot, weight in o._slot_weights.items() if _fits(pattern, slot))
    return Fraction(total, o.n_classes * o.b)


@dataclass(frozen=True)
class OrbitSet:
    """The reachable set of populations, held as weighted canonical shapes.

    ``n_classes`` counts the tag-erased classes, the sum of the weights,
    and ``size = n_classes * fiber`` is the exact number of reachable
    populations: every relabelling of same-class tags is reachable,
    distinct, and invisible to schema statistics.

    A terminal token may stand for several terminal labels, all
    interchangeable: ``enumerate_inflated_orbit`` gives the copies of a
    base terminal one token, and the fiber counts their relabellings.
    """

    initial: Population
    start: EncodedShape  # the initial population, slot by slot
    encoded: tuple[EncodedShape, ...]  # canonical shapes, ascending
    weights: tuple[int, ...]
    action_names: tuple[str, ...]
    terminal_names: tuple[str, ...]  # by token; a copy family's base label
    fiber: int
    n_classes: int

    @property
    def b(self) -> int:
        return self.initial.b

    @property
    def size(self) -> int:
        return self.n_classes * self.fiber

    def family_frequency(self, h: Schema) -> Frequency:
        """Exact orbit mean of (rollouts fitting h)/b, where h's terminal
        stands for every label of its token (its whole copy family)."""
        return _shape_frequency(self, h)

    @cached_property
    def _slot_weights(self) -> dict[tuple[int, ...], int]:
        # Each distinct slot with its weight summed over the canonical shapes.
        totals: dict[tuple[int, ...], int] = {}
        for shape, weight in zip(self.encoded, self.weights):
            for slot in shape:
                totals[slot] = totals.get(slot, 0) + weight
        return totals

    @cached_property
    def _lookup(self) -> tuple[tuple[str, ...], tuple[int, ...], list[tuple], frozenset[EncodedShape]]:
        labels, tokens = zip(*sorted(zip(self.initial.terminals(), (slot[1] for slot in self.start))))
        return labels, tokens, [_group(slot) for slot in self.start], frozenset(self.encoded)

    def contains(self, p: Population) -> bool:
        labels, tokens, groups, members = self._lookup
        start, action_names, terminal_names = _encode_start(p)
        if action_names != self.action_names or terminal_names != labels:
            return False
        encoded = [(slot[0], tokens[slot[1]]) + slot[2:] for slot in start]
        return [_group(slot) for slot in encoded] == groups and tuple(sorted(encoded)) in members


# The inflated orbit is the same weighted orbit, started from copies.
InflatedOrbit = OrbitSet


def _orbit(
    initial: Population,
    start: EncodedShape,
    action_names: tuple[str, ...],
    terminal_names: tuple[str, ...],
    cap: int,
) -> OrbitSet:
    # Relabellings of same-class tags and of a token's terminals.
    fiber = _class_fiber(initial) * _arrangements(slot[1] for slot in start)
    if fiber > cap:
        raise OrbitCapExceeded(f"orbit size is at least {fiber}, cap {cap}")
    weights = _canonical_shapes(start, fiber, cap)
    encoded = tuple(sorted(weights))
    return OrbitSet(
        initial,
        start,
        encoded,
        tuple(weights[shape] for shape in encoded),
        action_names,
        terminal_names,
        fiber,
        sum(weights.values()),
    )


def enumerate_orbit(p0: Population, cap: int = 10**6) -> OrbitSet:
    """Breadth-first closure of the initial population under all generators.

    Raises OrbitCapExceeded as soon as the exact orbit size would exceed
    ``cap``.  Memory grows only with the number of canonical shapes.
    """
    return _orbit(p0, *_encode_start(p0), cap)


def orbit_frequency(o: OrbitSet, h: Schema) -> Frequency:
    """Exact mean of (matching rollouts)/b over the whole orbit."""
    return _shape_frequency(o, h)


def enumerate_inflated_orbit(p0: Population, m: int, cap: int = 10**6) -> OrbitSet:
    """Exact orbit of inflate(p0, m), canonical in tags and copy families.

    Inflation copies carry fresh terminal labels, but every relabelling
    within one copy family is reachable (copies share their class
    sequences, so a last-state suffix swap plus a free tag relabelling
    exchanges any two family terminals) and acts freely, exactly like tag
    relabellings.  So the copies of a base terminal share one token, and a
    schema of the base population is transported to the inflated one by
    letting its terminal stand for the whole copy family.

    Requires every rollout of p0 to have at least one state: a stateless
    rollout's terminal can never move, so its copies would not be
    interchangeable and the family quotient would overcount.
    """
    if any(r.height == 0 for r in p0.rollouts):
        raise ValueError("family quotient needs every rollout to carry a state")
    base, action_names, family_names = _encode_start(p0)
    # Slot i*m + c of the inflated population is copy c of base rollout i,
    # which shares its action, classes and terminal family.
    start = tuple(slot for slot in base for _ in range(m))
    return _orbit(inflate(p0, m), start, action_names, family_names, cap)
