"""Domain model for rollout populations.

A *rollout* records one random trial: an initial action, the sequence of
observed similarity classes it passed through (each occurrence carrying a
distinguishing tag), and the terminal label it ended on.  A *population*
is an ordered sample of such rollouts in which every tagged state and
every terminal label occurs exactly once.

Schemata are patterns over rollouts: an action, a prefix of similarity
classes, and either an exact terminal or the ``#`` wildcard standing for
"any continuation".  The bare ``#`` (``ROOT``) matches every rollout.

All values in this module are immutable after construction and safe to
share across threads.  Tags and tagged states, of which a population holds
one per state, are named tuples that check their fields, so hashing,
equality and sorting run in C; each equals the plain tuple of its fields.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from typing import Iterator, Sequence

ClassId = int
ActionLabel = str
TerminalLabel = str

WILDCARD = "#"

# Separator used by inflate() when suffixing copied terminal labels.
_COPY_SEP = "@"


@dataclass(frozen=True)
class Violation:
    """One population-invariant violation, locating the offending rollouts."""

    kind: str  # "DuplicateState" | "DuplicateTerminal" | "EmptyPopulation"
    detail: str
    rollouts: tuple[int, ...] = ()


class InvalidPopulationError(Exception):
    """Raised when a candidate population breaks a distinctness invariant."""

    def __init__(self, violations: Sequence[Violation]):
        self.violations = tuple(violations)
        lines = "; ".join(f"{v.kind}: {v.detail}" for v in self.violations)
        super().__init__(f"invalid population: {lines}")


class StateTag(namedtuple("StateTag", "symbol copy")):
    """Distinguishing tag of one state occurrence.

    ``copy`` is 0 for original occurrences; inflate() assigns higher copy
    indices so duplicated rollouts stay formally distinct.
    """

    __slots__ = ()

    def __new__(_cls, symbol: str, copy: int = 0) -> "StateTag":
        if not symbol:
            raise ValueError("tag symbol must be non-empty")
        if copy < 0:
            raise ValueError("copy index must be >= 0")
        return tuple.__new__(_cls, (symbol, copy))

    def __str__(self) -> str:
        return self.symbol if self.copy == 0 else f"{self.symbol}{_COPY_SEP}{self.copy}"


class TaggedState(namedtuple("TaggedState", "cls tag")):
    """A similarity class together with the tag of this occurrence."""

    __slots__ = ()

    def __new__(_cls, cls: ClassId, tag: StateTag) -> "TaggedState":
        if cls < 1:
            raise ValueError("class ids are positive integers")
        return tuple.__new__(_cls, (cls, tag))

    def __str__(self) -> str:
        return f"({self.cls},{self.tag})"


def tag_symbol(index: int) -> str:
    """Bijective base-26 letter string of a tag index: a..z, aa, ab, ..."""
    symbol = ""
    while index >= 0:
        symbol = "abcdefghijklmnopqrstuvwxyz"[index % 26] + symbol
        index = index // 26 - 1
    return symbol


def state(cls: ClassId, symbol: str, copy: int = 0) -> TaggedState:
    """Shorthand constructor used heavily in tests and demos."""
    return TaggedState(cls, StateTag(symbol, copy))


@dataclass(frozen=True)
class Rollout:
    """One trial: action, tagged state sequence (possibly empty), terminal."""

    action: ActionLabel
    states: tuple[TaggedState, ...]
    terminal: TerminalLabel

    def __post_init__(self) -> None:
        if not self.action:
            raise ValueError("rollout action must be non-empty")
        if not self.terminal:
            raise ValueError("rollout terminal must be non-empty")
        object.__setattr__(self, "states", tuple(self.states))

    @property
    def height(self) -> int:
        """Number of states in the rollout."""
        return len(self.states)

    @property
    def classes(self) -> tuple[ClassId, ...]:
        return tuple(s.cls for s in self.states)

    def __str__(self) -> str:
        inner = ",".join(str(s) for s in self.states)
        return f"({self.action},{inner},{self.terminal})" if inner else f"({self.action},{self.terminal})"


@dataclass(frozen=True)
class Population:
    """An ordered sequence of rollouts.

    Construction does not re-check the cross-rollout distinctness
    invariants; untrusted data must go through validate_population().
    """

    rollouts: tuple[Rollout, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rollouts", tuple(self.rollouts))
        if not self.rollouts:
            raise InvalidPopulationError(
                [Violation("EmptyPopulation", "population has no rollouts")]
            )

    @property
    def b(self) -> int:
        """Population size (number of rollouts)."""
        return len(self.rollouts)

    def __iter__(self) -> Iterator[Rollout]:
        return iter(self.rollouts)

    def __len__(self) -> int:
        return len(self.rollouts)

    def states(self) -> Iterator[tuple[int, int, TaggedState]]:
        """Yield (rollout index, position, state) over every occurrence."""
        for i, r in enumerate(self.rollouts):
            for k, s in enumerate(r.states):
                yield i, k, s

    def actions(self) -> tuple[ActionLabel, ...]:
        return tuple(r.action for r in self.rollouts)

    def terminals(self) -> tuple[TerminalLabel, ...]:
        return tuple(r.terminal for r in self.rollouts)

    def class_ids(self) -> set[ClassId]:
        return {s.cls for _, _, s in self.states()}


def population_violations(rollouts: Sequence[Rollout]) -> list[Violation]:
    """Return every distinctness violation in a candidate rollout sequence.

    Duplicate state occurrences and duplicate terminal labels are each
    reported once per offending pair, with the rollout indices involved.
    """
    violations: list[Violation] = []
    if not rollouts:
        return [Violation("EmptyPopulation", "population has no rollouts")]
    seen_states: dict[TaggedState, int] = {}
    for i, r in enumerate(rollouts):
        for s in r.states:
            if s in seen_states:
                violations.append(
                    Violation(
                        "DuplicateState",
                        f"state {s} occurs in rollouts {seen_states[s]} and {i}",
                        (seen_states[s], i),
                    )
                )
            else:
                seen_states[s] = i
    seen_terminals: dict[TerminalLabel, int] = {}
    for i, r in enumerate(rollouts):
        if r.terminal in seen_terminals:
            violations.append(
                Violation(
                    "DuplicateTerminal",
                    f"terminal {r.terminal!r} ends rollouts {seen_terminals[r.terminal]} and {i}",
                    (seen_terminals[r.terminal], i),
                )
            )
        else:
            seen_terminals[r.terminal] = i
    return violations


def validate_population(rollouts: Sequence[Rollout]) -> Population:
    """Build a Population, raising InvalidPopulationError listing every violation."""
    violations = population_violations(rollouts)
    if violations:
        raise InvalidPopulationError(violations)
    return Population(tuple(rollouts))


def is_homologous(p: Population) -> bool:
    """True iff equal similarity classes only ever occur at equal positions."""
    position: dict[ClassId, int] = {}
    for _, k, s in p.states():
        if position.setdefault(s.cls, k) != k:
            return False
    return True


def inflate(p: Population, m: int) -> Population:
    """Duplicate every rollout m times over an extended tag alphabet.

    Copy 0 keeps the original tags and terminal; copy c >= 1 shifts every
    tag's copy index and suffixes the terminal with the copy index, so the
    result satisfies both distinctness invariants.  Per-position class
    structure is untouched, hence homologous inputs stay homologous.
    """
    if m < 1:
        raise ValueError("inflation factor must be >= 1")
    existing = {r.terminal for r in p.rollouts}
    # A separator-suffixed copy can only collide with an original label;
    # lengthen the separator until no original looks like a copy.
    sep = _COPY_SEP
    while any(f"{t}{sep}{c}" in existing for t in existing for c in range(1, m)):
        sep += _COPY_SEP
    new_rollouts: list[Rollout] = []
    for r in p.rollouts:
        for c in range(m):
            states = tuple(
                TaggedState(s.cls, StateTag(s.tag.symbol, s.tag.copy * m + c))
                for s in r.states
            )
            terminal = r.terminal if c == 0 else f"{r.terminal}{sep}{c}"
            new_rollouts.append(Rollout(r.action, states, terminal))
    return validate_population(new_rollouts)


@dataclass(frozen=True)
class Schema:
    """Rollout pattern: action, class prefix, and a terminal-or-# tail.

    The root pattern (bare ``#``) is represented with all fields empty and
    matches every rollout.
    """

    action: ActionLabel | None = None
    classes: tuple[ClassId, ...] = ()
    tail: TerminalLabel | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", tuple(self.classes))
        if self.action is None:
            if self.classes or self.tail is not None:
                raise ValueError("root schema carries no classes or tail")
        else:
            if not self.action:
                raise ValueError("schema action must be non-empty")
            if not self.tail:
                raise ValueError("schema tail must be a terminal or '#'")

    @property
    def is_root(self) -> bool:
        return self.action is None

    @property
    def wildcard_tail(self) -> bool:
        return self.tail == WILDCARD

    @property
    def height(self) -> int:
        """Number of class entries in the pattern."""
        return len(self.classes)

    def extend(self, entry: ClassId | TerminalLabel) -> "Schema":
        """Grow a #-tailed schema by one class (keeping #) or close it on a terminal."""
        if self.tail is not None and not self.wildcard_tail:
            raise ValueError("only #-tailed schemata can be extended")
        action = self.action
        if action is None:
            raise ValueError("extend the root by building (action, #) schemata directly")
        if isinstance(entry, int):
            return Schema(action, self.classes + (entry,), WILDCARD)
        return Schema(action, self.classes, entry)

    def __str__(self) -> str:
        if self.is_root:
            return WILDCARD
        parts = [self.action, *map(str, self.classes), self.tail]
        return ",".join(parts)  # type: ignore[arg-type]


ROOT = Schema()


def match_parts(
    h: Schema,
    action: ActionLabel,
    classes: Sequence[ClassId],
    terminal: TerminalLabel,
) -> bool:
    """Schema matching on the observable parts of a rollout (tags play no role)."""
    if h.is_root:
        return True
    if h.action != action:
        return False
    k = len(h.classes)
    if h.wildcard_tail:
        return len(classes) >= k and tuple(classes[:k]) == h.classes
    return len(classes) == k and tuple(classes) == h.classes and terminal == h.tail


def schema_match(h: Schema, r: Rollout) -> bool:
    """True iff the rollout fits the schema.

    A terminal-tailed schema requires the exact class sequence and terminal;
    a #-tailed schema requires the class prefix and allows zero or more
    further states before any terminal.
    """
    return match_parts(h, r.action, r.classes, r.terminal)


def schema_count(h: Schema, p: Population) -> int:
    """Number of rollouts in the population fitting the schema."""
    return sum(1 for r in p.rollouts if schema_match(h, r))
