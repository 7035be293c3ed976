"""Canonical fixtures and seeded random population generators.

Two small populations anchor the whole verification suite:

* ``population_a`` -- homologous, three rollouts of shape (class 1, class 2):
  two starting with "alpha", one with "beta".
* ``population_b`` -- non-homologous, two rollouts visiting classes 1 and 2
  in opposite orders.

The random generators below produce valid populations by construction and
drive the property and acceptance suites; they are part of the package so
the command-line verification run can use them too.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .model import (
    Population,
    Rollout,
    StateTag,
    TaggedState,
    state,
    tag_symbol,
    validate_population,
)

DEFAULT_ACTIONS = ("alpha", "beta", "gamma")


def population_a() -> Population:
    rollouts = (
        Rollout("alpha", (state(1, "a"), state(2, "a")), "f1"),
        Rollout("alpha", (state(1, "b"), state(2, "b")), "f2"),
        Rollout("beta", (state(1, "c"), state(2, "c")), "f3"),
    )
    return Population(rollouts)


def payoffs_a() -> dict[str, Fraction]:
    return {"f1": Fraction(1), "f2": Fraction(0), "f3": Fraction(2)}


def population_b() -> Population:
    rollouts = (
        Rollout("alpha", (state(1, "a"), state(2, "a")), "f1"),
        Rollout("beta", (state(2, "b"), state(1, "b")), "f2"),
    )
    return Population(rollouts)


def payoffs_b() -> dict[str, Fraction]:
    return {"f1": Fraction(1), "f2": Fraction(0)}


def random_population(
    rng: random.Random,
    max_b: int = 4,
    max_height: int = 3,
    max_classes: int = 4,
    actions: tuple[str, ...] = DEFAULT_ACTIONS,
    allow_stateless: bool = False,
    min_b: int = 1,
) -> Population:
    """A random valid population; tags are allocated per-class in order."""
    b = rng.randint(min_b, max_b)
    counters: dict[int, int] = {}
    rollouts = []
    for i in range(1, b + 1):
        height = rng.randint(0 if allow_stateless else 1, max_height)
        states = []
        for _ in range(height):
            cls = rng.randint(1, max_classes)
            idx = counters.get(cls, 0)
            counters[cls] = idx + 1
            states.append(TaggedState(cls, StateTag(tag_symbol(idx))))
        rollouts.append(Rollout(rng.choice(actions), tuple(states), f"f{i}"))
    return validate_population(rollouts)


def random_homologous_population(
    rng: random.Random,
    max_b: int = 4,
    max_height: int = 3,
    max_classes: int = 4,
    actions: tuple[str, ...] = DEFAULT_ACTIONS,
    min_b: int = 1,
) -> Population:
    """A random homologous population: each class is pinned to one height.

    Classes are partitioned over the position indices 1..H, so equal
    classes can only ever meet at equal positions, whatever the heights
    of the individual rollouts.
    """
    n_classes = rng.randint(1, max_classes)
    classes = list(range(1, n_classes + 1))
    rng.shuffle(classes)
    depth = rng.randint(1, min(max_height, n_classes))
    # Nonempty pools: one class per level, leftovers sprinkled anywhere.
    pools: list[list[int]] = [[classes[k]] for k in range(depth)]
    for cls in classes[depth:]:
        pools[rng.randrange(depth)].append(cls)

    b = rng.randint(min_b, max_b)
    counters: dict[int, int] = {}
    rollouts = []
    for i in range(1, b + 1):
        height = rng.randint(1, depth)
        states = []
        for level in range(height):
            cls = rng.choice(pools[level])
            idx = counters.get(cls, 0)
            counters[cls] = idx + 1
            states.append(TaggedState(cls, StateTag(tag_symbol(idx))))
        rollouts.append(Rollout(rng.choice(actions), tuple(states), f"f{i}"))
    return validate_population(rollouts)

