#!/usr/bin/env python3
"""The succession digraph and payoff-harvesting walkers.

Ingested rollouts build a weighted directed graph: actions point at the
classes they opened with, classes at their successors, and final classes
at terminal sinks.  Independent walkers start at an action, follow edges
with probability proportional to weight, and average the payoff of the
terminal they land on.  An absorbing-chain solve gives the same number
exactly, so the two routes audit each other.
"""

import random

from rollmix.digraph import build_digraph, evaluate_actions, exact_expected_payoff, path_probability, walk
from rollmix.fixtures import payoffs_b, population_b
from rollmix.model import Schema


def main():
    g = build_digraph(population_b())
    print("edges of the fixture-B graph (note the 1 <-> 2 loop):")
    name = {"action": str, "class": "c{}".format, "terminal": str}
    edges = sorted(
        (name[src[0]](src[1]), name[dst[0]](dst[1]), w) for src, outs in g.weights.items() for dst, w in outs.items()
    )
    for src, dst, w in edges:
        print("  ", f"{src} -> {dst}", f"weight {w}")

    print("\na few walks from action alpha:")
    rng = random.Random(17)
    for _ in range(5):
        outcome = walk(g, "alpha", rng=rng)
        print(f"  reached {outcome.terminal} after {outcome.steps} steps")

    print("\nexact path probabilities from alpha:")
    for h in (Schema("alpha", (1,), "f2"), Schema("alpha", (1, 2), "f1")):
        print(f"  {h}: {path_probability(g, h)}")

    payoffs = payoffs_b()
    print("\nexpected payoff, exact absorbing-chain solve:")
    for action in ("alpha", "beta"):
        print(f"  {action}: {exact_expected_payoff(g, action, payoffs)}")

    print("\nwalker estimates (100k walks per action):")
    report = evaluate_actions(g, ["alpha", "beta"], 100_000, payoffs, seed=23)
    for action in ("alpha", "beta"):
        ev = report.per_action[action]
        se = ev.stddev / ev.n**0.5
        print(
            f"  {action}: Q = {float(ev.mean):.5f}"
            f" +- {se:.5f} (n={ev.n}, capped={ev.cap_exceeded})"
        )


if __name__ == "__main__":
    main()
