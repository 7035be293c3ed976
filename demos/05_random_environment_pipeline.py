#!/usr/bin/env python3
"""End to end on a random partially observable environment.

Draw a hidden-state environment, simulate a population of rollouts from
its root, then run the whole toolbox over the sample: succession report,
closed-form frequencies, the exact orbit, the mixing chain, and walker
evaluation against the exact solver.
"""

import random
from fractions import Fraction

from rollmix.digraph import build_digraph, evaluate_actions, exact_expected_payoff
from rollmix.envsim import SimConfig, generate_population, make_random_pomdp
from rollmix.recombine import TransformDistribution, enumerate_orbit, orbit_frequency, run_chain
from rollmix.stats import frequency_children, limiting_frequency
from rollmix.model import ROOT, is_homologous

CFG = SimConfig(
    n_states=6,
    n_observations=3,
    n_actions=2,
    max_branching=2,
    depth_cap=4,
    payoff_range=(0, 3),
    rollouts=5,
    seed=77,
)


def main():
    env = make_random_pomdp(CFG)
    actions = [env.root_actions[i % len(env.root_actions)] for i in range(CFG.rollouts)]
    sample = generate_population(env, actions, random.Random(909))
    p = sample.population
    print(f"simulated {p.b} rollouts from {len(env.root_actions)} root actions:")
    for r in p:
        print("  ", r, f"payoff {sample.payoffs[r.terminal]}")
    print("homologous:", is_homologous(p), " cap hits:", sample.cap_hits)

    print("\nschema frequencies, one-step fan-out from the root pattern:")
    for parent, value in frequency_children(p, ROOT).items():
        print(f"  {parent}: {value}")
        for child, child_value in frequency_children(p, parent).items():
            print(f"     {child}: {child_value}")

    orbit = enumerate_orbit(p, cap=10**12)
    print(f"\nexact orbit: {orbit.size} populations ({orbit.n_classes} canonical classes)")
    action_level = next(iter(frequency_children(p, ROOT)))
    probe = next(iter(frequency_children(p, action_level)))
    print(f"  orbit mean of {probe}:  {orbit_frequency(orbit, probe)}")
    print(f"  closed form:            {limiting_frequency(p, probe)}")

    mu = TransformDistribution.from_population(p)
    trace = run_chain(p, 20_000, mu, [probe], seed=5)
    print(f"  chain at T=20000:       {float(trace.phi(probe)):.5f}")

    g = build_digraph(p)
    report = evaluate_actions(g, sorted({r.action for r in p}), 50_000, sample.payoffs, seed=6)
    print("\nwalker evaluation vs exact solve:")
    for action in sorted(report.per_action):
        exact = exact_expected_payoff(g, action, sample.payoffs)
        print(
            f"  {action}: walkers {float(report.per_action[action].mean):.5f}"
            f"  exact {exact} = {float(exact):.5f}"
        )


if __name__ == "__main__":
    main()
