#!/usr/bin/env python3
"""The mixing chain, the exact orbit oracle, and what the formula predicts.

Applying an independently sampled crossover per step gives a Markov chain
whose stationary distribution is uniform over everything crossover can
reach.  Running frequencies therefore converge to exact orbit averages.
On homologous populations the orbit average equals the closed-form
product exactly; on non-homologous ones it does not, but inflating the
population drives the exact orbit value onto the formula.
"""

from fractions import Fraction

from rollmix.fixtures import population_a, population_b
from rollmix.model import Schema, StateTag
from rollmix.recombine import (
    Transform,
    TransformDistribution,
    TransformKind,
    apply_transform,
    enumerate_inflated_orbit,
    enumerate_orbit,
    orbit_frequency,
    run_chain,
)
from rollmix.stats import limiting_frequency


def main():
    pa, pb = population_a(), population_b()

    print("one suffix swap on fixture B (heights change, statistics do not):")
    tags = frozenset((StateTag("a"), StateTag("b")))
    chi = Transform(TransformKind.ONE_POINT, 1, tags)
    q = apply_transform(pb, chi)
    for before, after in zip(pb, q):
        print(f"  {before}  ->  {after}")
    print("swap back restores it:", apply_transform(q, chi) == pb)
    nu = Transform(TransformKind.SINGLE_SWAP, 1, tags)
    print("position swap instead:", [str(r) for r in apply_transform(pb, nu)])

    target = Schema("alpha", (1, 2), "f1")

    print("\nexact orbit of fixture A:")
    oa = enumerate_orbit(pa)
    print(f"  {oa.size} reachable populations ({oa.n_classes} canonical classes x {oa.fiber})")
    print(f"  orbit mean of {target}: {orbit_frequency(oa, target)}")
    print(f"  closed form:            {limiting_frequency(pa, target)}   (homologous: equal)")

    print("\nexact orbit of fixture B:")
    ob = enumerate_orbit(pb)
    print(f"  {ob.size} reachable populations")
    print(f"  orbit mean {orbit_frequency(ob, target)} vs closed form {limiting_frequency(pb, target)}")

    print("\nrunning frequencies on fixture A (chain vs formula 2/9):")
    mu = TransformDistribution.from_population(pa)
    for steps in (100, 1000, 10000):
        trace = run_chain(pa, steps, mu, [target], seed=12)
        phi = trace.phi(target)
        print(f"  T={steps:>6}: phi = {float(phi):.5f}")

    print("\ninflating fixture B pulls the exact orbit value onto 1/8:")
    for m in range(1, 5):
        o = enumerate_inflated_orbit(pb, m, cap=10**40)
        v = o.family_frequency(target)
        print(
            f"  m={m}: orbit size {o.size:.3e} as float, value {v} = {float(v):.6f},"
            f" gap {float(abs(v - Fraction(1, 8))):.6f}"
        )


if __name__ == "__main__":
    main()
