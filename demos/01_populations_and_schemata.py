#!/usr/bin/env python3
"""Populations, validation, and schema matching.

A rollout records one trial: the action taken, the sequence of observed
similarity classes (each occurrence tagged so it stays distinct), and a
terminal label.  A population is an ordered sample of rollouts in which
every tagged state and every terminal occurs exactly once.  Schemata are
patterns over rollouts; `#` stands for "any continuation".
"""

from rollmix.fixtures import population_a, population_b
from rollmix.model import (
    Rollout,
    Schema,
    inflate,
    is_homologous,
    population_violations,
    schema_count,
    schema_match,
    state,
    validate_population,
)


def main():
    pa = population_a()
    print("fixture A:")
    for r in pa:
        print("  ", r)
    print("valid:", not population_violations(pa.rollouts))
    print("homologous:", is_homologous(pa), "(classes pinned to one height each)")

    pb = population_b()
    print("\nfixture B:")
    for r in pb:
        print("  ", r)
    print("homologous:", is_homologous(pb), "(class 1 occurs at heights 1 and 2)")

    print("\nbroken sample:")
    broken = [
        Rollout("alpha", (state(1, "a"),), "f1"),
        Rollout("beta", (state(1, "a"),), "f1"),
    ]
    for v in population_violations(broken):
        print("  ", v.kind, "->", v.detail)

    print("\nschema matching:")
    h = Schema("alpha", (1, 2), "#")
    probe = Rollout("alpha", (state(1, "a"), state(2, "c"), state(5, "a"), state(3, "c")), "f")
    print(f"  {h} vs {probe}: {schema_match(h, probe)}")
    h_exact = Schema("alpha", (1, 2), "f")
    print(f"  {h_exact} vs {probe}: {schema_match(h_exact, probe)} (needs exact length)")
    print(f"  count of {h} in fixture A: {schema_count(h, pa)} of {pa.b}")

    print("\ninflation (three copies of every rollout, fresh labels):")
    q = inflate(pa, 3)
    print(f"  {q.b} rollouts, still valid: {not population_violations(q.rollouts)}")
    print("  wildcard counts scale:", schema_count(h, q), "=", 3, "x", schema_count(h, pa))
    try:
        validate_population(q.rollouts)
        print("  revalidation passed")
    except Exception as exc:  # pragma: no cover - demo only
        print("  revalidation failed:", exc)


if __name__ == "__main__":
    main()
