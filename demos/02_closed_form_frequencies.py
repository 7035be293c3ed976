#!/usr/bin/env python3
"""Succession statistics and the closed-form limiting frequency.

The only thing crossover can never change is which class follows which:
the succession counts of a population are invariant under every suffix
swap and position swap.  The closed-form frequency of a schema is a
product of succession ratios, and one-step extensions of a schema always
split their parent's frequency exactly (flow conservation).
"""

from fractions import Fraction

from rollmix.digraph import action_node, class_node
from rollmix.fixtures import population_a, population_b
from rollmix.model import Schema
from rollmix.stats import down_report, frequency_children, limiting_frequency


def show_report(name, p):
    g = down_report(p)
    print(f"succession report for {name} (b={g.b}):")
    for a in sorted(g.actions):
        for j in g.successors(action_node(a))[0]:
            print(f"  {a} -> class {j}: {g.edge_weight(action_node(a), class_node(j))}")
    for i in sorted(g.classes):
        for j in g.successors(class_node(i))[0]:
            print(f"  class {i} -> class {j}: {g.edge_weight(class_node(i), class_node(j))}")
    for i in sorted(g.classes):
        node = class_node(i)
        print(
            f"  class {i}: occurrences {g.out_weight(node)},"
            f" terminal followers {len(g.successors(node)[1])}"
        )


def main():
    pa, pb = population_a(), population_b()
    show_report("fixture A", pa)
    print()
    show_report("fixture B", pb)

    print("\nclosed-form frequencies:")
    target = Schema("alpha", (1, 2), "f1")
    print(f"  {target} on A: {limiting_frequency(pa, target)}  (= 2/3 * 3/3 * 1/3)")
    print(f"  {target} on B: {limiting_frequency(pb, target)}  (= 1/2 * 1/2 * 1/2)")
    absent = Schema("alpha", (5,), "#")
    print(f"  {absent} on A: {limiting_frequency(pa, absent)}  (class 5 never occurs)")

    print("\nflow conservation, parent = sum of children:")
    for p, name in ((pa, "A"), (pb, "B")):
        h = Schema("alpha", (1,), "#")
        parent = limiting_frequency(p, h)
        children = frequency_children(p, h)
        total = sum(children.values(), Fraction(0))
        print(f"  {name}: {h} = {parent}")
        for child, value in sorted(children.items(), key=lambda kv: str(kv[0])):
            print(f"     {child}: {value}")
        print(f"     sum {total} == parent: {total == parent}")


if __name__ == "__main__":
    main()
