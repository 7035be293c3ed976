"""The closed-form limiting schema frequency, read off the succession digraph.

Everything here is exact rational arithmetic.  The succession counts of a
population live in one place, the edge weights of its digraph
(:func:`rollmix.digraph.build_digraph`): the weight of edge i -> j counts
how often class j directly follows class i, and the out-weight of class i
is its number of occurrences.  These counts are invariant under every
crossover transformation, which is what makes the closed-form frequency
below meaningful.

For a schema (a, c1..ck, tail) the limiting frequency is

    (rollouts starting with a)/b  *  P(a walk from a traces c1..ck, tail)

where the walk moves along edges in proportion to their weight and a ``#``
tail pins nothing after ck.  Written out, that is
count(a -> c1)/b * prod_q count(c_{q-1} -> c_q)/occ(c_{q-1}) * LF with LF
1 for ``#``, 1/occ(ck) for a terminal following ck, and 0 otherwise.
"""

from __future__ import annotations

from fractions import Fraction

from .digraph import WeightedDigraph, action_node, build_digraph, class_node, path_probability
from .model import Population, Schema, WILDCARD


def down_report(p: Population) -> WeightedDigraph:
    """The succession counts of a valid population: its weighted digraph."""
    return build_digraph(p)


def limiting_frequency_from_report(g: WeightedDigraph, h: Schema) -> Fraction:
    """Closed-form limiting frequency of a schema, from a population's digraph."""
    if h.is_root:
        return Fraction(1)
    assert h.action is not None
    return Fraction(g.out_weight(action_node(h.action)), g.b) * path_probability(g, h)


def limiting_frequency(p: Population, h: Schema) -> Fraction:
    """Closed-form limiting frequency of schema h for the population p."""
    return limiting_frequency_from_report(down_report(p), h)


def frequency_children(p: Population, h: Schema) -> dict[Schema, Fraction]:
    """Limiting frequencies of all one-step extensions of a #-tailed schema.

    For (a, c1..ck, #) the children are (a, c1..ck, j, #) for every class j
    following ck and (a, c1..ck, f) for every terminal f following ck.  For
    plain (a, #) the successors of the action itself are used, and for the
    root pattern the children are the (a, #) schemata of the actions
    present.  Child frequencies always sum exactly to the parent's.
    """
    if not (h.is_root or h.wildcard_tail):
        raise ValueError("frequency_children expects a #-tailed schema")
    g = down_report(p)
    children: dict[Schema, Fraction] = {}
    if h.is_root:
        for action in sorted(g.actions):
            child = Schema(action, (), WILDCARD)
            children[child] = limiting_frequency_from_report(g, child)
        return children
    assert h.action is not None
    node = class_node(h.classes[-1]) if h.classes else action_node(h.action)
    class_succ, term_succ = g.successors(node)
    for entry in (*class_succ, *term_succ):
        child = h.extend(entry)
        children[child] = limiting_frequency_from_report(g, child)
    return children
