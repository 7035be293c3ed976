"""rollmix: a workbench for rollout-population recombination analysis.

The package connects four views of the same object and lets each one
check the others:

* populations of rollouts with crossover transformations acting on them
  (:mod:`rollmix.model`, :mod:`rollmix.recombine`);
* the closed-form limiting frequency of any rollout schema, read off the
  succession counts of the digraph below (:mod:`rollmix.stats`);
* the exact orbit oracle: uniform averages over everything recombination
  can reach (:mod:`rollmix.recombine`);
* the weighted succession digraph, the one store of succession counts,
  with payoff-harvesting random walkers whose estimate is the exact mean
  of their payoffs, and its exact expected-payoff solver
  (:mod:`rollmix.digraph`).

:mod:`rollmix.fileio` reads and writes population files, schema text and
canonical reports.  :mod:`rollmix.envsim` generates valid populations from
toy partially observable environments, :mod:`rollmix.verify` runs the
acceptance criteria on the :mod:`rollmix.fixtures` populations, and
:mod:`rollmix.cli` wraps everything in a reproducible command-line
pipeline.

Import each name from the module that defines it, as in
``from rollmix.model import Schema``; the package itself holds only
``__version__``, so ``import rollmix`` loads none of the modules above.
"""

__version__ = "0.1.0"
