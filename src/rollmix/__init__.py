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

:mod:`rollmix.envsim` generates valid populations from toy partially
observable environments, and :mod:`rollmix.cli` wraps everything in a
reproducible command-line pipeline.
"""

__version__ = "0.1.0"

from .model import (
    InvalidPopulationError,
    Population,
    ROOT,
    Rollout,
    Schema,
    StateTag,
    TaggedState,
    Violation,
    WILDCARD,
    inflate,
    is_homologous,
    population_violations,
    schema_count,
    schema_match,
    state,
    validate_population,
)
from .stats import down_report, frequency_children, limiting_frequency
from .recombine import (
    ChainTrace,
    OrbitCapExceeded,
    OrbitSet,
    Transform,
    TransformDistribution,
    TransformKind,
    apply_transform,
    enumerate_inflated_orbit,
    enumerate_orbit,
    generator_index,
    orbit_frequency,
    run_chain,
)
from .digraph import (
    CapExceeded,
    EvaluationReport,
    NoData,
    Unsolvable,
    WalkOutcome,
    WeightedDigraph,
    build_digraph,
    evaluate_actions,
    exact_expected_payoff,
    path_probability,
    walk,
)
from .envsim import EnvModel, SimConfig, generate_population, make_random_pomdp, simulate_rollout
from .fileio import (
    ParseError,
    SchemaSyntaxError,
    format_schema,
    load_population,
    parse_schema,
    save_population,
)
