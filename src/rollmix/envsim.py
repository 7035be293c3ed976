"""Toy partially observable environments that emit valid populations.

Hidden states map onto similarity classes through an observation
function; states sharing an observation expose the same action set, so
an agent acting on observations alone is well defined.  Rollouts record
the observed class of every visited state under a globally fresh tag,
and every rollout ends on a fresh terminal label, which makes any
collection of simulated rollouts a valid population by construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .fileio import ParseError, is_json_int, parse_rational
from .model import (
    ActionLabel,
    ClassId,
    Population,
    Rollout,
    StateTag,
    TaggedState,
    TerminalLabel,
    tag_symbol,
    validate_population,
)

CAP_TERMINAL_PREFIX = "cap"


class InvalidConfig(ParseError):
    """An environment config that describes no valid environment."""


@dataclass(frozen=True)
class SimConfig:
    """Knobs for random environment construction and rollout generation."""

    n_states: int
    n_observations: int
    n_actions: int
    max_branching: int
    depth_cap: int
    payoff_range: tuple[int, int]
    rollouts: int
    seed: int
    cap_payoff: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        counts = (
            self.n_states,
            self.n_observations,
            self.n_actions,
            self.max_branching,
            self.depth_cap,
            self.rollouts,
        )
        if any(c < 1 for c in counts):
            raise InvalidConfig("all counts must be positive")
        if self.n_observations > self.n_states:
            raise InvalidConfig("cannot have more observations than states")
        if self.payoff_range[0] > self.payoff_range[1]:
            raise InvalidConfig("payoff range is inverted")


@dataclass(frozen=True)
class Transition:
    """Categorical successor distribution plus a termination probability."""

    successors: tuple[int, ...]
    probabilities: tuple[float, ...]
    termination: float


@dataclass(frozen=True)
class EnvModel:
    """Hidden dynamics: observation map, per-class action sets, kernel."""

    n_states: int
    observation: tuple[ClassId, ...]  # state -> similarity class (1-based)
    class_actions: Mapping[ClassId, tuple[ActionLabel, ...]]
    transitions: Mapping[tuple[int, ActionLabel], Transition]
    payoff_range: tuple[int, int]
    cap_payoff: Fraction
    depth_cap: int
    seed: int
    root_state: int = 0

    def observe(self, state: int) -> ClassId:
        return self.observation[state]

    def actions_at(self, state: int) -> tuple[ActionLabel, ...]:
        return self.class_actions[self.observe(state)]

    @property
    def root_actions(self) -> tuple[ActionLabel, ...]:
        return self.actions_at(self.root_state)


def action_names(n: int) -> tuple[ActionLabel, ...]:
    return tuple(f"act{i}" for i in range(1, n + 1))


def make_random_pomdp(cfg: SimConfig, rng: random.Random | None = None) -> EnvModel:
    """Draw a random environment honouring the observation-map constraints.

    Every observation class receives at least one state and a nonempty
    action set shared by all its states; every (state, action) can
    terminate immediately with positive probability, so termination is
    always reachable within any depth cap.
    """
    rng = rng if rng is not None else random.Random(cfg.seed)
    # Onto observation map: first one state per class, then the rest at random.
    assignment = list(range(1, cfg.n_observations + 1))
    assignment += [rng.randint(1, cfg.n_observations) for _ in range(cfg.n_states - cfg.n_observations)]
    rng.shuffle(assignment)
    observation = tuple(assignment)

    alphabet = action_names(cfg.n_actions)
    class_actions: dict[ClassId, tuple[ActionLabel, ...]] = {}
    for cls in range(1, cfg.n_observations + 1):
        k = rng.randint(1, cfg.n_actions)
        class_actions[cls] = tuple(sorted(rng.sample(alphabet, k)))

    transitions: dict[tuple[int, ActionLabel], Transition] = {}
    for s in range(cfg.n_states):
        for a in class_actions[observation[s]]:
            branch = rng.randint(1, cfg.max_branching)
            succ = tuple(rng.sample(range(cfg.n_states), min(branch, cfg.n_states)))
            raw = [rng.random() + 0.05 for _ in succ]
            term = rng.uniform(0.1, 0.5)
            scale = (1.0 - term) / sum(raw)
            probs = tuple(w * scale for w in raw)
            transitions[(s, a)] = Transition(succ, probs, term)

    return EnvModel(
        n_states=cfg.n_states,
        observation=observation,
        class_actions=class_actions,
        transitions=transitions,
        payoff_range=cfg.payoff_range,
        cap_payoff=cfg.cap_payoff,
        depth_cap=cfg.depth_cap,
        seed=cfg.seed,
    )


class TagAllocator:
    """Globally unique occurrence tags rendered as letter strings.

    The single shared counter is the only coordination point between
    concurrently simulated rollouts.
    """

    def __init__(self) -> None:
        self._next = 0

    def take(self) -> StateTag:
        n, self._next = self._next, self._next + 1
        return StateTag(tag_symbol(n), 0)


@dataclass
class SimulatedRollout:
    rollout: Rollout
    payoff: Fraction
    cap_hit: bool


def simulate_rollout(
    env: EnvModel,
    action: ActionLabel,
    rng: random.Random,
    tags: TagAllocator,
    terminal: TerminalLabel,
) -> SimulatedRollout:
    """One trial from the root state: the given first action, then uniform
    random actions, recording observed classes under fresh tags.

    Hitting the depth cap ends the rollout on a distinguished cap
    terminal (``terminal`` prefixed) with the configured cap payoff.
    """
    if action not in env.root_actions:
        raise InvalidConfig(f"action {action!r} unavailable at the root state")
    states: list[TaggedState] = []
    s = env.root_state
    a = action
    while True:
        tr = env.transitions[(s, a)]
        if rng.random() < tr.termination:
            payoff = Fraction(rng.randint(*env.payoff_range))
            return SimulatedRollout(Rollout(action, tuple(states), terminal), payoff, False)
        r = rng.random() * sum(tr.probabilities)
        acc = 0.0
        s = tr.successors[-1]
        for succ, prob in zip(tr.successors, tr.probabilities):
            acc += prob
            if r < acc:
                s = succ
                break
        states.append(TaggedState(env.observe(s), tags.take()))
        if len(states) >= env.depth_cap:
            cap_name = f"{CAP_TERMINAL_PREFIX}_{terminal}"
            return SimulatedRollout(
                Rollout(action, tuple(states), cap_name), env.cap_payoff, True
            )
        a = rng.choice(env.actions_at(s))


@dataclass(frozen=True)
class GeneratedSample:
    population: Population
    payoffs: Mapping[TerminalLabel, Fraction]
    cap_hits: int


def generate_population(
    env: EnvModel,
    actions: Sequence[ActionLabel],
    rng: random.Random,
) -> GeneratedSample:
    """One rollout per entry of the action sequence, plus its payoff map."""
    tags = TagAllocator()
    rollouts: list[Rollout] = []
    payoffs: dict[TerminalLabel, Fraction] = {}
    cap_hits = 0
    for i, action in enumerate(actions, start=1):
        sim = simulate_rollout(env, action, rng, tags, f"t{i}")
        rollouts.append(sim.rollout)
        payoffs[sim.rollout.terminal] = sim.payoff
        cap_hits += int(sim.cap_hit)
    return GeneratedSample(validate_population(rollouts), payoffs, cap_hits)


def sim_config_to_json(cfg: SimConfig) -> dict:
    return {
        "n_states": cfg.n_states,
        "n_observations": cfg.n_observations,
        "n_actions": cfg.n_actions,
        "max_branching": cfg.max_branching,
        "depth_cap": cfg.depth_cap,
        "payoff_range": list(cfg.payoff_range),
        "rollouts": cfg.rollouts,
        "seed": cfg.seed,
        "cap_payoff": str(cfg.cap_payoff),
    }


def sim_config_from_json(data: object) -> SimConfig:
    integers = ("n_states", "n_observations", "n_actions", "max_branching", "depth_cap", "rollouts", "seed")
    if not isinstance(data, dict):
        raise InvalidConfig("an environment config is a JSON object")
    for name in (*integers, "payoff_range"):
        if name not in data:
            raise InvalidConfig(f"missing config field {name!r}")
        if name in integers and not is_json_int(data[name]):
            raise InvalidConfig(f"{name} must be an integer, got {data[name]!r}")
    payoff_range = data["payoff_range"]
    if not (isinstance(payoff_range, list) and len(payoff_range) == 2 and all(map(is_json_int, payoff_range))):
        raise InvalidConfig(f"payoff_range must be two integers, got {payoff_range!r}")
    try:
        cap_payoff = parse_rational(data.get("cap_payoff", 0))
    except ParseError:
        raise InvalidConfig(f"cap_payoff must be a rational, got {data.get('cap_payoff')!r}") from None
    return SimConfig(
        **{name: data[name] for name in integers},
        payoff_range=tuple(payoff_range),
        cap_payoff=cap_payoff,
    )
