import random
from fractions import Fraction

import pytest

from rollmix.envsim import (
    InvalidConfig,
    SimConfig,
    TagAllocator,
    generate_population,
    make_random_pomdp,
    simulate_rollout,
)
from rollmix.model import population_violations


def small_config(seed=11, **overrides):
    base = dict(
        n_states=6,
        n_observations=3,
        n_actions=2,
        max_branching=3,
        depth_cap=6,
        payoff_range=(-2, 3),
        rollouts=5,
        seed=seed,
    )
    base.update(overrides)
    return SimConfig(**base)


class TestMakeRandomPomdp:
    def test_observation_map_is_onto_and_actions_consistent(self):
        env = make_random_pomdp(small_config())
        assert set(env.observation) == {1, 2, 3}
        for s in range(env.n_states):
            assert env.actions_at(s) == env.class_actions[env.observe(s)]

    def test_same_seed_same_model(self):
        assert make_random_pomdp(small_config()) == make_random_pomdp(small_config())

    def test_more_observations_than_states_rejected(self):
        with pytest.raises(InvalidConfig):
            small_config(n_observations=9)

    def test_nonpositive_counts_rejected(self):
        with pytest.raises(InvalidConfig):
            small_config(rollouts=0)

    def test_every_state_action_can_terminate(self):
        env = make_random_pomdp(small_config())
        for tr in env.transitions.values():
            assert tr.termination > 0


class TestSimulateRollout:
    def test_depth_cap_bounds_height(self):
        env = make_random_pomdp(small_config(depth_cap=1))
        rng = random.Random(3)
        tags = TagAllocator()
        for i in range(50):
            sim = simulate_rollout(env, env.root_actions[0], rng, tags, f"t{i}")
            assert sim.rollout.height <= 1

    def test_cap_terminal_marked_and_paid(self):
        env = make_random_pomdp(small_config(depth_cap=1))
        rng = random.Random(4)
        tags = TagAllocator()
        sims = [
            simulate_rollout(env, env.root_actions[0], rng, tags, f"t{i}")
            for i in range(100)
        ]
        capped = [s for s in sims if s.cap_hit]
        assert capped, "expected at least one cap hit at depth 1"
        for s in capped:
            assert s.rollout.terminal.startswith("cap_")
            assert s.payoff == Fraction(0)

    def test_unavailable_action_rejected(self):
        env = make_random_pomdp(small_config())
        with pytest.raises(InvalidConfig):
            simulate_rollout(env, "nope", random.Random(5), TagAllocator(), "t1")

    def test_deterministic_given_seed(self):
        env = make_random_pomdp(small_config())
        a = simulate_rollout(env, env.root_actions[0], random.Random(6), TagAllocator(), "t1")
        b = simulate_rollout(env, env.root_actions[0], random.Random(6), TagAllocator(), "t1")
        assert a == b


class TestGeneratePopulation:
    def test_actions_in_order(self):
        env = make_random_pomdp(small_config())
        actions = [env.root_actions[0]] * 2 + [env.root_actions[-1]]
        sample = generate_population(env, actions, random.Random(7))
        assert list(sample.population.actions()) == actions

    def test_payoffs_total(self):
        env = make_random_pomdp(small_config())
        sample = generate_population(env, [env.root_actions[0]] * 4, random.Random(8))
        assert set(sample.payoffs) == set(sample.population.terminals())

    def test_observation_consistency(self):
        # every emitted class actually is the observation of some state
        env = make_random_pomdp(small_config())
        sample = generate_population(env, [env.root_actions[0]] * 6, random.Random(9))
        emitted = sample.population.class_ids()
        assert emitted <= set(env.observation)

    def test_many_random_configs_yield_valid_populations(self):
        rng = random.Random(10)
        for _ in range(10_000):
            cfg = small_config(
                seed=rng.randrange(2**20),
                n_states=rng.randint(2, 8),
                n_observations=rng.randint(1, 2),
                n_actions=rng.randint(1, 3),
                max_branching=rng.randint(1, 3),
                depth_cap=rng.randint(1, 5),
                rollouts=rng.randint(1, 6),
            )
            env = make_random_pomdp(cfg)
            actions = [env.root_actions[i % len(env.root_actions)] for i in range(cfg.rollouts)]
            sample = generate_population(env, actions, random.Random(cfg.seed + 1))
            assert not population_violations(sample.population.rollouts)


def test_tag_allocator_is_injective():
    tags = TagAllocator()
    seen = {tags.take() for _ in range(1000)}
    assert len(seen) == 1000


def test_deterministic_kernel_repeats_class_sequences():
    # One action, one successor per state, no chance termination: repeated
    # entries of the same action replay the same class path, differing only
    # in tags and terminals (the depth cap ends each trial).
    from rollmix.envsim import EnvModel, Transition

    env = EnvModel(
        n_states=3,
        observation=(1, 2, 3),
        class_actions={1: ("go",), 2: ("go",), 3: ("go",)},
        transitions={
            (0, "go"): Transition((1,), (1.0,), 0.0),
            (1, "go"): Transition((2,), (1.0,), 0.0),
            (2, "go"): Transition((0,), (1.0,), 0.0),
        },
        payoff_range=(0, 0),
        cap_payoff=Fraction(0),
        depth_cap=3,
        seed=0,
    )
    sample = generate_population(env, ["go", "go"], random.Random(1))
    first, second = sample.population.rollouts
    assert first.classes == second.classes == (2, 3, 1)
    assert first.terminal != second.terminal
    assert {s.tag for s in first.states}.isdisjoint({s.tag for s in second.states})


def test_env_and_config_json_roundtrip():
    import json

    from rollmix.envsim import sim_config_from_json, sim_config_to_json

    cfg = small_config()
    assert sim_config_from_json(json.loads(json.dumps(sim_config_to_json(cfg)))) == cfg
    # cap_payoff reads like a population payoff: an int or a rational string.
    for raw, value in ((2, Fraction(2)), ("3/2", Fraction(3, 2)), ("0", Fraction(0))):
        data = {**sim_config_to_json(cfg), "cap_payoff": raw}
        assert sim_config_from_json(data).cap_payoff == value
