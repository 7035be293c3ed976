import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import factorial, prod

import pytest

from rollmix import recombine
from rollmix.fixtures import population_a, population_b, random_homologous_population, random_population
from rollmix.recombine import (
    IDENTITY,
    OrbitCapExceeded,
    Transform,
    TransformDistribution,
    TransformKind,
    _Slots,
    apply_transform,
    enumerate_inflated_orbit,
    enumerate_orbit,
    generator_index,
    orbit_frequency,
    _arrangements,
    _class_fiber,
    _encode_start,
    _fits,
    _pattern,
    _runs,
    _unrank_pair,
    run_chain,
)
from rollmix.digraph import _absorbing_solve, build_digraph, class_node
from rollmix.envsim import SimConfig, generate_population, make_random_pomdp
from rollmix.model import (
    ROOT,
    ClassId,
    Population,
    Rollout,
    Schema,
    StateTag,
    TaggedState,
    inflate,
    match_parts,
    schema_count,
    state,
    validate_population,
)
from rollmix.stats import down_report, limiting_frequency_from_report
from rollmix.verify import _candidate_schemata


def tag(symbol):
    return StateTag(symbol)


# --- the reference object move -------------------------------------------------

# The moves written out on frozen Population objects: locate each state by
# scanning, rebuild the rollouts it touches.  The chain's slot engine, behind
# apply_transform, must give the same populations.


def _locate(p: Population, cls: ClassId, tag: StateTag) -> tuple[int, int] | None:
    target = TaggedState(cls, tag)
    for i, r in enumerate(p.rollouts):
        for k, s in enumerate(r.states):
            if s == target:
                return i, k
    return None


def apply_chi(p: Population, cls: ClassId, c: StateTag, d: StateTag) -> Population:
    """Suffix crossover at the pair (cls, c), (cls, d).

    The suffixes starting at the two states (terminals included) are
    exchanged when the states lie in distinct rollouts; a same-rollout
    pair, or a missing state, leaves the population unchanged.
    """
    loc1 = _locate(p, cls, c)
    loc2 = _locate(p, cls, d)
    if loc1 is None or loc2 is None or loc1[0] == loc2[0]:
        return p
    (i1, k1), (i2, k2) = loc1, loc2
    r1, r2 = p.rollouts[i1], p.rollouts[i2]
    new1 = Rollout(r1.action, r1.states[:k1] + r2.states[k2:], r2.terminal)
    new2 = Rollout(r2.action, r2.states[:k2] + r1.states[k1:], r1.terminal)
    rollouts = list(p.rollouts)
    rollouts[i1], rollouts[i2] = new1, new2
    return Population(tuple(rollouts))


def apply_nu(p: Population, cls: ClassId, c: StateTag, d: StateTag) -> Population:
    """Position swap of the two states (cls, c) and (cls, d), in place."""
    loc1 = _locate(p, cls, c)
    loc2 = _locate(p, cls, d)
    if loc1 is None or loc2 is None:
        return p
    (i1, k1), (i2, k2) = loc1, loc2
    rollouts = list(p.rollouts)
    if i1 == i2:
        states = list(rollouts[i1].states)
        states[k1], states[k2] = states[k2], states[k1]
        rollouts[i1] = Rollout(rollouts[i1].action, tuple(states), rollouts[i1].terminal)
    else:
        r1, r2 = rollouts[i1], rollouts[i2]
        s1, s2 = list(r1.states), list(r2.states)
        s1[k1], s2[k2] = r2.states[k2], r1.states[k1]
        rollouts[i1] = Rollout(r1.action, tuple(s1), r1.terminal)
        rollouts[i2] = Rollout(r2.action, tuple(s2), r2.terminal)
    return Population(tuple(rollouts))


def _reference_move(p, t):
    """t applied by the reference object move."""
    if t.kind is TransformKind.IDENTITY:
        return p
    c, d = sorted(t.tags)
    return (apply_chi if t.kind is TransformKind.ONE_POINT else apply_nu)(p, t.cls, c, d)


def _chi(p, cls, c, d):
    return apply_transform(p, Transform(TransformKind.ONE_POINT, cls, frozenset((c, d))))


def _nu(p, cls, c, d):
    return apply_transform(p, Transform(TransformKind.SINGLE_SWAP, cls, frozenset((c, d))))


class TestChi:
    def test_suffix_swap_on_loop_fixture(self):
        q = _chi(population_b(), 1, tag("a"), tag("b"))
        assert q.rollouts[0] == Rollout("alpha", (state(1, "b"),), "f2")
        assert q.rollouts[1] == Rollout(
            "beta", (state(2, "b"), state(1, "a"), state(2, "a")), "f1"
        )
        assert [r.height for r in q.rollouts] == [1, 3]

    def test_same_rollout_pair_fixes_population(self):
        p = validate_population(
            [
                Rollout("alpha", (state(6, "a"), state(3, "x"), state(6, "b")), "f1"),
                Rollout("beta", (state(2, "a"),), "f2"),
            ]
        )
        assert _chi(p, 6, tag("a"), tag("b")) == p

    def test_missing_tag_fixes_population(self):
        p = population_a()
        assert _chi(p, 1, tag("a"), tag("z")) is p

    def test_result_is_valid(self):
        q = _chi(population_b(), 1, tag("a"), tag("b"))
        validate_population(q.rollouts)


class TestNu:
    def test_swap_across_rollouts(self):
        q = _nu(population_b(), 1, tag("a"), tag("b"))
        assert q.rollouts[0] == Rollout("alpha", (state(1, "b"), state(2, "a")), "f1")
        assert q.rollouts[1] == Rollout("beta", (state(2, "b"), state(1, "a")), "f2")

    def test_swap_within_one_rollout(self):
        p = validate_population(
            [Rollout("alpha", (state(1, "a"), state(2, "a"), state(1, "b")), "f")]
        )
        q = _nu(p, 1, tag("a"), tag("b"))
        assert q.rollouts[0].states == (state(1, "b"), state(2, "a"), state(1, "a"))
        assert q.rollouts[0].terminal == "f"

    def test_missing_pair_fixes_population(self):
        p = population_a()
        assert _nu(p, 1, tag("a"), tag("z")) is p


def test_slot_move_matches_reference_move():
    # Every generator of each population, plus a few of another population
    # (moves naming a state p lacks); stateless rollouts every other time.
    rng = random.Random(67)
    seen = Counter()
    for n in range(1200):
        p = random_population(
            rng, max_b=rng.choice([1, 3, 6]), max_height=rng.choice([1, 3, 5]),
            max_classes=rng.choice([1, 2, 4]), allow_stateless=n % 2 == 0,
        )
        foreign = list(TransformDistribution.from_population(random_population(rng, max_b=4)).generators)
        for g in generator_index(p) + rng.sample(foreign, min(5, len(foreign))):
            expected = _reference_move(p, g)
            assert apply_transform(p, g) == expected, (g, p)
            if g.kind is TransformKind.IDENTITY:
                continue
            locs = [_locate(p, g.cls, t) for t in g.tags]
            if None in locs:
                seen["missing"] += 1
            elif locs[0][0] == locs[1][0]:
                seen["same rollout " + g.kind.value] += 1
            else:
                seen[g.kind.value] += 1
        seen["stateless"] += any(r.height == 0 for r in p.rollouts)
    assert min(seen[k] for k in ("missing", "same rollout chi", "same rollout nu", "chi", "nu", "stateless")) > 50



def _slot_moves(rng, populations, **shape):
    """(p, x, y, chi) for every crossover generator of random populations:
    the state ids the engine built from p gives the generator's states."""
    for _ in range(populations):
        p = random_population(rng, **shape)
        ids = _Slots(p).ids
        for g in generator_index(p)[1:]:
            x, y = (ids[TaggedState(g.cls, t)] for t in g.tags)
            yield p, x, y, g.kind is TransformKind.ONE_POINT


class TestSlots:
    SHAPE = dict(max_b=5, max_height=4, max_classes=3, allow_stateless=True)

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(population_a, id="A"),
            pytest.param(population_b, id="B"),
            pytest.param(
                lambda: validate_population(
                    [Rollout("alpha", (), "f1"), Rollout("beta", (state(1, "a"),), "f2"), Rollout("alpha", (), "f3")]
                ),
                id="stateless",
            ),
            pytest.param(lambda: random_population(random.Random(5), max_b=8, max_height=5), id="random"),
        ],
    )
    def test_population_round_trip(self, make):
        p = make()
        assert _Slots(p).population() == p

    @pytest.mark.parametrize("chi", [True, False], ids=["chi", "nu"])
    def test_move_returns_the_slots_it_rewrote(self, chi):
        # A suffix crossover rewrites the two distinct rollouts it joins;
        # a swap of same-class states changes no rollout's classes.
        changed_seen = 0
        for p, x, y, is_chi in _slot_moves(random.Random(71), 300, **self.SHAPE):
            if is_chi is not chi:
                continue
            engine = _Slots(p)
            s1, s2 = engine.slot_of[x], engine.slot_of[y]
            returned = engine.move(x, y, chi)
            q = engine.population()
            differ = {
                i for i, (r, s) in enumerate(zip(p.rollouts, q.rollouts))
                if (r.classes, r.terminal) != (s.classes, s.terminal)
            }
            assert set(returned) == ({s1, s2} if chi and s1 != s2 else set())
            assert differ <= set(returned)
            if returned:  # the terminals travel with the suffixes
                assert q.rollouts[s1].terminal == p.rollouts[s2].terminal
                assert q.rollouts[s2].terminal == p.rollouts[s1].terminal
            changed_seen += bool(differ)
        if chi:
            assert changed_seen > 50

    @pytest.mark.parametrize("chi", [True, False], ids=["chi", "nu"])
    def test_move_twice_restores_the_population(self, chi):
        moves = 0
        for p, x, y, is_chi in _slot_moves(random.Random(73), 200, **self.SHAPE):
            if is_chi is not chi:
                continue
            engine = _Slots(p)
            engine.move(x, y, chi)
            engine.move(x, y, chi)
            assert engine.population() == p
            moves += 1
        assert moves > 200

    def test_index_follows_a_run_of_moves(self):
        # slot_of and pos_of must place every state id where slots holds it,
        # or the next move would cut the wrong suffix.
        rng = random.Random(79)
        for _ in range(100):
            p = random_population(rng, **self.SHAPE)
            gens = generator_index(p)[1:]
            engine = _Slots(p)
            for _ in range(30 if gens else 0):
                g = rng.choice(gens)
                x, y = (engine.ids[TaggedState(g.cls, t)] for t in g.tags)
                engine.move(x, y, g.kind is TransformKind.ONE_POINT)
                for i, slot in enumerate(engine.slots):
                    for k, sid in enumerate(slot):
                        assert (engine.slot_of[sid], engine.pos_of[sid]) == (i, k)

    def test_a_run_of_moves_conserves_states_actions_and_terminals(self):
        rng = random.Random(83)
        for _ in range(100):
            p = random_population(rng, **self.SHAPE)
            gens = generator_index(p)[1:]
            engine = _Slots(p)
            for _ in range(30 if gens else 0):
                g = rng.choice(gens)
                x, y = (engine.ids[TaggedState(g.cls, t)] for t in g.tags)
                engine.move(x, y, g.kind is TransformKind.ONE_POINT)
            q = validate_population(engine.population().rollouts)
            assert [r.action for r in q.rollouts] == [r.action for r in p.rollouts]
            assert Counter(r.terminal for r in q.rollouts) == Counter(r.terminal for r in p.rollouts)
            assert Counter(s for r in q.rollouts for s in r.states) == Counter(s for r in p.rollouts for s in r.states)

    def test_identity_returns_p_itself(self):
        p = population_b()
        assert apply_transform(p, IDENTITY) is p


class TestGeneratorIndex:
    def test_fixture_a_has_thirteen(self):
        gens = generator_index(population_a())
        assert len(gens) == 13
        assert gens[0] is IDENTITY
        kinds = [g.kind for g in gens[1:]]
        assert kinds.count(TransformKind.ONE_POINT) == 6
        assert kinds.count(TransformKind.SINGLE_SWAP) == 6

    def test_fixture_b_has_five(self):
        assert len(generator_index(population_b())) == 5

    def test_all_distinct_classes_leaves_identity_only(self):
        p = validate_population(
            [Rollout("alpha", (state(1, "a"), state(2, "a")), "f1"),
             Rollout("beta", (state(3, "a"),), "f2")]
        )
        assert generator_index(p) == [IDENTITY]


def _signature(p: Population):
    return (
        p.b,
        sorted((s.cls, s.tag) for _, _, s in p.states()),
        sorted(p.terminals()),
        p.actions(),
    )


def test_involution_and_conservation_random():
    rng = random.Random(61)
    pairs = 0
    while pairs < 1000:
        p = random_population(rng, allow_stateless=True)
        before = _signature(p)
        for g in generator_index(p):
            q = apply_transform(p, g)
            assert apply_transform(q, g) == p
            assert _signature(q) == before
            pairs += 1


def _enumerated_generators(p):
    """Every generator of p written out with combinations: classes
    ascending, pairs of sorted tags, suffix crossover before swap."""
    by_class = {}
    for _, _, s in p.states():
        by_class.setdefault(s.cls, []).append(s.tag)
    out = []
    for cls in sorted(by_class):
        for c, d in combinations(sorted(by_class[cls]), 2):
            out.append(Transform(TransformKind.ONE_POINT, cls, frozenset((c, d))))
            out.append(Transform(TransformKind.SINGLE_SWAP, cls, frozenset((c, d))))
    return out


class TestGeneratorView:
    def test_unranking_matches_enumeration(self):
        rng = random.Random(17)
        for _ in range(300):
            p = random_population(
                rng, max_b=rng.choice([2, 6, 12]), max_height=4,
                max_classes=rng.choice([1, 2, 5]), allow_stateless=True,
            )
            gens = TransformDistribution.from_population(p).generators
            expected = _enumerated_generators(p)
            assert len(gens) == len(expected)
            assert [gens[g] for g in range(len(gens))] == expected
            assert list(gens) == expected
            assert generator_index(p)[1:] == expected

    def test_indices_behave_like_a_tuple(self):
        rng = random.Random(18)
        for _ in range(50):
            p = random_population(rng, max_b=8, max_height=4, max_classes=3, allow_stateless=True)
            gens = TransformDistribution.from_population(p).generators
            expected = tuple(_enumerated_generators(p))
            n = len(gens)
            for g in (-n, -1, n, -n - 1, 0, n // 2):
                if -n <= g < n:
                    assert gens[g] == expected[g]
                else:
                    with pytest.raises(IndexError):
                        gens[g]

    def test_pair_unranking_is_combinations_order(self):
        for n in range(2, 70):
            assert [_unrank_pair(n, r) for r in range(n * (n - 1) // 2)] == list(
                combinations(range(n), 2)
            )
        rng = random.Random(19)
        for n in (2750, 10**6):
            for rank in [0, n * (n - 1) // 2 - 1] + [rng.randrange(n * (n - 1) // 2) for _ in range(200)]:
                i, j = _unrank_pair(n, rank)
                assert 0 <= i < j < n
                assert i * (2 * n - i - 1) // 2 + (j - i - 1) == rank


class TestTransformDistribution:
    def test_epsilon_bounds(self):
        with pytest.raises(ValueError):
            TransformDistribution.from_population(population_a(), epsilon=0.0)
        with pytest.raises(ValueError):
            TransformDistribution.from_population(population_a(), epsilon=1.0)

    def test_sampling_is_identity_or_generator(self):
        mu = TransformDistribution.from_population(population_b(), epsilon=0.3)
        rng = random.Random(1)
        seen = {mu.sample(rng).kind for _ in range(200)}
        assert TransformKind.IDENTITY in seen
        assert TransformKind.ONE_POINT in seen and TransformKind.SINGLE_SWAP in seen

    def test_no_generators_means_identity(self):
        p = validate_population([Rollout("alpha", (state(1, "a"),), "f1")])
        mu = TransformDistribution.from_population(p)
        rng = random.Random(2)
        assert all(mu.sample(rng) is IDENTITY for _ in range(20))


class TestRunChain:
    def test_root_frequency_is_one(self):
        p = population_a()
        mu = TransformDistribution.from_population(p)
        trace = run_chain(p, 500, mu, [ROOT], seed=9)
        assert trace.phi(ROOT) == 1

    def test_invariant_schema_exact(self):
        p = population_a()
        h = Schema("alpha", (1,), "#")
        mu = TransformDistribution.from_population(p)
        trace = run_chain(p, 2000, mu, [h], seed=10)
        assert trace.phi(h) == Fraction(2, 3)

    def test_deterministic_per_seed(self):
        p = population_b()
        h = Schema("alpha", (1, 2), "f1")
        mu = TransformDistribution.from_population(p)
        t1 = run_chain(p, 3000, mu, [h], seed=77)
        t2 = run_chain(p, 3000, mu, [h], seed=77)
        assert t1.schema_counts == t2.schema_counts

    def test_zero_steps_counts_initial_population(self):
        p = population_b()
        h = Schema("alpha", (1, 2), "f1")
        mu = TransformDistribution.from_population(p)
        trace = run_chain(p, 0, mu, [h], seed=1)
        assert trace.schema_counts[h] == 1
        assert trace.phi(h) == Fraction(1, 2)


def test_slot_matcher_counts_what_schema_count_counts():
    # The chain and the orbit reference search match schemata on encoded
    # slots; the plain-object matcher behind schema_count is the reference.
    rng = random.Random(41)
    for n in range(200):
        p = random_population(
            rng, max_b=rng.choice([1, 3, 6]), max_height=rng.choice([1, 3, 4]),
            max_classes=rng.choice([1, 2, 3]), allow_stateless=n % 2 == 0,
        )
        start, action_names, terminal_names = _encode_start(p)
        r = rng.choice(p.rollouts)
        misses = [Schema("omega", (), "#"), Schema("omega", r.classes, r.terminal),
                  Schema(r.action, r.classes, "nowhere"), Schema(r.action, (), "nowhere")]
        for h in _candidate_schemata(p, 3) + misses:
            pattern = _pattern(h, action_names, terminal_names)
            assert sum(_fits(pattern, slot) for slot in start) == schema_count(h, p), (h, p)


def _reference_chain(p0, steps, mu, schemata, seed, visit_stride=None):
    """The mixing chain written out one population at a time: apply a
    sampled transform by the reference object move, recount every schema
    over the whole population."""
    rng = random.Random(seed)
    counts = {h: 0 for h in schemata}
    visits = {} if visit_stride else None
    current = p0
    for t in range(steps + 1):
        for h in counts:
            counts[h] += schema_count(h, current)
        if visits is not None and t % visit_stride == 0:
            visits[current] = visits.get(current, 0) + 1
        if t < steps:
            current = _reference_move(current, mu.sample(rng))
    return counts, visits


def _probe_schemata(rng, p):
    """Schemata of every kind for p: root, action-only, every class prefix
    of every rollout, exact terminal-tailed ones, misses, and a duplicate.
    With every prefix height next to every crossover position, the chain's
    rule for which schemata a crossover can change meets each boundary."""
    out = [ROOT, Schema("omega", (), "#")]
    for r in p.rollouts:
        classes = r.classes
        k = rng.randint(0, len(classes))
        out.extend(Schema(r.action, classes[:height], "#") for height in range(len(classes) + 1))
        out.append(Schema(r.action, classes, r.terminal))
        out.append(Schema(r.action, classes[:k], "f1"))
    out.append(rng.choice(out))
    rng.shuffle(out)
    return out


def test_chain_matches_reference_chain():
    rng = random.Random(23)
    singleton = validate_population(
        [Rollout("alpha", (state(1, "a"), state(2, "a")), "f1"),
         Rollout("beta", (), "f2")]
    )
    fixed = [population_a(), population_b(), singleton]
    for n in range(240):
        if n < len(fixed):
            p = fixed[n]
        else:
            p = random_population(
                rng, max_b=rng.choice([1, 3, 6, 10]), max_height=rng.choice([1, 3, 5]),
                max_classes=rng.choice([1, 2, 4, 8]), allow_stateless=n % 2 == 0,
            )
        epsilon = rng.choice([0.01, 0.3, 0.9])
        seed = rng.randrange(2**31)
        steps = rng.choice([0, 1, 40, 300])
        stride = rng.choice([None, 1, 7])
        schemata = _probe_schemata(rng, p)
        # Now and then the generators come from another population: moves
        # naming a state p lacks leave it fixed.
        source = random_population(rng, max_b=6, max_classes=4) if n % 10 == 9 else p
        mu = TransformDistribution.from_population(source, epsilon)
        trace = run_chain(p, steps, mu, schemata, seed, visit_stride=stride)
        counts, visits = _reference_chain(p, steps, mu, schemata, seed, stride)
        assert list(trace.schema_counts.items()) == list(counts.items())
        assert trace.visits == visits
        if visits is not None:
            assert list(trace.visits) == list(visits)


def test_chain_matches_again_only_what_a_crossover_can_change(monkeypatch):
    # A crossover at position k keeps classes 0..k, so (a,#) and (a,c,#)
    # are matched once per slot at set-up and never again; a terminal-tailed
    # schema is matched again after crossovers.
    calls = []
    fits = recombine._fits
    monkeypatch.setattr(recombine, "_fits", lambda *args: calls.append(1) or fits(*args))
    p = random_population(random.Random(31), min_b=20, max_b=20, max_height=5, max_classes=3)
    mu = TransformDistribution.from_population(p, 0.2)
    prefixes = sorted(
        {Schema(r.action, (), "#") for r in p.rollouts}
        | {Schema(r.action, r.classes[:1], "#") for r in p.rollouts if r.states},
        key=str,
    )
    for steps in (0, 2000):
        calls.clear()
        run_chain(p, steps, mu, prefixes, seed=5)
        assert len(calls) == p.b * len(prefixes), steps
    longest = max(p.rollouts, key=lambda r: r.height)
    with_tail = prefixes + [Schema(longest.action, longest.classes, longest.terminal)]
    counts = []
    for steps in (0, 2000):
        calls.clear()
        run_chain(p, steps, mu, with_tail, seed=5)
        counts.append(len(calls))
    assert counts[0] == p.b * len(with_tail)
    assert counts[1] > counts[0] + 100


def test_chain_memory_follows_states_not_tag_pairs():
    # b=2000 with four classes: about 5,000 states and millions of tag pairs.
    p = random_population(random.Random(29), min_b=2000, max_b=2000, max_height=5, max_classes=4)
    schemata = [ROOT, Schema("alpha", (1,), "#"), Schema("beta", (2, 3), "#")]
    tracemalloc.start()
    try:
        mu = TransformDistribution.from_population(p)
        run_chain(p, 2000, mu, schemata, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(mu.generators) >= 4_000_000
    assert peak < 4 * 2**20


class TestOrbit:
    def test_fixture_a_size(self):
        o = enumerate_orbit(population_a())
        assert o.size == 216
        assert o.n_classes == 6
        assert o.fiber == 36

    def test_fixture_b_size(self):
        o = enumerate_orbit(population_b())
        assert o.size == 12

    def test_singleton_orbit(self):
        p = validate_population(
            [Rollout("alpha", (state(1, "a"), state(2, "a")), "f1"),
             Rollout("beta", (state(3, "a"),), "f2")]
        )
        assert enumerate_orbit(p).size == 1

    def test_cap_raises(self):
        with pytest.raises(OrbitCapExceeded):
            enumerate_orbit(population_a(), cap=100)

    def test_initial_population_is_member(self):
        o = enumerate_orbit(population_b())
        assert o.contains(population_b())
        # Same rollouts in another slot order: no move reorders actions.
        assert not o.contains(Population(population_b().rollouts[::-1]))

    def test_orbit_closed_under_generators_and_members_valid(self):
        p = population_b()
        o = enumerate_orbit(p)
        members = _population_level_orbit(p)
        assert len(members) == o.size
        gens = generator_index(p)
        for member in members:
            validate_population(member.rollouts)
            for g in gens:
                assert o.contains(apply_transform(member, g))

    def test_pinned_orbit_means(self):
        o = enumerate_orbit(population_a())
        assert orbit_frequency(o, Schema("alpha", (1, 2), "f1")) == Fraction(2, 9)
        assert orbit_frequency(o, ROOT) == 1
        ob = enumerate_orbit(population_b())
        assert orbit_frequency(ob, Schema("alpha", (1, 2), "f1")) == Fraction(1, 6)

    def test_orbit_mean_matches_brute_force_over_members(self):
        p = population_b()
        o = enumerate_orbit(p)
        members = _population_level_orbit(p)
        from rollmix.model import schema_count

        for h in (
            Schema("beta", (2, 1), "f2"),
            Schema("alpha", (1,), "#"),
            Schema("alpha", (1, 2), "#"),
            Schema("beta", (2, 1, 2), "#"),
        ):
            total = sum(schema_count(h, member) for member in members)
            assert orbit_frequency(o, h) == Fraction(total, o.size * p.b)

    def test_a_block_keeps_its_run(self):
        # Classes 2 and 3 are entered only from the root: the one slot that
        # passes them keeps 2,3,2,2, though 2,2,3,2 threads G as well.
        p = validate_population(
            [Rollout("a", (state(1, "a"),), "f1"), Rollout("a", (state(1, "b"), state(1, "c")), "f2"),
             Rollout("b", (state(2, "a"), state(3, "a"), state(2, "b"), state(2, "c")), "f3")]
        )
        o = enumerate_orbit(p)
        assert o.n_classes == 4 == len(_population_level_orbit(p)) // o.fiber
        assert orbit_frequency(o, Schema("b", (2, 3, 2, 2), "f3")) == Fraction(1, 3)
        assert orbit_frequency(o, Schema("b", (2, 2), "#")) == 0
        assert o.contains(p)
        moved = Rollout("b", (state(2, "a"), state(2, "b"), state(3, "a"), state(2, "c")), "f3")
        assert not o.contains(Population(p.rollouts[:2] + (moved,)))

    def test_infeasible_prefix_counts_zero(self):
        # Fixing a,1,2,1 leaves the 2 -> 2 loop cut off from the root: no
        # threading remains, and the count is 0 before any elimination.
        p = validate_population(
            [Rollout("a", (state(1, "a"), state(2, "a"), state(2, "b"), state(1, "b")), "f1")]
        )
        o = enumerate_orbit(p)
        assert o.n_classes == 1
        assert orbit_frequency(o, Schema("a", (1, 2, 1), "#")) == 0
        assert orbit_frequency(o, Schema("a", (1, 2, 2, 1), "#")) == 1
        assert orbit_frequency(o, Schema("a", (1, 2, 2, 1), "f1")) == 1


class TestInflatedOrbit:
    def test_matches_plain_oracle_when_feasible(self):
        p = population_b()
        target = Schema("alpha", (1, 2), "f1")
        for m in (1, 2):
            plain = enumerate_orbit(inflate(p, m), cap=10**9)
            family = ["f1"] + [f"f1@{c}" for c in range(1, m)]
            summed = sum(
                (orbit_frequency(plain, Schema("alpha", (1, 2), f)) for f in family),
                Fraction(0),
            )
            quotient = enumerate_inflated_orbit(p, m, cap=10**9)
            assert quotient.size == plain.size
            assert quotient.family_frequency(target) == summed

    def test_homologous_family_value_constant_in_m(self):
        p = population_a()
        target = Schema("alpha", (1, 2), "f1")
        for m in (1, 2, 3):
            o = enumerate_inflated_orbit(p, m, cap=10**30)
            assert o.family_frequency(target) == Fraction(2, 9)

    def test_stateless_rollouts_rejected(self):
        p = validate_population(
            [Rollout("alpha", (), "f1"), Rollout("alpha", (state(1, "a"),), "f2")]
        )
        with pytest.raises(ValueError):
            enumerate_inflated_orbit(p, 2)

    def test_cap_raises(self):
        with pytest.raises(OrbitCapExceeded):
            enumerate_inflated_orbit(population_b(), 4, cap=1000)

    def test_members_are_the_plain_orbit_of_the_inflated_population(self):
        p = validate_population(
            [Rollout("alpha", (state(1, "a"),), "f1"),
             Rollout("beta", (state(1, "b"), state(2, "a")), "f2")]
        )
        for m in (1, 2):
            quotient = enumerate_inflated_orbit(p, m, cap=10**9)
            members = _population_level_orbit(inflate(p, m))
            assert len(members) == quotient.size == enumerate_orbit(inflate(p, m), cap=10**9).size
            assert all(quotient.contains(member) for member in members)

    @pytest.mark.parametrize("m", [*range(1, 13), 20, 40, 80])
    def test_loop_fixture_family_value_in_closed_form(self, m):
        # G has d_1 = d_2 = 2m and reduced Laplacian [[2m, -m], [-m, 2m]]
        # (determinant 3m^2); fixing alpha's path leaves 3m^2 - 3m + 1.
        o = enumerate_inflated_orbit(population_b(), m, cap=10**2000)
        expected = Fraction(3 * m * m - 3 * m + 1, 6 * (2 * m - 1) ** 2)
        assert o.family_frequency(Schema("alpha", (1, 2), "f1")) == expected
        assert expected == Fraction(1, 8) + Fraction(1, 24 * (2 * m - 1) ** 2)


def _population_level_orbit(p):
    """Plain breadth-first closure over whole populations, no quotienting.

    Deliberately independent of the library's orbit machinery so the two
    can audit each other on small fixtures.
    """
    gens = [g for g in generator_index(p) if g is not IDENTITY]
    seen = {p}
    frontier = [p]
    while frontier:
        nxt = []
        for member in frontier:
            for g in gens:
                image = _reference_move(member, g)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return seen


@pytest.mark.parametrize("fixture", [population_a, population_b])
def test_quotient_orbit_agrees_with_population_level_bfs(fixture):
    from rollmix.model import schema_count

    p = fixture()
    plain = _population_level_orbit(p)
    o = enumerate_orbit(p)
    assert o.size == len(plain)
    assert all(o.contains(member) for member in plain)
    h = Schema("alpha", (1, 2), "f1")
    total = sum(schema_count(h, member) for member in plain)
    assert orbit_frequency(o, h) == Fraction(total, len(plain) * p.b)


def test_membership_matches_population_level_bfs():
    # Members and their slot reorderings: a reordering is a member exactly
    # when the plain search reached it.
    rng = random.Random(43)
    for n in range(60):
        p = random_population(rng, min_b=2, max_b=4, max_height=4, max_classes=2, allow_stateless=n % 2 == 0)
        try:
            o = enumerate_orbit(p, cap=400)
        except OrbitCapExceeded:
            continue
        members = _population_level_orbit(p)
        assert o.size == len(members)
        for member in rng.sample(sorted(members, key=str), min(5, len(members))):
            assert o.contains(member)
            shuffled = list(member.rollouts)
            rng.shuffle(shuffled)
            q = Population(tuple(shuffled))
            assert o.contains(q) == (q in members)


def test_family_quotient_on_another_base_population():
    p = validate_population(
        [
            Rollout("alpha", (state(1, "a"), state(2, "a"), state(1, "b")), "f1"),
            Rollout("beta", (state(2, "b"),), "f2"),
            Rollout("alpha", (state(3, "a"),), "f3"),
        ]
    )
    target = Schema("alpha", (1, 2, 1), "f1")
    for m in (1, 2):
        plain = enumerate_orbit(inflate(p, m), cap=10**12)
        family = [Schema("alpha", (1, 2, 1), t) for t in ["f1"] + [f"f1@{c}" for c in range(1, m)]]
        summed = sum((orbit_frequency(plain, hh) for hh in family), Fraction(0))
        quotient = enumerate_inflated_orbit(p, m, cap=10**12)
        assert quotient.size == plain.size
        assert quotient.family_frequency(target) == summed


# --- the reference search ------------------------------------------------------
#
# The breadth-first search over tag-erased shapes that the counting oracle
# replaced, kept as its reference.  A shape is a tuple of encoded slots
# (action id, terminal token, classes...).  A canonical shape sorts its
# slots: no move changes a slot's group (see _group), and the slots of a
# group can be put in any order, so a canonical shape stands for
# ``_weight`` shapes of the orbit.


def _suffix_move_images(shape):
    """Images of a shape under every suffix-crossover move.

    Position swaps never change a shape, so only suffix swaps at two
    same-class positions in distinct slots appear here.
    """
    positions = {}
    for slot_index, slot in enumerate(shape):
        for idx in range(2, len(slot)):
            positions.setdefault(slot[idx], []).append((slot_index, idx))
    for cls_positions in positions.values():
        for (s1, k1), (s2, k2) in combinations(cls_positions, 2):
            if s1 == s2:
                continue
            a, b = shape[s1], shape[s2]
            new = list(shape)
            new[s1] = (a[0], b[1]) + a[2:k1] + b[k2:]
            new[s2] = (b[0], a[1]) + b[2:k2] + a[k1:]
            yield tuple(new)


def _group(slot):
    """What no move changes in a slot: its action and first class.  A
    stateless slot never moves, so it is a group of its own."""
    return (slot[0], slot[2]) if len(slot) > 2 else (slot,)


def _weight(shape):
    """Distinct slot orders of a shape that keep every slot in its group:
    prod over groups of |g|!, over the factorials of repeated slots."""
    return _arrangements(map(_group, shape)) // _arrangements(shape)


def _canonical_shapes(start, fiber, cap):
    """Breadth-first closure of start under suffix moves, as canonical
    shapes and their weights; OrbitCapExceeded as soon as the weights
    found so far times the fiber exceed ``cap``."""
    weights = {}
    total = 0
    images = iter((start,))
    while True:
        frontier = []
        for image in images:
            shape = tuple(sorted(image))
            if shape not in weights:
                weights[shape] = _weight(shape)
                total += weights[shape]
                if total * fiber > cap:
                    raise OrbitCapExceeded(f"orbit size exceeds cap {cap}")
                frontier.append(shape)
        if not frontier:
            return weights
        images = (image for shape in frontier for image in _suffix_move_images(shape))


def _reference_orbit(start, fiber, cap):
    """(tag-erased classes, weight summed per distinct slot) by the search."""
    weights = _canonical_shapes(start, fiber, cap)
    slot_weights = Counter()
    for shape, weight in weights.items():
        for slot in shape:
            slot_weights[slot] += weight
    return sum(weights.values()), slot_weights


def _reference_frequency(reference, names, b, h):
    n_classes, slot_weights = reference
    pattern = _pattern(h, *names)
    return Fraction(sum(w for slot, w in slot_weights.items() if _fits(pattern, slot)), n_classes * b)


def _reference_bfs_shapes(start, fiber, cap):
    """The orbit oracle's search without the slot-permutation quotient:
    every tag-erased shape, unweighted, slots in population order."""
    seen = {start}
    frontier = [start]
    while frontier:
        next_frontier = []
        for shape in frontier:
            for image in _suffix_move_images(shape):
                if image not in seen:
                    seen.add(image)
                    if len(seen) * fiber > cap:
                        raise OrbitCapExceeded(f"orbit size exceeds cap {cap}")
                    next_frontier.append(image)
        frontier = next_frontier
    return sorted(seen)


def _assert_matches_reference(o, start, action_names, terminal_names):
    shapes = _reference_bfs_shapes(start, o.fiber, o.size)
    assert o.n_classes == len(shapes)
    assert o.size == len(shapes) * o.fiber
    slots = Counter(slot for shape in shapes for slot in shape)
    decoded = {s: (action_names[s[0]], s[2:], terminal_names[s[1]]) for s in slots}
    schemata = {ROOT}
    for action, classes, terminal in decoded.values():
        schemata |= {Schema(action, (), "#"), Schema(action, classes[:1], "#"), Schema(action, classes, terminal)}
        schemata |= {Schema(action, classes[:k], "#") for k in range(2, len(classes) + 1)}
    for h in schemata:
        fits = sum(n for s, n in slots.items() if match_parts(h, *decoded[s]))
        expected = Fraction(fits, len(shapes) * o.b)
        assert orbit_frequency(o, h) == o.family_frequency(h) == expected


def test_weighted_orbit_matches_unquotiented_search():
    rng = random.Random(37)
    compared = 0
    while compared < 200:
        p = random_population(
            rng, min_b=3, max_b=7, max_classes=rng.choice([3, 4, 6]), allow_stateless=compared % 2 == 0
        )
        start, *names = _encode_start(p)
        # Both routes must trip the same cap; only the orbits within it are compared.
        cap = 500 * _class_fiber(p)
        try:
            o = enumerate_orbit(p, cap=cap)
        except OrbitCapExceeded:
            with pytest.raises(OrbitCapExceeded):
                _reference_bfs_shapes(start, _class_fiber(p), cap)
            continue
        _assert_matches_reference(o, start, *names)
        compared += 1


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_weighted_inflated_orbit_matches_unquotiented_search(m):
    base, *names = _encode_start(population_b())
    start = tuple(slot for slot in base for _ in range(m))
    _assert_matches_reference(enumerate_inflated_orbit(population_b(), m, cap=10**40), start, *names)


def _agreement_population(rng, n):
    # Non-homologous draws, every other one with stateless rollouts, and
    # now and then a homologous one.  Rollouts up to 6 states long revisit
    # classes, which makes blocks: class sets that one slot alone passes.
    if n % 5 == 4:
        return random_homologous_population(rng, min_b=2, max_b=5, max_classes=4)
    return random_population(
        rng, min_b=1, max_b=5, max_height=rng.choice([3, 4, 6]), max_classes=rng.choice([2, 3, 4]),
        allow_stateless=n % 2 == 0,
    )


@pytest.mark.parametrize("block", range(4))
def test_counts_and_schemata_agree_with_reference_search(block):
    # 4 x 260 populations; every schema to height 3 and every prefix of a
    # rollout, infeasible prefixes, stateless and missing actions, classes
    # and terminals included.
    rng = random.Random(1300 + block)
    compared = 0
    while compared < 260:
        p = _agreement_population(rng, compared)
        start, *names = _encode_start(p)
        fiber = _class_fiber(p)
        cap = 2000 * fiber
        try:
            o = enumerate_orbit(p, cap=cap)
        except OrbitCapExceeded:
            with pytest.raises(OrbitCapExceeded):
                _canonical_shapes(start, fiber, cap)
            continue
        reference = _reference_orbit(start, fiber, cap)
        assert (o.n_classes, o.fiber) == (reference[0], fiber)
        misses = [Schema("omega", (1,), "#"), Schema(p.rollouts[0].action, (9,), "#"),
                  Schema(p.rollouts[0].action, (1, 2), "nowhere")]
        prefixes = [Schema(r.action, r.classes[:k], tail) for r in p.rollouts
                    for k in range(4, r.height + 1) for tail in ("#", r.terminal)]
        for h in _candidate_schemata(p, 3) + prefixes + misses:
            assert orbit_frequency(o, h) == _reference_frequency(reference, names, p.b, h), (h, p)
        compared += 1


def test_threadings_are_the_determinant_of_the_walkers_matrix():
    # Without blocks the contracted graph is the succession digraph with
    # the actions and terminals merged into the root, so by the BEST and
    # matrix-tree theorems det(M) * prod_v (d_v - 1)!, for the matrix the
    # absorbing-chain solve builds over the class nodes with nothing
    # absorbed, counts the threadings: the reference search's classes times
    # the orders of parallel class edges and of equal terminal labels. The
    # orbit oracle's own count, from its contracted graph, must match too.
    rng = random.Random(7)
    compared = 0
    for _ in range(400):
        p = random_population(rng, min_b=2, max_b=6, max_height=rng.randint(1, 4), max_classes=rng.randint(1, 4))
        if any(len(run) > 1 for run in _runs([r.classes for r in p.rollouts if r.states]).values()):
            continue
        try:
            n_classes = _reference_orbit(_encode_start(p)[0], 1, 1000)[0]
        except OrbitCapExceeded:
            continue
        g = build_digraph(p)
        classes = sorted(class_node(c) for c in g.classes)
        det = _absorbing_solve(g.weights, classes, {})[0]
        parallel = prod(factorial(w) for v in classes for u, w in g.out_edges(v).items() if u in classes)
        orders = parallel * _arrangements(r.terminal for r in p.rollouts)
        threadings = det * prod(factorial(g.out_weight(v) - 1) for v in classes)
        assert threadings == n_classes * orders, p
        assert threadings == enumerate_orbit(p, cap=10**100).threadings, p
        compared += 1
    assert compared > 200


def test_inflated_counts_agree_with_reference_search():
    rng = random.Random(47)
    for _ in range(40):
        p0 = random_population(rng, min_b=1, max_b=3, max_height=2, max_classes=2)
        m = rng.choice([2, 3])
        base, action_names, family_names = _encode_start(p0)
        start = tuple(slot for slot in base for _ in range(m))
        o = enumerate_inflated_orbit(p0, m, cap=10**30)
        reference = _reference_orbit(start, o.fiber, 10**30)
        assert o.n_classes == reference[0]
        for h in _candidate_schemata(p0, 2):
            expected = _reference_frequency(reference, (action_names, family_names), o.b, h)
            assert o.family_frequency(h) == expected, (h, p0, m)


def test_bench_scale_prefix_frequencies_equal_the_limit():
    # A b=2000 population drawn like the sample-eval benchmark's (two root
    # actions, mean height near 2.2): 4,000-odd states over 20 classes and
    # an orbit of about 10**14000 populations, far past any search.
    cfg = SimConfig(40, 20, 3, 3, 8, (0, 10), 2000, 11)
    env = make_random_pomdp(cfg, random.Random(cfg.seed))
    actions = [env.root_actions[i % len(env.root_actions)] for i in range(cfg.rollouts)]
    p = generate_population(env, actions, random.Random(5)).population
    o = enumerate_orbit(p, cap=10**20000)
    assert o.size == o.n_classes * o.fiber > 10**10000
    with pytest.raises(OrbitCapExceeded):
        enumerate_orbit(p, cap=10**10000)
    graph = down_report(p)
    for a in sorted(set(actions)):
        for h in [Schema(a, (), "#")] + [Schema(a, (c,), "#") for c in range(1, cfg.n_observations + 1)]:
            assert orbit_frequency(o, h) == limiting_frequency_from_report(graph, h), h


@pytest.mark.parametrize("fixture", [population_a, population_b])
def test_cap_trips_exactly_above_the_orbit_size(fixture):
    p = fixture()
    size = enumerate_orbit(p).size
    enumerate_orbit(p, cap=size)
    with pytest.raises(OrbitCapExceeded):
        enumerate_orbit(p, cap=size - 1)
    for m in (2, 3):
        size = enumerate_inflated_orbit(p, m, cap=10**40).size
        enumerate_inflated_orbit(p, m, cap=size)
        with pytest.raises(OrbitCapExceeded):
            enumerate_inflated_orbit(p, m, cap=size - 1)


def test_chain_agrees_with_orbit_oracle(million_step_trace):
    """Long-run schema frequencies converge to exact orbit means."""
    p = population_b()
    o = enumerate_orbit(p)
    for h in (Schema("alpha", (1, 2), "f1"), Schema("beta", (2, 1), "f2")):
        expected = orbit_frequency(o, h)
        assert expected == Fraction(1, 6)
        gap = abs(million_step_trace.phi(h) - expected)
        assert gap <= Fraction(1, 100)


def test_stat_invariance_along_chain():
    rng = random.Random(71)
    for _ in range(30):
        p = random_population(rng)
        reference = down_report(p)
        mu = TransformDistribution.from_population(p)
        current = p
        for _ in range(40):
            current = apply_transform(current, mu.sample(rng))
        assert down_report(current) == reference
