import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from rollmix import (
    Population,
    ROOT,
    Rollout,
    Schema,
    StateTag,
    inflate,
    state,
    validate_population,
)
from rollmix.fixtures import population_a, population_b, random_population
from rollmix.recombine import (
    IDENTITY,
    OrbitCapExceeded,
    Transform,
    TransformDistribution,
    TransformKind,
    apply_chi,
    apply_nu,
    apply_transform,
    enumerate_inflated_orbit,
    enumerate_orbit,
    generator_index,
    orbit_frequency,
    _class_fiber,
    _encode_start,
    _fits,
    _pattern,
    _suffix_move_images,
    _unrank_pair,
    run_chain,
)
from rollmix.model import match_parts, schema_count
from rollmix.stats import down_report
from rollmix.verify import _candidate_schemata


def tag(symbol):
    return StateTag(symbol)


class TestChi:
    def test_suffix_swap_on_loop_fixture(self):
        q = apply_chi(population_b(), 1, tag("a"), tag("b"))
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
        assert apply_chi(p, 6, tag("a"), tag("b")) is p

    def test_missing_tag_fixes_population(self):
        p = population_a()
        assert apply_chi(p, 1, tag("a"), tag("z")) is p

    def test_result_is_valid(self):
        q = apply_chi(population_b(), 1, tag("a"), tag("b"))
        validate_population(q.rollouts)


class TestNu:
    def test_swap_across_rollouts(self):
        q = apply_nu(population_b(), 1, tag("a"), tag("b"))
        assert q.rollouts[0] == Rollout("alpha", (state(1, "b"), state(2, "a")), "f1")
        assert q.rollouts[1] == Rollout("beta", (state(2, "b"), state(1, "a")), "f2")

    def test_swap_within_one_rollout(self):
        p = validate_population(
            [Rollout("alpha", (state(1, "a"), state(2, "a"), state(1, "b")), "f")]
        )
        q = apply_nu(p, 1, tag("a"), tag("b"))
        assert q.rollouts[0].states == (state(1, "b"), state(2, "a"), state(1, "a"))
        assert q.rollouts[0].terminal == "f"

    def test_missing_pair_fixes_population(self):
        p = population_a()
        assert apply_nu(p, 1, tag("a"), tag("z")) is p


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
    # The chain and the orbit oracle match schemata on encoded slots; the
    # plain-object matcher behind schema_count is the independent reference.
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
    sampled transform, recount every schema over the whole population."""
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
            current = apply_transform(current, mu.sample(rng))
    return counts, visits


def _probe_schemata(rng, p):
    """Schemata of every kind for p: root, action-only, class prefixes,
    exact terminal-tailed ones, misses, and a duplicate."""
    out = [ROOT, Schema("omega", (), "#")]
    for r in p.rollouts:
        classes = r.classes
        k = rng.randint(0, len(classes))
        out.append(Schema(r.action, classes[:k], "#"))
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
        from rollmix import schema_count

        for h in (
            Schema("beta", (2, 1), "f2"),
            Schema("alpha", (1,), "#"),
            Schema("alpha", (1, 2), "#"),
            Schema("beta", (2, 1, 2), "#"),
        ):
            total = sum(schema_count(h, member) for member in members)
            assert orbit_frequency(o, h) == Fraction(total, o.size * p.b)


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
                image = apply_transform(member, g)
                if image not in seen:
                    seen.add(image)
                    nxt.append(image)
        frontier = nxt
    return seen


@pytest.mark.parametrize("fixture", [population_a, population_b])
def test_quotient_orbit_agrees_with_population_level_bfs(fixture):
    from rollmix import schema_count

    p = fixture()
    plain = _population_level_orbit(p)
    o = enumerate_orbit(p)
    assert o.size == len(plain)
    assert all(o.contains(member) for member in plain)
    h = Schema("alpha", (1, 2), "f1")
    total = sum(schema_count(h, member) for member in plain)
    assert orbit_frequency(o, h) == Fraction(total, len(plain) * p.b)


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


def _assert_matches_reference(o, start):
    shapes = _reference_bfs_shapes(start, o.fiber, o.size)
    assert sum(o.weights) == o.n_classes == len(shapes)
    assert o.size == len(shapes) * o.fiber
    slots = Counter(slot for shape in shapes for slot in shape)
    decoded = {s: (o.action_names[s[0]], s[2:], o.terminal_names[s[1]]) for s in slots}
    schemata = {ROOT}
    for action, classes, terminal in decoded.values():
        schemata |= {Schema(action, (), "#"), Schema(action, classes[:1], "#"), Schema(action, classes, terminal)}
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
        start = _encode_start(p)[0]
        # Both searches must trip the same cap; only the orbits within it are compared.
        cap = 500 * _class_fiber(p)
        try:
            o = enumerate_orbit(p, cap=cap)
        except OrbitCapExceeded:
            with pytest.raises(OrbitCapExceeded):
                _reference_bfs_shapes(start, _class_fiber(p), cap)
            continue
        _assert_matches_reference(o, start)
        compared += 1


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_weighted_inflated_orbit_matches_unquotiented_search(m):
    start = tuple(slot for slot in _encode_start(population_b())[0] for _ in range(m))
    _assert_matches_reference(enumerate_inflated_orbit(population_b(), m, cap=10**40), start)


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
