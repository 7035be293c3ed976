import random
from fractions import Fraction

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
    TransformDistribution,
    TransformKind,
    apply_chi,
    apply_nu,
    apply_transform,
    enumerate_inflated_orbit,
    enumerate_orbit,
    generator_index,
    orbit_frequency,
    population_shape,
    run_chain,
)
from rollmix.stats import down_report


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

    def test_orbit_closed_under_generators_and_members_valid(self):
        p = population_b()
        o = enumerate_orbit(p)
        members = list(o.iter_members())
        assert len(members) == o.size == len(set(members))
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
        from rollmix import schema_count

        for h in (
            Schema("beta", (2, 1), "f2"),
            Schema("alpha", (1,), "#"),
            Schema("alpha", (1, 2), "#"),
            Schema("beta", (2, 1, 2), "#"),
        ):
            total = sum(schema_count(h, member) for member in o.iter_members())
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
    assert plain == set(o.iter_members())
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


def test_shape_erases_tags_only():
    p = population_b()
    assert population_shape(p) == (
        ("alpha", (1, 2), "f1"),
        ("beta", (2, 1), "f2"),
    )


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
