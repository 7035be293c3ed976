"""Verification suite: every advertised invariant, runnable end to end.

Each check returns a CheckResult; the command-line ``verify`` subcommand
runs them all and fails loudly on any regression.  The pytest acceptance
module drives the same functions, so the CLI and the test suite cannot
drift apart.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Callable

from . import digraph as dg
from .fixtures import (
    payoffs_a,
    payoffs_b,
    population_a,
    population_b,
    random_homologous_population,
    random_population,
)
from .model import Population, ROOT, Schema, WILDCARD
from .recombine import (
    ChainTrace,
    OrbitCapExceeded,
    _class_fiber,
    _fixed_data,
    OrbitSet,
    TransformDistribution,
    apply_transform,
    enumerate_inflated_orbit,
    enumerate_orbit,
    generator_index,
    orbit_frequency,
    run_chain,
)
from .stats import (
    down_report,
    frequency_children,
    limiting_frequency,
    limiting_frequency_from_report,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _timed(name: str, fn: Callable[[], tuple[bool, str]]) -> CheckResult:
    start = time.perf_counter()
    passed, detail = fn()
    return CheckResult(name, passed, detail, time.perf_counter() - start)


def check_involution_conservation(seed: int = 101, populations: int = 1000) -> CheckResult:
    """g(g(p)) = p, and g keeps the orbit oracle's fixed data: slot actions
    and first classes, states, terminals, successions and block runs."""

    def run() -> tuple[bool, str]:
        rng = random.Random(seed)
        checked = 0
        for _ in range(populations):
            p = random_population(rng, allow_stateless=True)
            before = _fixed_data(p)
            for g in generator_index(p):
                q = apply_transform(p, g)
                if apply_transform(q, g) != p:
                    return False, f"involution broken by {g} on {p}"
                if _fixed_data(q) != before:
                    return False, f"conservation broken by {g} on {p}"
                checked += 1
        return True, f"{populations} populations, {checked} generator applications"

    return _timed("involution & conservation", run)


def check_stat_invariance(seed: int = 202, populations: int = 200, steps: int = 100) -> CheckResult:
    """Succession statistics are untouched by arbitrary transform sequences."""

    def run() -> tuple[bool, str]:
        rng = random.Random(seed)
        for _ in range(populations):
            p = random_population(rng, allow_stateless=True)
            reference = down_report(p).weights
            gens = generator_index(p)
            q = p
            for _ in range(steps):
                q = apply_transform(q, gens[rng.randrange(len(gens))])
            if down_report(q).weights != reference:
                return False, f"statistics drifted for {p}"
        return True, f"{populations} populations x {steps}-step sequences"

    return _timed("statistic invariance", run)


def _candidate_schemata(p: Population, max_height: int) -> list[Schema]:
    actions = sorted({r.action for r in p.rollouts})
    classes = sorted(p.class_ids())
    terminals = sorted(p.terminals())
    out: list[Schema] = [ROOT]
    for action in actions:
        for height in range(max_height + 1):
            for combo in iproduct(classes, repeat=height):
                out.append(Schema(action, combo, WILDCARD))
                for f in terminals:
                    out.append(Schema(action, combo, f))
    return out


def _orbit_matches_formula(p: Population, o: OrbitSet, max_height: int) -> str | None:
    """None if exact agreement holds for every schema up to max_height."""
    graph = down_report(p)
    for h in _candidate_schemata(p, max_height):
        observed = orbit_frequency(o, h)
        predicted = limiting_frequency_from_report(graph, h)
        if observed != predicted:
            return f"schema {h}: orbit {observed} != formula {predicted} on {p}"
    return None


def check_homologous_exactness(seed: int = 303, populations: int = 20) -> CheckResult:
    """Exact orbit averages equal the closed-form frequency on homologous inputs."""

    def run() -> tuple[bool, str]:
        p_a = population_a()
        orbit_a = enumerate_orbit(p_a)
        pinned = Schema("alpha", (1, 2), "f1")
        lf = limiting_frequency(p_a, pinned)
        of = orbit_frequency(orbit_a, pinned)
        if not (lf == of == Fraction(2, 9)):
            return False, f"pinned fixture: formula {lf}, orbit {of}, expected 2/9"
        if orbit_a.size != 216:
            return False, f"fixture orbit size {orbit_a.size} != 216"
        mismatch = _orbit_matches_formula(p_a, orbit_a, 3)
        if mismatch:
            return False, mismatch

        rng = random.Random(seed)
        done = 0
        while done < populations:
            p = random_homologous_population(rng, min_b=2)
            try:
                o = enumerate_orbit(p, cap=200_000 * _class_fiber(p))
            except OrbitCapExceeded:
                continue  # rare oversized draw; take another sample
            mismatch = _orbit_matches_formula(p, o, 3)
            if mismatch:
                return False, mismatch
            done += 1
        return True, f"fixture + {populations} random homologous populations, all schemata to height 3"

    return _timed("homologous exactness", run)


def check_chain_convergence(seed: int = 404, steps: int = 100_000) -> CheckResult:
    """Running frequencies on the homologous fixture settle on the formula."""

    def run() -> tuple[bool, str]:
        p = population_a()
        target = Schema("alpha", (1, 2), "f1")
        invariant = Schema("alpha", (1,), WILDCARD)
        mu = TransformDistribution.from_population(p)
        trace = run_chain(p, steps, mu, [target, invariant], seed)
        phi = trace.phi(target)
        gap = abs(phi - Fraction(2, 9))
        if gap > Fraction(2, 100):
            return False, f"phi({target}) = {float(phi):.5f}, off 2/9 by {float(gap):.5f}"
        # Only two rollouts carry the action, so a total of 2(T+1) forces the
        # per-step count to be exactly 2 at every single step.
        if trace.schema_counts[invariant] != 2 * (steps + 1):
            return False, f"phi({invariant}) deviated from 2/3 at some step"
        return True, f"T={steps}: phi={float(phi):.5f} (target 2/9 +- 0.02), prefix-exact 2/3"

    return _timed("chain convergence", run)


def _chi_square(observed: list[int]) -> tuple[float, float]:
    """Pearson's statistic against equal expected counts, and its p-value
    with len(observed) - 1 degrees of freedom.  The statistic is exact
    before rounding."""
    total = sum(observed)
    x = float(Fraction(len(observed) * sum(o * o for o in observed), total) - total)
    return x, _chi2_sf(x, len(observed) - 1)


def _chi2_sf(x: float, k: int) -> float:
    """Chi-square survival function in closed form (Abramowitz & Stegun
    26.4.4 and 26.4.21): a Poisson tail sum for even k, erfc plus a finite
    series for odd k.  Every term is positive, so nothing cancels."""
    if k % 2 == 0:
        p, term, first = 0.0, math.exp(-x / 2), 2
    else:
        p, term, first = math.erfc(math.sqrt(x / 2)), math.sqrt(2 * x / math.pi) * math.exp(-x / 2), 3
    for i in range(first, k + 1, 2):
        p += term
        term *= x / i
    return p


def run_uniform_stationarity(
    seed: int = 505, steps: int = 1_000_000, stride: int = 101, p_threshold: float = 0.001
) -> tuple[CheckResult, ChainTrace | None]:
    """Thinned visit counts on a small orbit pass a uniform chi-square test,
    and the same run's schema frequencies settle on the exact orbit means.

    Consecutive chain samples are autocorrelated, which would invalidate
    the chi-square independence assumption, so visits are subsampled with
    a stride well past the mixing time.  The running frequencies use every
    step.  The chain comes back with the result, so further assertions on
    the same run need not repeat it; it is None when the check stops
    before running the chain.
    """
    trace: ChainTrace | None = None

    def run() -> tuple[bool, str]:
        nonlocal trace
        p = population_b()
        orbit = enumerate_orbit(p)
        if orbit.size > 50:
            return False, f"fixture orbit too large for the test: {orbit.size}"
        schemata = [Schema("alpha", (1, 2), "f1"), Schema("beta", (2, 1), "f2")]
        mu = TransformDistribution.from_population(p)
        trace = run_chain(p, steps, mu, schemata, seed, visit_stride=stride)
        for h in schemata:
            mean = orbit_frequency(orbit, h)
            if mean != Fraction(1, 6):
                return False, f"orbit mean of {h} is {mean}, expected 1/6"
            if abs(trace.phi(h) - mean) > Fraction(1, 100):
                return False, f"phi({h}) = {float(trace.phi(h)):.5f}, off the orbit mean {mean} by more than 1/100"
        assert trace.visits is not None
        for visited in trace.visits:
            if not orbit.contains(visited):
                return False, f"chain left the orbit: {visited}"
        if len(trace.visits) > orbit.size:
            return False, f"{len(trace.visits)} distinct visits in an orbit of {orbit.size}"
        # Pearson's statistic ignores the order of the counts, so unvisited
        # members enter as zeros without being listed.
        observed = [*trace.visits.values(), *[0] * (orbit.size - len(trace.visits))]
        if sum(observed) != len(range(0, steps + 1, stride)):
            return False, "visit bookkeeping mismatch"
        stat, p_value = _chi_square(observed)
        if p_value <= p_threshold:
            return False, f"chi-square p={p_value:.2e} (stat {stat:.1f}) vs uniform over {orbit.size}"
        phis = ", ".join(f"phi({h})={float(trace.phi(h)):.5f}" for h in schemata)
        return True, (
            f"orbit {orbit.size}, {sum(observed)} thinned samples, chi-square p={p_value:.3f};"
            f" {phis} (orbit mean 1/6 +- 0.01)"
        )

    result = _timed("uniform stationarity", run)
    return result, trace


def check_inflation_trend(max_factor: int = 4) -> CheckResult:
    """Exact orbit frequencies of the inflated fixture approach the formula.

    Inflation gives every terminal label fresh per-copy names, so a schema
    of the base population is transported by letting its terminal stand
    for the whole copy family; the exact orbit mean of that transported
    schema is what approaches the closed-form value.
    """

    def run() -> tuple[bool, str]:
        p = population_b()
        target = Schema("alpha", (1, 2), "f1")
        limit = limiting_frequency(p, target)
        if limit != Fraction(1, 8):
            return False, f"formula value {limit} != 1/8"
        gaps: list[Fraction] = []
        values: list[Fraction] = []
        for m in range(1, max_factor + 1):
            o = enumerate_inflated_orbit(p, m, cap=10**40)
            v = o.family_frequency(target)
            values.append(v)
            gaps.append(abs(v - limit))
        if not gaps[-1] < gaps[0]:
            return False, f"gap did not shrink: {[str(g) for g in gaps]}"
        pretty = ", ".join(f"m={m}: {v} ({float(v):.5f})" for m, v in enumerate(values, 1))
        return True, f"target 1/8; {pretty}"

    return _timed("inflation trend", run)


def check_evaluator_oracle(seed: int = 606, walks: int = 100_000) -> CheckResult:
    """Walker averages agree with the exact absorbing-chain solution."""

    def run() -> tuple[bool, str]:
        cases = [
            ("loop fixture", population_b(), payoffs_b(),
             {"alpha": Fraction(1, 3), "beta": Fraction(2, 3)}),
            ("homologous fixture", population_a(), payoffs_a(),
             {"alpha": Fraction(1), "beta": Fraction(1)}),
        ]
        details = []
        for label, pop, payoffs, expected in cases:
            g = dg.build_digraph(pop)
            for action, value in expected.items():
                exact = dg.exact_expected_payoff(g, action, payoffs)
                if exact != value:
                    return False, f"{label}: oracle {action} = {exact}, expected {value}"
            report = dg.evaluate_actions(
                g, sorted(expected), walks, payoffs, seed=seed
            )
            for action, value in expected.items():
                ev = report.per_action[action]
                se = ev.stddev / ev.n**0.5
                gap = abs(float(ev.mean) - float(value))
                if ev.cap_exceeded:
                    return False, f"{label}: {ev.cap_exceeded} capped walks"
                if gap > 3 * se:
                    return False, f"{label}: {action} mean {float(ev.mean):.5f} off {value} by {gap:.5f} > 3*SE={3*se:.5f}"
                details.append(f"{action}:{float(ev.mean):.4f}~{value}")
        return True, f"N={walks}: " + " ".join(details)

    return _timed("evaluator vs oracle", run)


def check_flow_conservation(seed: int = 707, populations: int = 100) -> CheckResult:
    """Child frequencies of every #-tailed schema sum exactly to the parent."""

    def run() -> tuple[bool, str]:
        rng = random.Random(seed)
        checked = 0
        for _ in range(populations):
            p = random_population(rng, allow_stateless=True)
            for h in [h for h in _candidate_schemata(p, 3) if h.is_root or h.wildcard_tail]:
                parent = limiting_frequency(p, h)
                children = frequency_children(p, h)
                if sum(children.values(), Fraction(0)) != parent:
                    return False, f"conservation broken at {h} on {p}"
                checked += 1
        return True, f"{populations} populations, {checked} parent schemata"

    return _timed("flow conservation", run)


def check_terminal_count_identity(seed: int = 808, populations: int = 1000) -> CheckResult:
    """Per-class terminal counts sum to the population size."""

    def terminal_total(p: Population) -> int:
        graph = down_report(p)
        return sum(len(graph.successors(dg.class_node(i))[1]) for i in graph.classes)

    def run() -> tuple[bool, str]:
        for fixture in (population_a(), population_b()):
            total = terminal_total(fixture)
            if total != fixture.b:
                return False, f"fixture sums {total} != b={fixture.b}"
        rng = random.Random(seed)
        for _ in range(populations):
            p = random_population(rng, allow_stateless=False)
            total = terminal_total(p)
            if total != p.b:
                return False, f"sum {total} != b={p.b} for {p}"
        return True, f"fixtures + {populations} random populations"

    return _timed("terminal count identity", run)


def check_pipeline_determinism(workdir: str, seed: int = 909) -> CheckResult:
    """gen -> mix -> limit -> orbit -> eval twice; reports byte-identical."""

    def run() -> tuple[bool, str]:
        from pathlib import Path

        from .cli import dispatch

        d = Path(workdir)
        d.mkdir(parents=True, exist_ok=True)
        cfg = d / "env.json"
        cfg.write_text(
            '{"n_states": 6, "n_observations": 3, "n_actions": 2,'
            ' "max_branching": 2, "depth_cap": 4, "payoff_range": [0, 3],'
            ' "rollouts": 5, "seed": 77}\n',
            encoding="utf-8",
        )
        files = {name: d / f"{name}.json" for name in ("pop", "mix", "limit", "orbit", "eval")}
        commands = [
            ["gen", "--env", str(cfg), "--seed", str(seed), "--out", str(files["pop"])],
            ["mix", "--pop", str(files["pop"]), "--steps", "2000", "--schema", "act1,1,#",
             "--seed", str(seed), "--out", str(files["mix"])],
            ["limit", "--pop", str(files["pop"]), "--schema", "act1,1,#",
             "--out", str(files["limit"])],
            ["orbit", "--pop", str(files["pop"]), "--schema", "act1,1,#",
             "--cap", str(10**30), "--out", str(files["orbit"])],
            ["eval", "--pop", str(files["pop"]), "--walks", "10000", "--seed", str(seed),
             "--out", str(files["eval"])],
        ]
        outputs: list[dict[str, bytes]] = []
        for attempt in ("first", "second"):
            for argv in commands:
                code = dispatch(argv)
                if code != 0:
                    return False, f"{argv[0]} exited {code} on the {attempt} run"
            outputs.append({name: path.read_bytes() for name, path in files.items()})
        if outputs[0] != outputs[1]:
            differing = [k for k in outputs[0] if outputs[0][k] != outputs[1][k]]
            return False, f"reports differ between runs: {differing}"
        return True, "five pipeline reports byte-identical across two runs"

    return _timed("pipeline determinism", run)


def run_verification(seed: int, workdir: str) -> list[CheckResult]:
    """The full suite with its standard sizes (several minutes of work)."""
    rng = random.Random(seed)

    def sub() -> int:
        return rng.randrange(2**32)

    return [
        check_involution_conservation(sub()),
        check_stat_invariance(sub()),
        check_homologous_exactness(sub()),
        check_chain_convergence(sub()),
        run_uniform_stationarity(sub())[0],
        check_inflation_trend(),
        check_evaluator_oracle(sub()),
        check_flow_conservation(sub()),
        check_terminal_count_identity(sub()),
        check_pipeline_determinism(workdir, sub()),
    ]
