"""The four benchmark workloads: inputs drawn from the seed, one op, output checks.

Every op goes through ``rollmix.cli.dispatch`` (the code path of the
``rollmix`` command, run in-process) or the public oracle API, and hands
the program only generated files and argv.  Each op's outputs are checked
against properties that hold for any correct implementation, including one
that consumes randomness differently; a check that fails marks the op as
failed.  Why each workload exists is written down in README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

from rollmix import cli, envsim, fileio, fixtures, recombine
from rollmix.model import Schema


@dataclass
class OpResult:
    """One completed op: time spent inside the program, work done, check failures."""

    ns: int
    work: int
    problems: list[str] = field(default_factory=list)


def run_cli(argv: list[str]) -> tuple[int, int]:
    """Run one ``rollmix`` command in-process; returns (exit code, elapsed ns).

    The command's stderr (its own timing line) is kept in memory, so the
    benchmark's output stays readable.
    """
    with contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter_ns()
        code = cli.dispatch(argv)
        return code, time.perf_counter_ns() - start


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def population_size(data: dict) -> dict[str, int]:
    """Stated input size of a population file, counted by the benchmark itself."""
    per_class = Counter(s[0] for r in data["rollouts"] for s in r["states"])
    return {
        "b": len(data["rollouts"]),
        "states": sum(per_class.values()),
        "classes": len(per_class),
        "tag_pairs": sum(math.comb(n, 2) for n in per_class.values()),
    }


def fiber_size(data: dict) -> int:
    """Number of tag relabellings of a population: prod_i n_i! over classes."""
    per_class = Counter(s[0] for r in data["rollouts"] for s in r["states"])
    return math.prod(math.factorial(n) for n in per_class.values())


def simulate(cfg: envsim.SimConfig, gen_seed: int) -> envsim.GeneratedSample:
    """The population ``rollmix gen --env <cfg> --seed <gen_seed>`` writes."""
    env = envsim.make_random_pomdp(cfg, random.Random(cfg.seed))
    actions = [env.root_actions[i % len(env.root_actions)] for i in range(cfg.rollouts)]
    return envsim.generate_population(env, actions, random.Random(gen_seed))


def write_env(path: Path, cfg: envsim.SimConfig) -> None:
    path.write_text(json.dumps(envsim.sim_config_to_json(cfg)) + "\n", encoding="utf-8")


def schema_args(schemata: list[str]) -> list[str]:
    return [arg for text in schemata for arg in ("--schema", text)]


def prefix_schemata(data: dict) -> dict[str, int]:
    """Every (a,#) and (a,c,#) schema of a population, with its count in it.

    Both counts are invariant under every crossover move: actions stay in
    their slot, and a suffix swap at a first position brings in a state of
    the same class.
    """
    counts: Counter[str] = Counter()
    for r in data["rollouts"]:
        counts[f"{r['action']},#"] += 1
        if r["states"]:
            counts[f"{r['action']},{r['states'][0][0]},#"] += 1
    return dict(sorted(counts.items()))


def check_mix(report: dict, b: int, steps: int, schemata: list[str], exact: dict[str, int]) -> list[str]:
    """Checks of one ``mix`` report.

    Every total is a count over P^0..P^T, so it lies in [0, b(T+1)]; a
    schema whose count no move changes totals exactly count(P^0) * (T+1).
    """
    out = report["outputs"]
    bound = b * (steps + 1)
    problems = []
    if out["b"] != b or out["steps"] != steps:
        problems.append(f"mix: b={out['b']} steps={out['steps']}, expected b={b} steps={steps}")
    for text in schemata:
        entry = out["schemata"].get(text)
        if entry is None:
            problems.append(f"mix: schema {text} missing from the report")
            continue
        total = entry["total_count"]
        if entry["denominator"] != bound or not 0 <= total <= bound:
            problems.append(f"mix: {text} total {total} / {entry['denominator']} outside [0, {bound}]")
        if text in exact and total != exact[text] * (steps + 1):
            problems.append(f"mix: {text} total {total} != {exact[text]} * {steps + 1}")
    return problems


def check_orbit(report: dict, fiber: int, closed_form: dict[str, Fraction]) -> list[str]:
    """Checks of one ``orbit`` report: size = classes x fiber, and every
    conserved prefix schema equals the closed form from ``limit`` exactly."""
    out = report["outputs"]
    problems = []
    if out["fiber"] != fiber or out["orbit_size"] != out["canonical_classes"] * fiber:
        problems.append(
            f"orbit: size {out['orbit_size']} != {out['canonical_classes']} classes x fiber {fiber}"
            f" (reported fiber {out['fiber']})"
        )
    for text, value in closed_form.items():
        got = out["frequencies"].get(text)
        if got is None or Fraction(got) != value:
            problems.append(f"orbit: {text} = {got}, closed form {value}")
    return problems


def check_limit(report: dict, b: int, actions: list[str], classes: range) -> list[str]:
    """Flow conservation (acceptance criterion 08) on one ``limit`` report.

    The children of (a,#) are (a,c,#) for every class c and (a,f) for every
    terminal f that follows a directly, each of frequency 1/b; child
    frequencies sum exactly to the parent's, and the (a,#) sum to 1.
    """
    out = report["outputs"]
    freq = {text: Fraction(value) for text, value in out["frequencies"].items()}
    down = out["down_report"]
    problems = []
    if down["b"] != b:
        problems.append(f"limit: b={down['b']}, expected {b}")
    for a in actions:
        stateless = len(down["actions"].get(a, {}).get("terminals", []))
        children = sum((freq[f"{a},{c},#"] for c in classes), Fraction(stateless, b))
        if children != freq[f"{a},#"]:
            problems.append(f"limit: children of {a},# sum to {children}, parent {freq[f'{a},#']}")
    total = sum((freq[f"{a},#"] for a in actions), Fraction(0))
    if total != 1:
        problems.append(f"limit: action frequencies sum to {total}")
    return problems


def check_eval(report: dict, walks: int, actions: list[str]) -> tuple[list[str], int]:
    """Checks of one ``eval`` report; returns the problems and walks completed.

    Every requested walk either finishes or is counted as capped, and each
    walker mean lies within 5 standard errors of its exact oracle value.
    """
    out = report["outputs"]["actions"]
    problems = []
    done = 0
    if sorted(out) != sorted(actions):
        problems.append(f"eval: actions {sorted(out)}, expected {sorted(actions)}")
    for a, entry in sorted(out.items()):
        n = entry["n"]
        done += n
        if n + entry["cap_exceeded"] != walks:
            problems.append(f"eval: {a} n={n} + capped={entry['cap_exceeded']} != {walks} walks")
        if n == 0:
            continue
        gap = abs(float(Fraction(entry["payoff_sum"]) / n - Fraction(entry["oracle"])))
        se = float(entry["stddev"]) / math.sqrt(n)
        if gap > 5 * se:
            problems.append(f"eval: {a} mean off the oracle {entry['oracle']} by {gap:.6g} > 5 SE = {5 * se:.6g}")
    return problems, done


class Workload:
    """A closed loop with one client: set-up draws every input from the seed,
    then the harness calls op(0), op(1), ... until the run's time is up.

    ``segment`` ops are run between two looks at the clock, so a run holds
    whole cycles of a mixed workload.
    """

    name = ""
    work_unit = ""  # what work_per_s counts on this workload
    segment = 1

    def __init__(self, workdir: Path, seed: int, tiny: bool) -> None:
        self.dir = workdir
        self.tiny = tiny
        self.rng = random.Random(f"{self.name}:{seed}")
        self.size: dict[str, object] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int) -> OpResult:
        raise NotImplementedError

    def after_warmup(self) -> None:
        """Hook to complete the input-size record from the first op's files."""

    def finish(self) -> list[str]:
        """Run-level checks over every op; returns problems."""
        return []


class MixWide(Workload):
    """``rollmix mix`` on a generated b=200 population with 8 prefix schemata."""

    name = "mix-wide"
    work_unit = "chain_steps_per_s"

    def setup(self) -> None:
        b, states, pairs, steps, envs, samples = (
            (20, 38, 150, 20, 8, 4) if self.tiny else (200, 380, 13_500, 200, 48, 16)
        )
        # Per-step cost follows the state count, chain set-up and collector
        # work the tag-pair count; a fixed number of draws picks the population
        # nearest both targets, first the environment and then more samples
        # from it.  Eligible populations carry 3 actions and at least 5 (a,c)
        # starts, so 8 conserved schemata exist.
        def score(cfg: envsim.SimConfig, gen_seed: int) -> tuple:
            rollouts = simulate(cfg, gen_seed).population.rollouts
            per_class = Counter(s.cls for r in rollouts for s in r.states)
            starts = {(r.action, r.states[0].cls) for r in rollouts if r.states}
            eligible = len({r.action for r in rollouts}) == 3 and len(starts) >= 5
            distance = (abs(sum(per_class.values()) - states) / states
                        + abs(sum(math.comb(n, 2) for n in per_class.values()) - pairs) / pairs)
            return (not eligible, distance), cfg, gen_seed

        draws = [self.rng.randrange(2**31) for _ in range(2 * envs)]
        best = min((score(envsim.SimConfig(20, 8, 3, 3, 8, (0, 10), b, e), g)
                    for e, g in zip(draws[::2], draws[1::2])), key=lambda s: s[0])
        cfg = best[1]
        best = min([best] + [score(cfg, self.rng.randrange(2**31)) for _ in range(samples)], key=lambda s: s[0])
        _, cfg, gen_seed = best
        env, self.pop = self.dir / "env.json", self.dir / "pop.json"
        write_env(env, cfg)
        code, _ = run_cli(["gen", "--env", str(env), "--seed", str(gen_seed), "--out", str(self.pop)])
        if code != 0:
            raise RuntimeError(f"set-up: rollmix gen exited {code}")
        data = read_json(self.pop)
        counts = prefix_schemata(data)
        actions = [t for t in counts if t.count(",") == 1]
        starts = sorted((t for t in counts if t.count(",") == 2), key=lambda t: (-counts[t], t))
        self.schemata = actions + starts[: 8 - len(actions)]
        self.exact = {t: counts[t] for t in self.schemata}
        self.steps = steps
        self.chain_seed = self.rng.randrange(2**31)
        self.out = self.dir / "mix.json"
        self.size = population_size(data)
        self.size.update(
            generators=2 * self.size["tag_pairs"], schemata=len(self.schemata), steps_per_op=steps
        )

    def op(self, i: int) -> OpResult:
        argv = ["mix", "--pop", str(self.pop), "--steps", str(self.steps),
                "--seed", str(self.chain_seed + i), "--out", str(self.out)]
        code, ns = run_cli(argv + schema_args(self.schemata))
        if code != 0:
            return OpResult(ns, 0, [f"mix exited {code}"])
        report = read_json(self.out)
        return OpResult(ns, self.steps, check_mix(report, self.size["b"], self.steps, self.schemata, self.exact))


class MixLoop(MixWide):
    """``rollmix mix`` on the loop fixture population_b (b=2), many short steps."""

    name = "mix-loop"
    schemata = ["alpha,1,2,f1", "beta,2,1,f2"]
    exact: dict[str, int] = {}  # neither schema is conserved

    def setup(self) -> None:
        self.steps = 200 if self.tiny else 10_000
        self.pop = self.dir / "pop.json"
        fileio.save_population(self.pop, fixtures.population_b(), fixtures.payoffs_b())
        # The exact orbit mean is the chain's long-run value (another route).
        orbit = self.dir / "orbit.json"
        code, _ = run_cli(["orbit", "--pop", str(self.pop), "--out", str(orbit)] + schema_args(self.schemata))
        if code != 0:
            raise RuntimeError(f"set-up: rollmix orbit exited {code}")
        self.oracle = {t: Fraction(v) for t, v in read_json(orbit)["outputs"]["frequencies"].items()}
        self.totals = Counter()
        self.denominator = 0
        self.chain_seed = self.rng.randrange(2**31)
        self.out = self.dir / "mix.json"
        self.size = population_size(read_json(self.pop))
        self.size.update(
            generators=2 * self.size["tag_pairs"], schemata=len(self.schemata), steps_per_op=self.steps
        )

    def op(self, i: int) -> OpResult:
        result = super().op(i)
        if not result.problems:
            schemata = read_json(self.out)["outputs"]["schemata"]
            for text in self.schemata:
                self.totals[text] += schemata[text]["total_count"]
            self.denominator += self.size["b"] * (self.steps + 1)
        return result

    def finish(self) -> list[str]:
        # Pooled over at least 100k steps the running frequency sits well
        # within 0.02 of the orbit mean (criterion 04 uses the same margin).
        if self.denominator < 100_000 * self.size["b"]:
            return []
        return [
            f"mix-loop: pooled frequency of {t} = {float(Fraction(self.totals[t], self.denominator)):.5f},"
            f" orbit mean {self.oracle[t]}"
            for t in self.schemata
            if abs(Fraction(self.totals[t], self.denominator) - self.oracle[t]) > Fraction(1, 50)
        ]


@dataclass
class OrbitCase:
    pop: Path
    schemata: list[str]
    closed_form: dict[str, Fraction]
    fiber: int
    cap: int


class OrbitOracle(Workload):
    """``rollmix orbit`` on many small generated populations, plus the inflated
    loop fixture through the public oracle API."""

    name = "orbit-oracle"
    work_unit = "orbit_classes_per_s"
    # Exact family frequency of (alpha,1,2,f1) on population_b inflated m-fold,
    # as the seed implementation computes it.
    INFLATED = {3: Fraction(19, 150), 4: Fraction(37, 294)}

    def setup(self) -> None:
        pool_size, every, self.m = (6, 3, 3) if self.tiny else (150, 50, 4)
        self.segment = every + 1
        # The fiber bounds the number of canonical classes from above, so the
        # band keeps every orbit small and no op anywhere near its cap.
        lo, hi = 24, 720
        cases: list[OrbitCase] = []
        seen = set()
        for _ in range(200 * pool_size):
            if len(cases) == pool_size:
                break
            cfg = envsim.SimConfig(8, 3, 2, 2, 4, (0, 3), 7, self.rng.randrange(2**31))
            sample = simulate(cfg, self.rng.randrange(2**31))
            data = fileio.population_to_json(sample.population, sample.payoffs)
            fiber = fiber_size(data)
            key = json.dumps(data["rollouts"])
            if not lo <= fiber <= hi or key in seen:
                continue
            seen.add(key)
            pop = self.dir / f"pop{len(cases)}.json"
            pop.write_text(fileio.dump_canonical(data), encoding="utf-8")
            schemata = list(prefix_schemata(data))
            limit = self.dir / "limit.json"
            code, _ = run_cli(["limit", "--pop", str(pop), "--out", str(limit)] + schema_args(schemata))
            if code != 0:
                raise RuntimeError(f"set-up: rollmix limit exited {code}")
            closed_form = {t: Fraction(v) for t, v in read_json(limit)["outputs"]["frequencies"].items()}
            cases.append(OrbitCase(pop, schemata, closed_form, fiber, 50_000 * fiber))
        if len(cases) < pool_size:
            raise RuntimeError(f"set-up: only {len(cases)} of {pool_size} populations drawn")
        self.cases = cases
        self.every = every
        self.base = fixtures.population_b()
        self.target = Schema("alpha", (1, 2), "f1")
        self.out = self.dir / "orbit.json"
        sizes = [population_size(read_json(c.pop)) for c in cases]
        self.size = {
            "b": sizes[0]["b"],
            "populations": pool_size,
            "states_mean": sum(s["states"] for s in sizes) / pool_size,
            "classes_mean": sum(s["classes"] for s in sizes) / pool_size,
            "tag_pairs_mean": sum(s["tag_pairs"] for s in sizes) / pool_size,
            "fiber_band": [lo, hi],
            "inflated": f"population_b x {self.m}",
            "inflated_every": every,
        }

    def op(self, i: int) -> OpResult:
        cycle, pos = divmod(i, self.segment)
        if pos == self.every:
            return self.inflated_op()
        case = self.cases[(cycle * self.every + pos) % len(self.cases)]
        argv = ["orbit", "--pop", str(case.pop), "--cap", str(case.cap), "--out", str(self.out)]
        code, ns = run_cli(argv + schema_args(case.schemata))
        if code == 3:
            return OpResult(ns, 0)
        if code != 0:
            return OpResult(ns, 0, [f"orbit exited {code} on {case.pop.name}"])
        report = read_json(self.out)
        return OpResult(ns, report["outputs"]["canonical_classes"], check_orbit(report, case.fiber, case.closed_form))

    def inflated_op(self) -> OpResult:
        start = time.perf_counter_ns()
        orbit = recombine.enumerate_inflated_orbit(self.base, self.m, cap=10**40)
        value = orbit.family_frequency(self.target)
        ns = time.perf_counter_ns() - start
        expected = self.INFLATED[self.m]
        problems = [] if value == expected else [f"inflated m={self.m}: {value} != {expected}"]
        return OpResult(ns, orbit.n_classes, problems)


class SampleEval(Workload):
    """``gen`` -> ``limit`` -> ``eval`` on a fresh b=2000 sample per op."""

    name = "sample-eval"
    work_unit = "walks_per_s"

    def setup(self) -> None:
        b, probe, candidates, self.walks = (100, 50, 4, 100) if self.tiny else (2000, 300, 24, 5000)
        target_height = 2.2
        # Walk length follows the mean rollout height, and eval cost the number
        # of root actions: pick, from a fixed number of environments, one with
        # two root actions and mean height nearest the target.
        best = None
        for _ in range(candidates):
            cfg = envsim.SimConfig(40, 20, 3, 3, 8, (0, 10), probe, self.rng.randrange(2**31))
            rollouts = simulate(cfg, self.rng.randrange(2**31)).population.rollouts
            height = sum(r.height for r in rollouts) / probe
            key = (len({r.action for r in rollouts}) != 2, abs(height - target_height))
            if best is None or key < best[0]:
                best = (key, cfg)
        cfg = replace(best[1], rollouts=b)
        self.env, self.schemata = self.dir / "env.json", self.dir / "schemata.txt"
        write_env(self.env, cfg)
        model = envsim.make_random_pomdp(cfg, random.Random(cfg.seed))
        self.actions = sorted(model.root_actions)
        self.classes = range(1, cfg.n_observations + 1)
        lines = [f"{a},#" for a in self.actions] + [f"{a},{c},#" for a in self.actions for c in self.classes]
        self.schemata.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.b = b
        self.gen_seed = self.rng.randrange(2**31)
        self.pop, self.limit, self.eval = (self.dir / f"{n}.json" for n in ("pop", "limit", "eval"))
        self.stage_ns: dict[str, list[int]] = {"gen": [], "limit": [], "eval": []}
        self.size = {"b": b, "env_states": cfg.n_states, "env_observations": cfg.n_observations,
                     "schemata": len(lines), "walks_per_op": self.walks * len(self.actions)}

    def op(self, i: int) -> OpResult:
        seed = str(self.gen_seed + i)
        stages = [
            ("gen", ["gen", "--env", str(self.env), "--seed", seed, "--out", str(self.pop)]),
            ("limit", ["limit", "--pop", str(self.pop), "--schemata-file", str(self.schemata),
                       "--out", str(self.limit)]),
            ("eval", ["eval", "--pop", str(self.pop), "--walks", str(self.walks), "--seed", seed,
                      "--workers", "1", "--out", str(self.eval)]),
        ]
        total = 0
        for stage, argv in stages:
            code, ns = run_cli(argv)
            total += ns
            self.stage_ns[stage].append(ns)
            if code != 0:
                return OpResult(total, 0, [f"{stage} exited {code}"])
        problems = check_limit(read_json(self.limit), self.b, self.actions, self.classes)
        eval_problems, done = check_eval(read_json(self.eval), self.walks, self.actions)
        return OpResult(total, done, problems + eval_problems)

    def after_warmup(self) -> None:
        self.size.update({k: v for k, v in population_size(read_json(self.pop)).items() if k != "b"})
        for times in self.stage_ns.values():
            times.clear()


WORKLOADS = {w.name: w for w in (MixWide, MixLoop, OrbitOracle, SampleEval)}
