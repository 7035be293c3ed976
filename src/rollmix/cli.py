"""Command-line front end.

Subcommands::

    gen    environment config -> population file
    mix    population + steps + schemata -> running-frequency report
    limit  population + schemata -> closed-form frequency report
    orbit  population + schemata -> exact orbit report (cap-guarded)
    eval   population + payoffs + walk count -> action-value report
    verify run the full invariant suite; nonzero exit on any failure

Exit codes: 0 success, 1 usage or schema-syntax error, 2 invalid input
data (with the violation list), 3 cap exceeded, 4 verification failure.
5 unexpected error, such as a bug or a closed stdout (traceback on stderr).

Randomised commands require --seed and are bit-reproducible given it;
report files are canonical JSON (wall-clock timing goes to stderr so
identical inputs produce identical bytes).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Any, Sequence

from . import __version__
from . import digraph as dg
from .fileio import (
    ParseError,
    SchemaSyntaxError,
    dump_canonical,
    format_rational,
    load_population,
    parse_schema,
    population_text,
    read_input,
    read_schemata_file,
)
from .model import InvalidPopulationError, Schema
from .recombine import OrbitCapExceeded, TransformDistribution, enumerate_orbit, orbit_frequency, run_chain
from .stats import down_report, limiting_frequency_from_report


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _build_parser(argv: Sequence[str]) -> _Parser:
    """The command-line parser for ``argv``.

    When argv starts with a command, only that command's subparser is
    built, since one call runs one command; its help, errors and parse are
    those of the full parser.  Otherwise (no command, ``--help``,
    ``--version``, an unknown word) all six are built, in this order.
    """
    parser = _Parser(prog="rollmix", description=__doc__, add_help=True,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"rollmix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    only = argv[0] if argv and argv[0] in _HANDLERS else None

    if only in (None, "gen"):
        gen = sub.add_parser("gen", help="simulate a population from an environment config")
        gen.add_argument("--env", required=True, help="environment config JSON")
        gen.add_argument("--seed", required=True, type=int, help="rollout simulation seed")
        gen.add_argument("--out", help="population file (default: stdout)")

    if only in (None, "mix"):
        mix = sub.add_parser("mix", help="run the recombination chain and report running frequencies")
        mix.add_argument("--pop", required=True)
        mix.add_argument("--steps", required=True, type=int)
        mix.add_argument("--schema", action="append", default=[], help="schema text (repeatable)")
        mix.add_argument("--schemata-file", help="file with one schema per line")
        mix.add_argument("--seed", required=True, type=int)
        mix.add_argument("--identity-prob", type=float, default=0.01)
        mix.add_argument("--out")

    if only in (None, "limit"):
        limit = sub.add_parser("limit", help="closed-form limiting frequencies")
        limit.add_argument("--pop", required=True)
        limit.add_argument("--schema", action="append", default=[])
        limit.add_argument("--schemata-file")
        limit.add_argument("--out")

    if only in (None, "orbit"):
        orbit = sub.add_parser("orbit", help="exact orbit enumeration and frequencies")
        orbit.add_argument("--pop", required=True)
        orbit.add_argument("--schema", action="append", default=[])
        orbit.add_argument("--schemata-file")
        orbit.add_argument("--cap", type=int, default=10**6, help="maximum orbit size")
        orbit.add_argument("--out")

    if only in (None, "eval"):
        ev = sub.add_parser("eval", help="walker-based action evaluation with exact oracle column")
        ev.add_argument("--pop", required=True)
        ev.add_argument("--walks", required=True, type=int)
        ev.add_argument("--seed", required=True, type=int)
        ev.add_argument("--cap", type=int, default=10**6, help="per-walk step cap")
        ev.add_argument("--workers", type=int, default=1,
                        help="accepted for compatibility (must be >= 1); walks run in one process "
                        "and their results never depend on this value")
        ev.add_argument("--out")

    if only in (None, "verify"):
        ver = sub.add_parser("verify", help="run the full invariant and acceptance suite")
        ver.add_argument("--seed", required=True, type=int)
        ver.add_argument("--out")
    return parser


def _schemata_from_args(args: argparse.Namespace) -> list[Schema]:
    schemata = [parse_schema(text) for text in args.schema]
    if getattr(args, "schemata_file", None):
        schemata.extend(read_schemata_file(args.schemata_file))
    if not schemata:
        raise UsageError("no schemata given; use --schema or --schemata-file")
    return schemata


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc}") from None
    else:
        sys.stdout.write(text)


def _report(command: str, inputs: dict[str, Any], outputs: dict[str, Any]) -> dict[str, Any]:
    return {
        "command": command,
        "tool": {"name": "rollmix", "version": __version__},
        "inputs": inputs,
        "outputs": outputs,
    }


def _successions_json(g: dg.WeightedDigraph, node: dg.Node) -> dict[str, Any]:
    classes, terminals = g.successors(node)
    out: dict[str, Any] = {
        "classes": {str(j): g.edge_weight(node, dg.class_node(j)) for j in classes},
        "terminals": terminals,
    }
    if node[0] == "class":
        out.update(terminal_count=len(terminals), occurrences=g.out_weight(node))
    return out


def _down_report_json(g: dg.WeightedDigraph) -> dict[str, Any]:
    return {
        "b": g.b,
        "actions": {a: _successions_json(g, dg.action_node(a)) for a in sorted(g.actions)},
        "classes": {str(i): _successions_json(g, dg.class_node(i)) for i in sorted(g.classes)},
    }


def _cmd_gen(args: argparse.Namespace) -> int:
    import random

    from .envsim import generate_population, make_random_pomdp, sim_config_from_json

    cfg = sim_config_from_json(read_input(args.env))
    env = make_random_pomdp(cfg, random.Random(cfg.seed))
    actions = [env.root_actions[i % len(env.root_actions)] for i in range(cfg.rollouts)]
    sample = generate_population(env, actions, random.Random(args.seed))
    _emit(population_text(sample.population, sample.payoffs), args.out)
    if sample.cap_hits:
        print(f"[rollmix] gen: {sample.cap_hits} rollouts hit the depth cap", file=sys.stderr)
    return 0


def _cmd_mix(args: argparse.Namespace) -> int:
    population, _ = load_population(args.pop)
    schemata = _schemata_from_args(args)
    if not 0 < args.identity_prob < 1:
        raise UsageError("identity probability must lie in (0, 1)")
    if args.steps < 0:
        raise UsageError("steps must be >= 0")
    mu = TransformDistribution.from_population(population, args.identity_prob)
    trace = run_chain(population, args.steps, mu, schemata, args.seed)
    outputs = {
        "b": population.b,
        "steps": args.steps,
        "schemata": {
            str(h): {
                "total_count": trace.schema_counts[h],
                "denominator": population.b * (args.steps + 1),
                "phi": f"{float(trace.phi(h)):.12g}",
            }
            for h in schemata
        },
    }
    inputs = {
        "pop": args.pop,
        "steps": args.steps,
        "seed": args.seed,
        "identity_prob": args.identity_prob,
    }
    _emit(dump_canonical(_report("mix", inputs, outputs)), args.out)
    return 0


def _cmd_limit(args: argparse.Namespace) -> int:
    population, _ = load_population(args.pop)
    schemata = _schemata_from_args(args)
    graph = down_report(population)
    outputs = {
        "frequencies": {
            str(h): format_rational(limiting_frequency_from_report(graph, h))
            for h in schemata
        },
        "down_report": _down_report_json(graph),
    }
    _emit(dump_canonical(_report("limit", {"pop": args.pop}, outputs)), args.out)
    return 0


def _cmd_orbit(args: argparse.Namespace) -> int:
    if args.cap < 1:
        raise UsageError("--cap must be >= 1")
    population, _ = load_population(args.pop)
    schemata = _schemata_from_args(args)
    orbit = enumerate_orbit(population, cap=args.cap)
    outputs = {
        "orbit_size": orbit.size,
        "canonical_classes": orbit.n_classes,
        "fiber": orbit.fiber,
        "frequencies": {
            str(h): format_rational(orbit_frequency(orbit, h)) for h in schemata
        },
    }
    _emit(dump_canonical(_report("orbit", {"pop": args.pop, "cap": args.cap}, outputs)), args.out)
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    if args.walks < 0:
        raise UsageError("--walks must be >= 0")
    if args.cap < 1:
        raise UsageError("--cap must be >= 1")
    if args.workers < 1:
        raise UsageError("--workers must be >= 1")
    population, payoffs = load_population(args.pop)
    graph = dg.build_digraph(population)
    missing = graph.terminals - set(payoffs)
    if missing:
        raise ParseError(f"{args.pop}: payoffs missing for terminals {sorted(missing)}")
    actions = sorted({r.action for r in population.rollouts})
    report = dg.evaluate_actions(graph, actions, args.walks, payoffs, cap=args.cap, seed=args.seed)
    outputs: dict[str, Any] = {"walks": args.walks, "actions": {}}
    for action in actions:
        oracle = dg.exact_expected_payoff(graph, action, payoffs)
        entry: dict[str, Any] = {"oracle": format_rational(oracle)}
        if action in report.per_action:
            ev = report.per_action[action]
            entry.update(
                {
                    "q": f"{dg.as_float(ev.mean):.12g}" if ev.n else None,
                    "n": ev.n,
                    "payoff_sum": format_rational(ev.payoff_sum),
                    "stddev": f"{ev.stddev:.12g}",
                    "cap_exceeded": ev.cap_exceeded,
                }
            )
        else:
            entry.update(
                {"q": None, "n": 0, "payoff_sum": "0", "stddev": "0", "cap_exceeded": 0}
            )
        outputs["actions"][action] = entry
    inputs = {
        "pop": args.pop,
        "walks": args.walks,
        "seed": args.seed,
        "cap": args.cap,
        "workers": args.workers,
    }
    _emit(dump_canonical(_report("eval", inputs, outputs)), args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import tempfile

    from .verify import run_verification

    with tempfile.TemporaryDirectory(prefix="rollmix-verify-") as workdir:
        results = run_verification(args.seed, workdir)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name} ({r.seconds:.1f}s): {r.detail}")
    if args.out:
        outputs = {
            "results": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
        }
        _emit(dump_canonical(_report("verify", {"seed": args.seed}, outputs)), args.out)
    return 4 if failed else 0


_HANDLERS = {
    "gen": _cmd_gen,
    "mix": _cmd_mix,
    "limit": _cmd_limit,
    "orbit": _cmd_orbit,
    "eval": _cmd_eval,
    "verify": _cmd_verify,
}


def dispatch(argv: Sequence[str]) -> int:
    """Run one command; returns the exit code instead of raising SystemExit."""
    parser = _build_parser(argv)
    started = time.perf_counter()
    try:
        args = parser.parse_args(list(argv))
        code = _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"rollmix: usage error: {exc}", file=sys.stderr)
        return 1
    except SchemaSyntaxError as exc:
        print(f"rollmix: schema syntax error: {exc}", file=sys.stderr)
        return 1
    except InvalidPopulationError as exc:
        print("rollmix: invalid population:", file=sys.stderr)
        for v in exc.violations:
            print(f"  {v.kind}: {v.detail}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"rollmix: invalid input: {exc}", file=sys.stderr)
        return 2
    except OrbitCapExceeded as exc:
        print(f"rollmix: cap exceeded: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # argparse --help/--version
        return int(exc.code or 0)
    else:
        elapsed = time.perf_counter() - started
        print(f"[rollmix] {args.command} finished in {elapsed:.3f}s", file=sys.stderr)
        return code


def main() -> None:
    try:
        code = dispatch(sys.argv[1:])
    except Exception:  # dispatch maps every input error to a code; this is anything else
        import traceback
        traceback.print_exc()
        code = 5
    sys.exit(code)
