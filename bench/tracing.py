"""Span recorder for calls into rollmix, installed from the benchmark's side.

``Recorder.install`` replaces each boundary function listed in BOUNDARIES by
a timing wrapper: in every loaded ``rollmix`` module whose globals name the
function, and on the class for methods.  Calls made inside the package
therefore pass through the wrapper too, and the package's sources stay as
they are.  ``uninstall`` puts the originals back.

Two kinds of boundary:

* span boundaries keep one span per call: id, parent span id, op id, name,
  start, end and self time (the span minus the time its wrapped children
  took, tracer bookkeeping included);
* per-step boundaries (``schema_count``, ``apply_transform``,
  ``TransformDistribution.sample``, ``walk``), called once per chain step
  or walk, only add to a call count and total time.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable, NamedTuple

from rollmix.recombine import OrbitCapExceeded

Observer = Callable[["Recorder", tuple, Any], None]


def _apply_transform(rec: "Recorder", args: tuple, result: Any) -> None:
    if not isinstance(result, BaseException):
        rec.counts["moves"] += 1
        rec.counts["useful_moves"] += result != args[0]


def _from_population(rec: "Recorder", args: tuple, result: Any) -> None:
    if not isinstance(result, BaseException):
        rec.counts["generators"] += len(result.generators)


def _enumerate_orbit(rec: "Recorder", args: tuple, result: Any) -> None:
    if isinstance(result, OrbitCapExceeded):
        rec.counts["orbit_cap_hits"] += 1
    elif not isinstance(result, BaseException):
        rec.counts["orbit_classes"] += result.n_classes


def _enumerate_inflated_orbit(rec: "Recorder", args: tuple, result: Any) -> None:
    if not isinstance(result, BaseException):
        rec.counts["inflated_classes"] += result.n_classes


def _walk(rec: "Recorder", args: tuple, result: Any) -> None:
    if not isinstance(result, BaseException):
        rec.counts["walk_steps"] += result.steps


def _evaluate_actions(rec: "Recorder", args: tuple, result: Any) -> None:
    if not isinstance(result, BaseException):
        rec.counts["eval_cap_exceeded"] += sum(ev.cap_exceeded for ev in result.per_action.values())


def _exact_expected_payoff(rec: "Recorder", args: tuple, result: Any) -> None:
    # Size of the solved system: class nodes reachable from the action.
    graph, action = args[0], args[1]
    seen = {("action", action)}
    frontier = list(seen)
    while frontier:
        for dst in graph.weights.get(frontier.pop(), {}):
            if dst not in seen:
                seen.add(dst)
                frontier.append(dst)
    rec.counts["solve_classes"] += sum(1 for kind, _ in seen if kind == "class")


def _load_population(rec: "Recorder", args: tuple, result: Any) -> None:
    try:
        rec.counts["bytes_read"] += os.path.getsize(args[0])
    except OSError:
        pass


def _dump_canonical(rec: "Recorder", args: tuple, result: Any) -> None:
    if isinstance(result, str):
        rec.counts["bytes_written"] += len(result.encode("utf-8"))


class Boundary(NamedTuple):
    module: str  # home module under rollmix
    attr: str  # function name, or Class.method
    per_step: bool = False
    observe: Observer | None = None
    only_in: str | None = None  # patch this module's global only

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


BOUNDARIES = (
    Boundary("cli", "dispatch"),
    Boundary("fileio", "load_population", observe=_load_population),
    Boundary("fileio", "dump_canonical", observe=_dump_canonical),
    Boundary("model", "validate_population", only_in="fileio"),
    Boundary("model", "schema_count", per_step=True),
    Boundary("envsim", "make_random_pomdp"),
    Boundary("envsim", "generate_population"),
    Boundary("stats", "down_report"),
    Boundary("stats", "limiting_frequency_from_report", per_step=True),
    Boundary("recombine", "run_chain"),
    Boundary("recombine", "apply_transform", per_step=True, observe=_apply_transform),
    Boundary("recombine", "TransformDistribution.sample", per_step=True),
    Boundary("recombine", "TransformDistribution.from_population", observe=_from_population),
    Boundary("recombine", "enumerate_orbit", observe=_enumerate_orbit),
    Boundary("recombine", "orbit_frequency"),
    Boundary("recombine", "enumerate_inflated_orbit", observe=_enumerate_inflated_orbit),
    Boundary("recombine", "InflatedOrbit.family_frequency"),
    Boundary("digraph", "build_digraph"),
    Boundary("digraph", "evaluate_actions", observe=_evaluate_actions),
    Boundary("digraph", "walk", per_step=True, observe=_walk),
    Boundary("digraph", "exact_expected_payoff", observe=_exact_expected_payoff),
)


class Recorder:
    """Call counts, times and spans at the boundaries, kept in memory."""

    def __init__(self) -> None:
        self.totals: dict[str, list[int]] = {b.name: [0, 0, 0] for b in BOUNDARIES}  # calls, ns, self ns
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple] = []
        self.op = 0  # id shared by the spans of one op
        self._stack: list[list[int]] = []  # open spans: [span id, ns of wrapped children]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, b: Boundary, fn: Callable) -> Callable:
        totals = self.totals[b.name]
        stack = self._stack
        observe = b.observe
        clock = time.perf_counter_ns

        if b.per_step:

            def step_wrapper(*args, **kwargs):
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    result = exc
                    raise
                finally:
                    ns = clock() - start
                    totals[0] += 1
                    totals[1] += ns
                    totals[2] += ns
                    if observe is not None:
                        observe(self, args, result)
                    if stack:
                        stack[-1][1] += clock() - start
                return result

            return step_wrapper

        def span_wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0]
            parent = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                result = exc
                raise
            finally:
                end = clock()
                stack.pop()
                self_ns = end - start - frame[1]
                totals[0] += 1
                totals[1] += end - start
                totals[2] += self_ns
                self.spans.append((frame[0], parent, self.op, b.name, start, end, self_ns))
                if observe is not None:
                    observe(self, args, result)
                if stack:
                    stack[-1][1] += clock() - start
            return result

        return span_wrapper

    def install(self) -> None:
        loaded = [m for name, m in list(sys.modules.items()) if name == "rollmix" or name.startswith("rollmix.")]
        for b in BOUNDARIES:
            home = importlib.import_module(f"rollmix.{b.module}")
            if "." in b.attr:
                cls_name, method = b.attr.split(".")
                cls = getattr(home, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    setattr(cls, method, classmethod(self._wrap(b, raw.__func__)))
                else:
                    setattr(cls, method, self._wrap(b, raw))
                self._restore.append((cls, method, raw))
                continue
            original = getattr(home, b.attr)
            wrapper = self._wrap(b, original)
            targets = [importlib.import_module(f"rollmix.{b.only_in}")] if b.only_in else loaded
            for module in targets:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def write_spans(self, path: Path) -> None:
        """One JSON line per span: id, parent, op, name, start/end ns, self ns."""
        keys = ("id", "parent", "op", "name", "start_ns", "end_ns", "self_ns")
        with path.open("w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")

    def layer_metrics(self, ops: int) -> dict[str, tuple[float, str]]:
        """Every per-layer metric, by name, as (value, unit).

        ``calls`` and byte counts are per op; ``us``/``ms`` are means per
        call; cap counts are totals over the traced ops.  A boundary that
        was never called reads 0.
        """
        t, c = self.totals, self.counts

        def calls(name: str) -> int:
            return t[name][0]

        def mean(name: str, scale: float, index: int = 1) -> float:
            return t[name][index] / t[name][0] / scale if t[name][0] else 0.0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        walks = calls("digraph.walk")
        return {
            "model.schema_count.calls": (ratio(calls("model.schema_count"), ops), "count"),
            "model.schema_count.us": (mean("model.schema_count", 1e3), "us"),
            "recombine.apply_transform.calls": (ratio(calls("recombine.apply_transform"), ops), "count"),
            "recombine.apply_transform.us": (mean("recombine.apply_transform", 1e3), "us"),
            "recombine.TransformDistribution.sample.us": (mean("recombine.TransformDistribution.sample", 1e3), "us"),
            "recombine.run_chain.self_ms": (mean("recombine.run_chain", 1e6, 2), "ms"),
            "recombine.chain.useful_move_ratio": (ratio(c["useful_moves"], c["moves"]), "ratio"),
            "recombine.TransformDistribution.from_population.ms": (
                mean("recombine.TransformDistribution.from_population", 1e6), "ms"),
            "recombine.generators": (
                ratio(c["generators"], calls("recombine.TransformDistribution.from_population")), "count"),
            "recombine.enumerate_orbit.ms": (mean("recombine.enumerate_orbit", 1e6), "ms"),
            "recombine.enumerate_orbit.classes": (
                ratio(c["orbit_classes"], calls("recombine.enumerate_orbit") - c["orbit_cap_hits"]), "count"),
            "recombine.enumerate_orbit.us_per_class": (
                ratio(t["recombine.enumerate_orbit"][1] / 1e3, c["orbit_classes"]), "us"),
            "recombine.orbit.cap_hits": (c["orbit_cap_hits"], "count"),
            "recombine.orbit_frequency.ms": (mean("recombine.orbit_frequency", 1e6), "ms"),
            "recombine.enumerate_inflated_orbit.ms": (mean("recombine.enumerate_inflated_orbit", 1e6), "ms"),
            "recombine.enumerate_inflated_orbit.classes": (
                ratio(c["inflated_classes"], calls("recombine.enumerate_inflated_orbit")), "count"),
            "recombine.InflatedOrbit.family_frequency.ms": (mean("recombine.InflatedOrbit.family_frequency", 1e6), "ms"),
            "digraph.walk.calls": (ratio(walks, ops), "count"),
            "digraph.walk.us": (mean("digraph.walk", 1e3), "us"),
            "digraph.walk.steps_mean": (ratio(c["walk_steps"], walks), "steps"),
            "digraph.evaluate_actions.self_us_per_walk": (
                ratio(t["digraph.evaluate_actions"][2] / 1e3, walks), "us"),
            "digraph.evaluate_actions.cap_exceeded": (c["eval_cap_exceeded"], "count"),
            "digraph.build_digraph.ms": (mean("digraph.build_digraph", 1e6), "ms"),
            "digraph.exact_expected_payoff.ms": (mean("digraph.exact_expected_payoff", 1e6), "ms"),
            "digraph.exact_expected_payoff.classes": (
                ratio(c["solve_classes"], calls("digraph.exact_expected_payoff")), "count"),
            "stats.down_report.ms": (mean("stats.down_report", 1e6), "ms"),
            "stats.limiting_frequency_from_report.us": (mean("stats.limiting_frequency_from_report", 1e3), "us"),
            "fileio.load_population.ms": (mean("fileio.load_population", 1e6), "ms"),
            "model.validate_population.ms": (mean("model.validate_population", 1e6), "ms"),
            "fileio.dump_canonical.ms": (mean("fileio.dump_canonical", 1e6), "ms"),
            "fileio.bytes_read": (ratio(c["bytes_read"], ops), "bytes"),
            "fileio.bytes_written": (ratio(c["bytes_written"], ops), "bytes"),
            "envsim.make_random_pomdp.ms": (mean("envsim.make_random_pomdp", 1e6), "ms"),
            "envsim.generate_population.ms": (mean("envsim.generate_population", 1e6), "ms"),
            "cli.dispatch.self_ms": (mean("cli.dispatch", 1e6, 2), "ms"),
        }
