"""Measurement loop, metrics and report of one benchmark run.

A run sets its workload up SETUP_REPEATS times (setup_s is the median),
runs one warm-up segment, then runs ops in a closed loop with one client
until its time is up.  With tracing off it reports the end-to-end metrics;
with tracing on, untraced and traced segments alternate, and it reports
the per-layer metrics plus the tracing overhead between the two.
"""

from __future__ import annotations

import importlib.metadata
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Recorder
from workloads import WORKLOADS, OpResult, Workload

SETUP_REPEATS = 3
# The tail is the highest of these percentiles with at least 10 ops beyond it;
# whole percentiles below 95 keep it from jumping when the op count moves a little.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0) + tuple(float(p) for p in range(95, 49, -1))


@dataclass
class Phase:
    ns: list[int] = field(default_factory=list)
    work: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, result: OpResult) -> None:
        self.ns.append(result.ns)
        self.work += result.work
        if result.problems:
            self.failed += 1
            self.problems.extend(result.problems)


def attempt(wl: Workload, i: int) -> OpResult:
    start = time.perf_counter_ns()
    try:
        return wl.op(i)
    except Exception as exc:  # a broken op is a failed op; the run goes on
        return OpResult(time.perf_counter_ns() - start, 0, [f"op {i}: {type(exc).__name__}: {exc}"])


def run_segment(wl: Workload, start: int, phase: Phase, recorder: Recorder | None = None) -> int:
    """One segment of ops, traced when a recorder is given; returns the next op index."""
    if recorder is not None:
        recorder.install()
    try:
        for i in range(start, start + wl.segment):
            if recorder is not None:
                recorder.op = i
            phase.add(attempt(wl, i))
    finally:
        if recorder is not None:
            recorder.uninstall()
    return start + wl.segment


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, ops beyond it) by nearest rank, per TAIL_LADDER."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100 * n)
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return 100.0, ordered[-1], 0


def cold_start(root: Path) -> None:
    """Import the package in a fresh interpreter, as every ``rollmix`` command does."""
    code = f"import sys; sys.path.insert(0, {str(root / 'src')!r}); import rollmix.cli"
    subprocess.run([sys.executable, "-c", code], cwd=root, check=True, timeout=120)


def machine() -> dict[str, object]:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    info: dict[str, object] = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
    }
    for package in ("numpy", "scipy"):
        try:
            info[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            info[package] = "absent"
    return info


def latency_metrics(phase: Phase) -> dict[str, tuple[float, str]]:
    lat_ms = [ns / 1e6 for ns in phase.ns]
    busy_s = sum(phase.ns) / 1e9
    return {
        "op_tail_ms": (tail(lat_ms)[1], "ms"),
        "ops_per_s": (len(lat_ms) / busy_s, "1/s"),
        "work_per_s": (phase.work / busy_s, "1/s"),
    }


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool, root: Path) -> tuple[dict, dict]:
    """One run; returns (the result line, the full report)."""
    out_dir = root / ".bench_work"
    workdir = out_dir / f"{name}-seed{seed}-pid{os.getpid()}"
    setup_s = []
    try:
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            wl = WORKLOADS[name](workdir, seed, tiny)
            start = time.perf_counter()
            cold_start(root)
            wl.setup()
            setup_s.append(time.perf_counter() - start)

        warmup = Phase()
        for i in range(wl.segment):
            warmup.add(attempt(wl, i))
        wl.after_warmup()

        # With tracing, untraced and traced segments alternate, so both halves
        # see the same machine conditions and their difference is the overhead.
        measured = Phase()
        recorder = Recorder() if trace else None
        traced = Phase()
        i = wl.segment
        deadline = time.perf_counter() + seconds
        while True:
            i = run_segment(wl, i, measured)
            if recorder is not None:
                i = run_segment(wl, i, traced, recorder)
            if time.perf_counter() >= deadline:
                break
        phases = [warmup, measured, traced]
        if recorder is not None:
            p50 = [statistics.median(p.ns) / 1e6 for p in (measured, traced)]
            metrics = recorder.layer_metrics(len(traced.ns))
            metrics.update({
                "trace.untraced_op_p50_ms": (p50[0], "ms"),
                "trace.traced_op_p50_ms": (p50[1], "ms"),
                "trace.overhead": (p50[1] / p50[0], "ratio"),
            })
            reported = traced
        else:
            reported = measured
            metrics = {"setup_s": (statistics.median(setup_s), "s")}
            metrics.update(latency_metrics(measured))
            metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        run_problems = wl.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.ns) for p in phases)
    failed = sum(p.failed for p in phases)
    problems = [msg for p in phases for msg in p.problems] + run_problems
    result = {
        "correct": failed == 0 and not run_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    lat_ms = [ns / 1e6 for ns in reported.ns]
    pct, _, beyond = tail(lat_ms)
    size = dict(wl.size, work_per_op=reported.work / len(reported.ns))
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": "tiny" if tiny else "full",
        "machine": machine(),
        "input_size": size,
        "work_unit": wl.work_unit,
        "ops_measured": len(lat_ms),
        "op_p50_ms": statistics.median(lat_ms),
        "tail_percentile": pct,
        "tail_ops_beyond": beyond,
        "error_rate": failed / attempted,
        "setup_s_each": setup_s,
        "problems": problems[:20],
        **result,
    }
    stages = getattr(wl, "stage_ns", None)
    if stages:
        report["stage_p50_ms"] = {k: statistics.median(v) / 1e6 for k, v in stages.items() if v}
    out_dir.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (out_dir / f"report-{stem}.json").write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    if recorder is not None:
        recorder.write_spans(out_dir / f"spans-{stem}.jsonl")
    return result, report


def summary(report: dict) -> list[str]:
    """Human-readable lines: machine, input size, every metric with its unit."""
    lines = [
        f"workload {report['workload']}  seed {report['seed']}  seconds {report['seconds']}"
        f"  trace {report['trace']}  size {report['size']}",
        "machine " + " ".join(f"{k}={v}" for k, v in report["machine"].items()),
        "input " + " ".join(f"{k}={v}" for k, v in report["input_size"].items()),
        f"ops {report['ops_measured']} measured; tail = p{report['tail_percentile']:g}"
        f" ({report['tail_ops_beyond']} ops beyond it)",
        f"  {'op_p50_ms':<52} {report['op_p50_ms']:>14.6g} ms",
    ]
    for key, m in report["metrics"].items():
        lines.append(f"  {key:<52} {m['value']:>14.6g} {m['unit']}")
        if key == "work_per_s":
            lines.append(f"  {'  = ' + report['work_unit']:<52} {m['value']:>14.6g} {m['unit']}")
    for stage, ms in report.get("stage_p50_ms", {}).items():
        lines.append(f"  {'stage ' + stage + '_p50_ms':<52} {ms:>14.6g} ms")
    lines.append(
        f"  {'error_rate':<52} {report['error_rate']:>14.6g}"
        f"  ({report['failed']} of {report['attempted']} ops failed)"
    )
    lines.extend(f"  problem: {p}" for p in report["problems"])
    return lines
