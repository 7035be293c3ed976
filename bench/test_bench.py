"""The benchmark's own tests: tiny runs of every workload, and tampered reports.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import workloads  # noqa: E402
from rollmix import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric(name, trace):
    dispatch = cli.dispatch
    result, report = harness.run(name, seed=3, seconds=0.3, trace=bool(trace), tiny=True, root=ROOT)
    assert cli.dispatch is dispatch  # tracing is undone
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["error_rate"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    lines = "\n".join(harness.summary(report))
    assert all(key in lines for key in expected)


@pytest.fixture
def tiny(tmp_path):
    def make(name):
        wl = workloads.WORKLOADS[name](tmp_path, 5, True)
        wl.setup()
        return wl

    return make


def tamper_after(monkeypatch, path_of, edit):
    """Make every later command's report at path_of() come out edited."""
    run_cli = workloads.run_cli

    def tampered(argv):
        code, ns = run_cli(argv)
        path = path_of()
        if path.exists() and str(path) in argv:
            data = json.loads(path.read_text(encoding="utf-8"))
            edit(data["outputs"])
            path.write_text(json.dumps(data), encoding="utf-8")
        return code, ns

    monkeypatch.setattr(workloads, "run_cli", tampered)


def failed_ops(wl, ops=3):
    phase = harness.Phase()
    for i in range(ops):
        phase.add(harness.attempt(wl, i))
    return phase


def test_invariant_total_off_by_one_fails_the_op(tiny, monkeypatch):
    wl = tiny("mix-wide")

    def edit(out):
        first = next(iter(out["schemata"].values()))
        first["total_count"] += 1

    tamper_after(monkeypatch, lambda: wl.out, edit)
    phase = failed_ops(wl)
    assert phase.failed == 3
    assert "mix:" in phase.problems[0]


def test_orbit_size_off_by_one_fails_the_op(tiny, monkeypatch):
    wl = tiny("orbit-oracle")

    def edit(out):
        out["orbit_size"] += 1

    tamper_after(monkeypatch, lambda: wl.out, edit)
    phase = failed_ops(wl, wl.segment)
    assert phase.failed == wl.segment - 1  # every orbit op; the inflated op writes no report


def test_broken_flow_or_walk_count_fails_the_op(tiny, monkeypatch):
    wl = tiny("sample-eval")

    def edit_limit(out):
        key = next(k for k in out["frequencies"] if k.count(",") == 1)
        out["frequencies"][key] = "0"

    tamper_after(monkeypatch, lambda: wl.limit, edit_limit)
    assert failed_ops(wl, 1).failed == 1

    monkeypatch.undo()
    wl = tiny("sample-eval")

    def edit_eval(out):
        next(iter(out["actions"].values()))["n"] -= 1

    tamper_after(monkeypatch, lambda: wl.eval, edit_eval)
    assert failed_ops(wl, 1).failed == 1


def test_command_prints_result_as_last_line():
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mix-loop", "--seed", "2", "--seconds", "0.2",
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mix-loop", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
