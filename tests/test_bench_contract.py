"""The benchmark's tracer must find every boundary it names in rollmix.

``bench/tracing.py`` patches functions and methods by name; a rename in
``src/`` would otherwise surface only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import rollmix.cli  # noqa: F401  (loads the modules the commands use)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(boundary):
    """The object the tracer patches: a class's method, or the function
    as the module it is patched in sees it."""
    home = importlib.import_module(f"rollmix.{boundary.module}")
    if "." in boundary.attr:
        cls_name, method = boundary.attr.split(".")
        return getattr(home, cls_name).__dict__[method]
    where = importlib.import_module(f"rollmix.{boundary.only_in}") if boundary.only_in else home
    return getattr(where, boundary.attr)


def test_every_traced_boundary_resolves_and_is_restored():
    tracing = _load_tracing()
    originals = {b.name: _resolve(b) for b in tracing.BOUNDARIES}
    recorder = tracing.Recorder()
    recorder.install()
    try:
        patched = {b.name: _resolve(b) for b in tracing.BOUNDARIES}
    finally:
        recorder.uninstall()
    assert [name for name, fn in patched.items() if fn is originals[name]] == []
    assert {b.name: _resolve(b) for b in tracing.BOUNDARIES} == originals


def test_orbit_calls_pass_through_the_traced_boundaries(capsys):
    # A refactor that routes the orbit oracle around these functions would
    # hide its cost from the per-layer metrics.
    import rollmix.recombine as recombine  # calls through its patched globals
    from rollmix.cli import dispatch
    from rollmix.fixtures import population_b
    from rollmix.model import Schema

    fixture = Path(__file__).resolve().parent / "fixtures" / "P_A.json"
    recorder = _load_tracing().Recorder()
    recorder.install()
    try:
        assert dispatch(["orbit", "--pop", str(fixture), "--schema", "alpha,1,2,f1", "--schema", "#"]) == 0
        cli_spans = [span[3] for span in recorder.spans]
        orbit = recombine.enumerate_inflated_orbit(population_b(), 2, cap=10**9)
        orbit.family_frequency(Schema("alpha", (1, 2), "f1"))
    finally:
        recorder.uninstall()
    capsys.readouterr()
    assert cli_spans.count("recombine.enumerate_orbit") == 1
    assert cli_spans.count("recombine.orbit_frequency") == 2
    inflated_spans = [span[3] for span in recorder.spans[len(cli_spans):]]
    assert inflated_spans == ["recombine.enumerate_inflated_orbit", "recombine.InflatedOrbit.family_frequency"]


def test_move_criteria_pass_through_the_chains_slot_move(monkeypatch):
    # Criteria 01 and 02 must check the move that ``mix`` runs: a refactor
    # that points them back at a copy of the moves would check code the
    # chain never runs, and the traced apply_transform would read 0.
    import rollmix.recombine as recombine
    from rollmix import verify

    slot_moves = []
    move = recombine._Slots.move
    monkeypatch.setattr(recombine._Slots, "move", lambda self, *args: slot_moves.append(args) or move(self, *args))
    recorder = _load_tracing().Recorder()
    recorder.install()
    try:
        involution = verify.check_involution_conservation(seed=5, populations=20)
        counted = recorder.totals["recombine.apply_transform"][0], len(slot_moves)
        invariance = verify.check_stat_invariance(seed=6, populations=5, steps=20)
    finally:
        recorder.uninstall()
    assert involution.passed and invariance.passed
    assert min(counted) > 0
    assert recorder.totals["recombine.apply_transform"][0] > counted[0]
    assert len(slot_moves) > counted[1]


def test_mix_runs_the_slot_move_apply_transform_runs(monkeypatch, capsys):
    # run_chain and apply_transform share one engine: a copy of the move
    # inside either would leave the other's checks on code mix never runs.
    import rollmix.recombine as recombine
    from rollmix.cli import dispatch
    from rollmix.fixtures import population_b

    callers = []
    move = recombine._Slots.move
    monkeypatch.setattr(recombine._Slots, "move", lambda self, *args: callers.append("move") or move(self, *args))
    fixture = Path(__file__).resolve().parent / "fixtures" / "P_A.json"
    assert dispatch(["mix", "--pop", str(fixture), "--steps", "200", "--schema", "#", "--seed", "1"]) == 0
    capsys.readouterr()
    mixed = len(callers)
    gens = recombine.generator_index(population_b())
    for g in gens[1:]:
        recombine.apply_transform(population_b(), g)
    assert mixed > 0
    assert len(callers) - mixed == len(gens) - 1
