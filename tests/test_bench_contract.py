"""The benchmark's tracer must find every boundary it names in rollmix.

``bench/tracing.py`` patches functions and methods by name; a rename in
``src/`` would otherwise surface only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import rollmix.cli  # noqa: F401  (loads every module the tracer patches)

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
