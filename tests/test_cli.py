import argparse
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rollmix import __version__
from rollmix import digraph as dg
from rollmix.cli import _HANDLERS, UsageError, _build_parser, dispatch
from rollmix.digraph import build_digraph, exact_expected_payoff
from rollmix.fileio import dump_canonical, save_population
from rollmix.model import Rollout, state, tag_symbol, validate_population
from rollmix.verify import CheckResult

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_import_loads_neither_numpy_nor_scipy():
    # rollmix runs on the standard library alone, and every command pays
    # for what its imports load in start-up time and memory.  Every module
    # is imported, ``verify`` and ``fixtures`` included (``__main__`` would
    # run the CLI).
    probe = (
        "import importlib, pkgutil, sys, rollmix\n"
        "for m in pkgutil.iter_modules(rollmix.__path__):\n"
        "    if m.name != '__main__':\n"
        "        importlib.import_module('rollmix.' + m.name)\n"
        "assert {'rollmix.verify', 'rollmix.fixtures'} <= set(sys.modules)\n"
        "print(sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'}))"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def _fresh_python(code):
    """Run code in a fresh interpreter that imports rollmix from src/; returns its stdout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True, timeout=60).stdout


def _rollmix_modules():
    import pkgutil

    import rollmix

    return sorted(m.name for m in pkgutil.iter_modules(rollmix.__path__) if m.name != "__main__")


def test_package_import_loads_no_module():
    # Each name lives in the module that defines it; the package re-exports none.
    probe = "import sys, rollmix\nprint(sorted(m for m in sys.modules if m.startswith('rollmix.')))"
    assert _fresh_python(probe).strip() == "[]"


@pytest.mark.parametrize("module", _rollmix_modules())
def test_every_module_imports_alone(module):
    # An import cycle shows only when a module is the first one imported.
    assert _fresh_python(f"import rollmix.{module}; print('ok')").strip() == "ok"


def test_commands_load_only_what_they_run(tmp_path):
    # orbit, mix, limit and eval need neither the environment simulator nor
    # the acceptance suite; gen imports the simulator when it runs.
    env = tmp_path / "env.json"
    env.write_text(json.dumps(GEN_CONFIG), encoding="utf-8")
    pop = str(FIXTURES / "P_A.json")
    commands = [
        ["orbit", "--pop", pop, "--schema", "#"],
        ["mix", "--pop", pop, "--steps", "5", "--seed", "1", "--schema", "#"],
        ["limit", "--pop", pop, "--schema", "#"],
        ["eval", "--pop", pop, "--walks", "5", "--seed", "1"],
    ]
    probe = (
        "import contextlib, io, json, sys\n"
        "from rollmix.cli import dispatch\n"
        "watched = ['rollmix.envsim', 'rollmix.verify', 'rollmix.fixtures']\n"
        "loaded = lambda: [m for m in watched if m in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [dispatch(argv) for argv in {commands!r}]\n"
        "    before_gen = loaded()\n"
        f"    codes.append(dispatch(['gen', '--env', {str(env)!r}, '--seed', '1']))\n"
        "print(json.dumps([codes, before_gen, loaded()]))"
    )
    codes, before_gen, after_gen = json.loads(_fresh_python(probe))
    assert codes == [0] * 5
    assert before_gen == []
    assert after_gen == ["rollmix.envsim"]


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "limit", "--nope")
        assert code == 1
        assert "usage error" in err

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 1

    def test_schema_syntax_error(self, capsys):
        code, _, err = run(
            capsys, "limit", "--pop", str(FIXTURES / "P_A.json"), "--schema", "alpha,1,2"
        )
        assert code == 1
        assert "schema syntax" in err

    # str.isdigit accepts these; int() rejects the first and reads the
    # others as 1.
    @pytest.mark.parametrize("token", ["\u00b2", "\u0661", "\uff11"])
    def test_non_ascii_digit_class_is_schema_syntax_error(self, capsys, token):
        code, _, err = run(
            capsys, "limit", "--pop", str(FIXTURES / "P_A.json"), "--schema", f"alpha,{token},#"
        )
        assert code == 1
        assert err.startswith("rollmix: schema syntax error: bad class token")
        assert repr(token) in err

    # Past CPython's int-to-str digit limit int() raises a plain ValueError.
    @pytest.mark.parametrize("flag", ["--schema", "--schemata-file"])
    def test_over_long_class_token_is_schema_syntax_error(self, capsys, tmp_path, flag):
        schema = "alpha,1" + "0" * 4999 + ",#"
        if flag == "--schemata-file":
            path = tmp_path / "schemata.txt"
            path.write_text(f"alpha,1,#\n{schema}\n", encoding="utf-8")
            schema = str(path)
        code, _, err = run(capsys, "limit", "--pop", str(FIXTURES / "P_A.json"), flag, schema)
        assert code == 1
        assert err.startswith("rollmix: schema syntax error: bad class token")
        assert err.count("\n") == 1

    def test_invalid_population_lists_violations(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"rollouts": ['
            '{"action": "a", "states": [[1, "a", 0]], "terminal": "f1"},'
            '{"action": "b", "states": [[1, "a", 0]], "terminal": "f1"}]}',
            encoding="utf-8",
        )
        code, _, err = run(
            capsys, "mix", "--pop", str(bad), "--steps", "5", "--schema", "#", "--seed", "1"
        )
        assert code == 2
        assert "DuplicateState" in err and "DuplicateTerminal" in err

    def test_orbit_cap_exit_code(self, capsys):
        code, _, err = run(
            capsys, "orbit", "--pop", str(FIXTURES / "P_A.json"),
            "--schema", "#", "--cap", "10",
        )
        assert code == 3
        assert "cap exceeded" in err

    def test_malformed_json_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "trunc.json"
        bad.write_text('{"rollouts": [', encoding="utf-8")
        code, _, err = run(capsys, "limit", "--pop", str(bad), "--schema", "#")
        assert code == 2
        assert "invalid input" in err

    def test_identity_prob_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "mix", "--pop", str(FIXTURES / "P_A.json"), "--steps", "5",
            "--schema", "#", "--seed", "1", "--identity-prob", "1.5",
        )
        assert code == 1
        assert "usage error" in err

    def test_negative_steps(self, capsys):
        code, _, err = run(
            capsys, "mix", "--pop", str(FIXTURES / "P_A.json"), "--steps", "-3",
            "--schema", "#", "--seed", "1",
        )
        assert code == 1

    def test_negative_walks(self, capsys):
        code, _, err = run(
            capsys, "eval", "--pop", str(FIXTURES / "P_B.json"),
            "--walks", "-1", "--seed", "1",
        )
        assert code == 1

    @pytest.mark.parametrize("flags, message", [
        (["--steps", "-3"], "steps must be >= 0"),
        (["--steps", "5", "--identity-prob", "nan"], "identity probability must lie in (0, 1)"),
    ])
    def test_mix_flag_errors_keep_their_text(self, capsys, flags, message):
        code, _, err = run(capsys, "mix", "--pop", str(FIXTURES / "P_A.json"), "--schema", "#", "--seed", "1", *flags)
        assert code == 1
        assert err == f"rollmix: usage error: {message}\n"

    # No file or flag can raise the digraph's own errors: every action of a
    # loaded population has an out-edge, every class reaches its rollout's
    # terminal, and no command calls walk.
    @pytest.mark.parametrize("error", [ValueError, dg.NoData, dg.Unsolvable, dg.CapExceeded])
    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch, error):
        # An error raised inside a command is a bug in rollmix, not a mistake
        # in the user's input: it must not be reported as a user error.
        def broken(args):
            raise error("internal")

        monkeypatch.setitem(_HANDLERS, "limit", broken)
        with pytest.raises(error, match="internal"):
            dispatch(["limit", "--pop", str(FIXTURES / "P_A.json"), "--schema", "#"])

    def test_main_exits_five_with_a_traceback_on_an_internal_error(self):
        probe = (
            "import sys\n"
            "from rollmix import cli\n"
            "def broken(args):\n"
            "    raise RuntimeError('internal')\n"
            "cli._HANDLERS['limit'] = broken\n"
            f"sys.argv = ['rollmix', 'limit', '--pop', {str(FIXTURES / 'P_A.json')!r}, '--schema', '#']\n"
            "cli.main()\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        done = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 5
        assert "Traceback (most recent call last):" in done.stderr
        assert done.stderr.endswith("RuntimeError: internal\n")

    def test_payoff_exponent_past_the_bound_is_input_error(self, capsys, tmp_path):
        data = json.loads((FIXTURES / "P_A.json").read_text(encoding="utf-8"))
        data["payoffs"]["f1"] = "1e5000"
        pop = tmp_path / "pop.json"
        pop.write_text(json.dumps(data), encoding="utf-8")
        code, _, err = run(capsys, "limit", "--pop", str(pop), "--schema", "#")
        assert code == 2
        assert "bad rational '1e5000'" in err


GOLDEN_SCHEMATA = [
    "#", "alpha,#", "beta,#", "alpha,1,#", "alpha,1,2,#", "alpha,1,2,f1",
    "alpha,1,f2", "beta,2,1,f2", "beta,1,2,1,#", "omega,#",
]

GOLDEN_LIMIT = {
    "P_A": {
        "frequencies": {
            "#": "1", "alpha,#": "2/3", "beta,#": "1/3", "alpha,1,#": "2/3",
            "alpha,1,2,#": "2/3", "alpha,1,2,f1": "2/9", "alpha,1,f2": "0",
            "beta,2,1,f2": "0", "beta,1,2,1,#": "0", "omega,#": "0",
        },
        "down_report": {
            "b": 3,
            "actions": {
                "alpha": {"classes": {"1": 2}, "terminals": []},
                "beta": {"classes": {"1": 1}, "terminals": []},
            },
            "classes": {
                "1": {"classes": {"2": 3}, "terminals": [], "terminal_count": 0, "occurrences": 3},
                "2": {
                    "classes": {},
                    "terminals": ["f1", "f2", "f3"],
                    "terminal_count": 3,
                    "occurrences": 3,
                },
            },
        },
    },
    "P_B": {
        "frequencies": {
            "#": "1", "alpha,#": "1/2", "beta,#": "1/2", "alpha,1,#": "1/2",
            "alpha,1,2,#": "1/4", "alpha,1,2,f1": "1/8", "alpha,1,f2": "1/4",
            "beta,2,1,f2": "1/8", "beta,1,2,1,#": "0", "omega,#": "0",
        },
        "down_report": {
            "b": 2,
            "actions": {
                "alpha": {"classes": {"1": 1}, "terminals": []},
                "beta": {"classes": {"2": 1}, "terminals": []},
            },
            "classes": {
                "1": {"classes": {"2": 1}, "terminals": ["f2"], "terminal_count": 1, "occurrences": 2},
                "2": {"classes": {"1": 1}, "terminals": ["f1"], "terminal_count": 1, "occurrences": 2},
            },
        },
    },
}


class TestLimit:
    def test_pinned_frequency_in_report(self, capsys):
        code, out, _ = run(
            capsys, "limit", "--pop", str(FIXTURES / "P_A.json"),
            "--schema", "alpha,1,2,f1",
        )
        assert code == 0
        report = json.loads(out)
        assert report["outputs"]["frequencies"]["alpha,1,2,f1"] == "2/9"
        assert report["outputs"]["down_report"]["b"] == 3

    def test_schemata_file_with_byte_order_mark(self, capsys, tmp_path):
        path = tmp_path / "schemata.txt"
        path.write_bytes(b"\xef\xbb\xbfalpha,1,#\nalpha,#\n")
        code, out, _ = run(
            capsys, "limit", "--pop", str(FIXTURES / "P_A.json"), "--schemata-file", str(path)
        )
        assert code == 0
        assert json.loads(out)["outputs"]["frequencies"] == {"alpha,1,#": "2/3", "alpha,#": "2/3"}

    def test_multiple_schemata(self, capsys):
        code, out, _ = run(
            capsys, "limit", "--pop", str(FIXTURES / "P_B.json"),
            "--schema", "alpha,1,2,f1", "--schema", "#",
        )
        assert code == 0
        freqs = json.loads(out)["outputs"]["frequencies"]
        assert freqs == {"alpha,1,2,f1": "1/8", "#": "1"}

    @pytest.mark.parametrize("fixture", ["P_A", "P_B"])
    def test_golden_report(self, capsys, fixture):
        # The whole report, byte for byte: frequencies of every schema kind
        # and the succession counts read off the digraph.
        pop = str(FIXTURES / f"{fixture}.json")
        argv = ["limit", "--pop", pop]
        for text in GOLDEN_SCHEMATA:
            argv += ["--schema", text]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        expected = {
            "command": "limit",
            "tool": {"name": "rollmix", "version": __version__},
            "inputs": {"pop": pop},
            "outputs": GOLDEN_LIMIT[fixture],
        }
        assert out == dump_canonical(expected)


MIX_GOLDEN_SCHEMATA = [
    "#", "alpha,#", "beta,#", "omega,#", "alpha,1,#", "alpha,1,2,#", "beta,2,#", "beta,1,2,#",
    "beta,1,2,1,#", "alpha,1,2,f1", "alpha,1,2,f2", "alpha,1,f2", "beta,2,1,f2", "beta,1,2,f3",
]

# (total count, phi) per schema after 5,000 steps; the counts cover 5,001
# populations, so the denominator is 5,001 b.
GOLDEN_MIX = {
    ("P_A", 11): {
        "#": (15003, "1"), "alpha,#": (10002, "0.666666666667"),
        "alpha,1,#": (10002, "0.666666666667"), "alpha,1,2,#": (10002, "0.666666666667"),
        "alpha,1,2,f1": (3344, "0.222888755582"), "alpha,1,2,f2": (3289, "0.219222822102"),
        "alpha,1,f2": (0, "0"), "beta,#": (5001, "0.333333333333"),
        "beta,1,2,#": (5001, "0.333333333333"), "beta,1,2,1,#": (0, "0"),
        "beta,1,2,f3": (1632, "0.108778244351"), "beta,2,#": (0, "0"),
        "beta,2,1,f2": (0, "0"), "omega,#": (0, "0"),
    },
    ("P_A", 12): {
        "#": (15003, "1"), "alpha,#": (10002, "0.666666666667"),
        "alpha,1,#": (10002, "0.666666666667"), "alpha,1,2,#": (10002, "0.666666666667"),
        "alpha,1,2,f1": (3424, "0.228221022462"), "alpha,1,2,f2": (3193, "0.212824101846"),
        "alpha,1,f2": (0, "0"), "beta,#": (5001, "0.333333333333"),
        "beta,1,2,#": (5001, "0.333333333333"), "beta,1,2,1,#": (0, "0"),
        "beta,1,2,f3": (1616, "0.107711790975"), "beta,2,#": (0, "0"),
        "beta,2,1,f2": (0, "0"), "omega,#": (0, "0"),
    },
    ("P_B", 11): {
        "#": (10002, "1"), "alpha,#": (5001, "0.5"), "alpha,1,#": (5001, "0.5"),
        "alpha,1,2,#": (3326, "0.332533493301"), "alpha,1,2,f1": (1685, "0.168466306739"),
        "alpha,1,2,f2": (0, "0"), "alpha,1,f2": (1675, "0.167466506699"), "beta,#": (5001, "0.5"),
        "beta,1,2,#": (0, "0"), "beta,1,2,1,#": (0, "0"), "beta,1,2,f3": (0, "0"),
        "beta,2,#": (5001, "0.5"), "beta,2,1,f2": (1685, "0.168466306739"), "omega,#": (0, "0"),
    },
    ("P_B", 12): {
        "#": (10002, "1"), "alpha,#": (5001, "0.5"), "alpha,1,#": (5001, "0.5"),
        "alpha,1,2,#": (3381, "0.338032393521"), "alpha,1,2,f1": (1623, "0.162267546491"),
        "alpha,1,2,f2": (0, "0"), "alpha,1,f2": (1620, "0.161967606479"), "beta,#": (5001, "0.5"),
        "beta,1,2,#": (0, "0"), "beta,1,2,1,#": (0, "0"), "beta,1,2,f3": (0, "0"),
        "beta,2,#": (5001, "0.5"), "beta,2,1,f2": (1623, "0.162267546491"), "omega,#": (0, "0"),
    },
}


class TestMix:
    @pytest.mark.parametrize("fixture,seed", sorted(GOLDEN_MIX))
    def test_golden_report(self, capsys, fixture, seed):
        # The whole report, byte for byte: a seed fixes the chain's
        # trajectory, so its counts are pinned exactly.
        pop = str(FIXTURES / f"{fixture}.json")
        argv = ["mix", "--pop", pop, "--steps", "5000", "--seed", str(seed)]
        for text in MIX_GOLDEN_SCHEMATA:
            argv += ["--schema", text]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        b = {"P_A": 3, "P_B": 2}[fixture]
        expected = {
            "command": "mix",
            "tool": {"name": "rollmix", "version": __version__},
            "inputs": {"pop": pop, "steps": 5000, "seed": seed, "identity_prob": 0.01},
            "outputs": {
                "b": b,
                "steps": 5000,
                "schemata": {
                    text: {"total_count": total, "denominator": b * 5001, "phi": phi}
                    for text, (total, phi) in GOLDEN_MIX[fixture, seed].items()
                },
            },
        }
        assert out == dump_canonical(expected)

    def test_exact_invariant_schema(self, capsys):
        code, out, _ = run(
            capsys, "mix", "--pop", str(FIXTURES / "P_A.json"), "--steps", "400",
            "--schema", "alpha,1,#", "--seed", "3",
        )
        assert code == 0
        entry = json.loads(out)["outputs"]["schemata"]["alpha,1,#"]
        assert entry["total_count"] == 2 * 401
        assert entry["denominator"] == 3 * 401

    def test_seed_required(self, capsys):
        code, _, err = run(
            capsys, "mix", "--pop", str(FIXTURES / "P_A.json"), "--steps", "5",
            "--schema", "#",
        )
        assert code == 1
        assert "--seed" in err


# Every schema kind the slot matcher tells apart: the root, #-tails of
# every height up to one past the longest reachable rollout, terminal
# tails (height 0 included), an unknown action and an unknown terminal.
ORBIT_GOLDEN_SCHEMATA = [
    "#", "alpha,#", "beta,#", "omega,#", "alpha,1,#", "beta,1,#", "beta,2,#", "alpha,1,2,#",
    "beta,2,1,#", "alpha,1,2,1,#", "beta,2,1,2,#", "alpha,1,2,1,2,#", "beta,2,1,2,1,#", "alpha,f1",
    "alpha,1,f2", "alpha,1,2,f1", "alpha,1,2,f2", "beta,2,1,f2", "beta,1,2,f3", "beta,2,1,2,f1",
    "omega,1,f1", "alpha,1,2,f9",
]

GOLDEN_ORBIT = {
    "P_A": {
        "orbit_size": 216, "canonical_classes": 6, "fiber": 36,
        "frequencies": {
            "#": "1", "alpha,#": "2/3", "alpha,1,#": "2/3", "alpha,1,2,#": "2/3", "alpha,1,2,1,#": "0",
            "alpha,1,2,1,2,#": "0", "alpha,1,2,f1": "2/9", "alpha,1,2,f2": "2/9", "alpha,1,2,f9": "0",
            "alpha,1,f2": "0", "alpha,f1": "0", "beta,#": "1/3", "beta,1,#": "1/3", "beta,1,2,f3": "1/9",
            "beta,2,#": "0", "beta,2,1,#": "0", "beta,2,1,2,#": "0", "beta,2,1,2,1,#": "0",
            "beta,2,1,2,f1": "0", "beta,2,1,f2": "0", "omega,#": "0", "omega,1,f1": "0",
        },
    },
    "P_B": {
        "orbit_size": 12, "canonical_classes": 3, "fiber": 4,
        "frequencies": {
            "#": "1", "alpha,#": "1/2", "alpha,1,#": "1/2", "alpha,1,2,#": "1/3", "alpha,1,2,1,#": "1/6",
            "alpha,1,2,1,2,#": "0", "alpha,1,2,f1": "1/6", "alpha,1,2,f2": "0", "alpha,1,2,f9": "0",
            "alpha,1,f2": "1/6", "alpha,f1": "0", "beta,#": "1/2", "beta,1,#": "0", "beta,1,2,f3": "0",
            "beta,2,#": "1/2", "beta,2,1,#": "1/3", "beta,2,1,2,#": "1/6", "beta,2,1,2,1,#": "0",
            "beta,2,1,2,f1": "1/6", "beta,2,1,f2": "1/6", "omega,#": "0", "omega,1,f1": "0",
        },
    },
}


class TestOrbit:
    def test_fixture_report(self, capsys):
        code, out, _ = run(
            capsys, "orbit", "--pop", str(FIXTURES / "P_A.json"),
            "--schema", "alpha,1,2,f1",
        )
        assert code == 0
        outputs = json.loads(out)["outputs"]
        assert outputs["orbit_size"] == 216
        assert outputs["frequencies"]["alpha,1,2,f1"] == "2/9"

    @pytest.mark.parametrize("fixture", ["P_A", "P_B"])
    def test_golden_report(self, capsys, fixture):
        # The whole report, byte for byte: exact orbit means of every
        # schema kind, and the orbit's size split into classes and fiber.
        pop = str(FIXTURES / f"{fixture}.json")
        argv = ["orbit", "--pop", pop]
        for text in ORBIT_GOLDEN_SCHEMATA:
            argv += ["--schema", text]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        expected = {
            "command": "orbit",
            "tool": {"name": "rollmix", "version": __version__},
            "inputs": {"pop": pop, "cap": 10**6},
            "outputs": GOLDEN_ORBIT[fixture],
        }
        assert out == dump_canonical(expected)


class TestEval:
    def test_report_carries_oracle_column(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--pop", str(FIXTURES / "P_B.json"),
            "--walks", "2000", "--seed", "7",
        )
        assert code == 0
        actions = json.loads(out)["outputs"]["actions"]
        assert actions["alpha"]["oracle"] == "1/3"
        assert actions["beta"]["oracle"] == "2/3"
        assert actions["alpha"]["n"] == 2000

    def test_byte_identical_reports(self, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            code, _, _ = run(
                capsys, "eval", "--pop", str(FIXTURES / "P_B.json"),
                "--walks", "5000", "--seed", "7", "--out", str(out),
            )
            assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_payoffs_rejected(self, capsys, tmp_path):
        pop = tmp_path / "nopay.json"
        pop.write_text(
            '{"rollouts": [{"action": "a", "states": [[1, "a", 0]], "terminal": "f"}]}',
            encoding="utf-8",
        )
        code, _, err = run(capsys, "eval", "--pop", str(pop), "--walks", "10", "--seed", "1")
        assert code == 2
        assert "payoffs" in err

    def test_outputs_do_not_depend_on_workers(self, capsys):
        # --workers is accepted and echoed, but every walk runs in one process.
        reports = {}
        for workers in ("1", "4"):
            code, out, _ = run(
                capsys, "eval", "--pop", str(FIXTURES / "P_B.json"),
                "--walks", "2000", "--seed", "9", "--workers", workers,
            )
            assert code == 0
            reports[workers] = json.loads(out)
            assert reports[workers]["inputs"]["workers"] == int(workers)
        assert reports["1"]["outputs"] == reports["4"]["outputs"]

    def test_payoffs_past_the_float_range(self, capsys, tmp_path):
        # Exact columns stay exact; q and stddev become +-inf only where the
        # exact value passes the float range.
        pop = tmp_path / "huge.json"
        pop.write_text(json.dumps({
            "rollouts": [
                {"action": "alpha", "states": [[1, "a", 0]], "terminal": "f1"},
                {"action": "beta", "states": [[2, "a", 0]], "terminal": "f2"},
                {"action": "gamma", "states": [[3, "a", 0]], "terminal": "f3"},
                {"action": "gamma", "states": [[3, "b", 0]], "terminal": "f4"},
            ],
            "payoffs": {"f1": "1e400", "f2": "-1e400", "f3": "1e200", "f4": "-1e200"},
        }), encoding="utf-8")
        code, out, err = run(capsys, "eval", "--pop", str(pop), "--walks", "50", "--seed", "1")
        assert code == 0, err
        actions = json.loads(out)["outputs"]["actions"]
        assert actions["alpha"]["q"] == "inf" and actions["beta"]["q"] == "-inf"
        assert actions["alpha"]["oracle"] == str(10**400) and actions["beta"]["oracle"] == str(-(10**400))
        assert actions["alpha"]["payoff_sum"] == str(50 * 10**400)
        assert actions["alpha"]["stddev"] == actions["beta"]["stddev"] == "0"
        # gamma: the variance passes the float range but its root does not.
        gamma = actions["gamma"]
        n, gap = gamma["n"], Fraction(gamma["payoff_sum"]) / 10**200  # hits of f3 minus hits of f4
        variance = (n - gap * gap / n) / (n - 1)  # in units of 1e400
        assert float(gamma["stddev"]) == pytest.approx(float(variance) ** 0.5 * 1e200, rel=1e-11)
        assert float(gamma["q"]) == float(gap / n) * 1e200

    def test_every_digit_of_a_long_oracle_is_written(self, capsys, tmp_path):
        # 1,200 payoffs 1/p over distinct 5-digit primes: the exact values'
        # denominators run past CPython's 4300-digit int-to-str limit.
        sieve = bytearray([1]) * 100_000
        for n in range(2, 317):
            if sieve[n]:
                sieve[n * n :: n] = bytearray(len(range(n * n, 100_000, n)))
        primes = [n for n in range(10_000, 100_000) if sieve[n]][:1200]
        rollouts = [
            Rollout("ab"[i % 2], (state(1 + i % 3, tag_symbol(i)), state(1 + i * 7 % 3, tag_symbol(1200 + i))), f"f{i}")
            for i in range(1200)
        ]
        p, payoffs = validate_population(rollouts), {f"f{i}": Fraction(1, q) for i, q in enumerate(primes)}
        pop, out = tmp_path / "pop.json", tmp_path / "eval.json"
        save_population(pop, p, payoffs)
        limit = sys.get_int_max_str_digits()
        code, _, err = run(capsys, "eval", "--pop", str(pop), "--walks", "10", "--seed", "1", "--out", str(out))
        assert code == 0, err
        assert sys.get_int_max_str_digits() == limit
        texts = {a: entry["oracle"] for a, entry in json.loads(out.read_text())["outputs"]["actions"].items()}
        assert min(map(len, texts.values())) > 4300
        sys.set_int_max_str_digits(0)
        try:
            oracle = {a: Fraction(text) for a, text in texts.items()}
        finally:
            sys.set_int_max_str_digits(limit)
        graph = build_digraph(p)
        assert oracle == {a: exact_expected_payoff(graph, a, payoffs) for a in "ab"}


GEN_CONFIG = {
    "n_states": 5, "n_observations": 2, "n_actions": 2, "max_branching": 2,
    "depth_cap": 3, "payoff_range": [0, 2], "rollouts": 4, "seed": 9,
}


class TestGen:
    def test_generates_valid_population_file(self, capsys, tmp_path):
        cfg = tmp_path / "env.json"
        cfg.write_text(
            '{"n_states": 5, "n_observations": 2, "n_actions": 2, "max_branching": 2,'
            ' "depth_cap": 3, "payoff_range": [0, 2], "rollouts": 4, "seed": 9}',
            encoding="utf-8",
        )
        pop = tmp_path / "pop.json"
        code, _, _ = run(capsys, "gen", "--env", str(cfg), "--seed", "11", "--out", str(pop))
        assert code == 0
        from rollmix.fileio import load_population

        population, payoffs = load_population(pop)
        assert population.b == 4
        assert set(payoffs) == set(population.terminals())

    @pytest.mark.parametrize("config, message", [
        ({"n_states": 1}, "missing config field 'n_observations'"),
        ({k: v for k, v in GEN_CONFIG.items() if k != "payoff_range"}, "missing config field 'payoff_range'"),
        (list(GEN_CONFIG), "an environment config is a JSON object"),
        (7, "an environment config is a JSON object"),
    ])
    def test_bad_config_is_input_error(self, capsys, tmp_path, config, message):
        cfg = tmp_path / "env.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        code, _, err = run(capsys, "gen", "--env", str(cfg), "--seed", "1")
        assert code == 2
        assert err == f"rollmix: invalid input: {message}\n"

    def test_internal_error_in_config_reading_is_not_an_input_error(self, monkeypatch, tmp_path):
        from rollmix import envsim

        def broken(data):
            raise TypeError("internal")

        monkeypatch.setattr(envsim, "sim_config_from_json", broken)
        cfg = tmp_path / "env.json"
        cfg.write_text(json.dumps(GEN_CONFIG), encoding="utf-8")
        with pytest.raises(TypeError, match="internal"):
            dispatch(["gen", "--env", str(cfg), "--seed", "1"])

    def test_cap_payoff_exponent_past_the_bound_is_input_error(self, capsys, tmp_path):
        cfg = tmp_path / "env.json"
        cfg.write_text(json.dumps({**GEN_CONFIG, "cap_payoff": "1e5000"}), encoding="utf-8")
        code, _, err = run(capsys, "gen", "--env", str(cfg), "--seed", "1")
        assert code == 2
        assert err == "rollmix: invalid input: cap_payoff must be a rational, got '1e5000'\n"


# JSON booleans are not integers, though Python reads them as 1 and 0.
BAD_POPULATIONS = {
    "payoffs": '{"rollouts": [{"action": "a", "states": [[1, "a", 0]], "terminal": "f"}], "payoffs": [1]}',
    "state_bool": '{"rollouts": [{"action": "a", "states": [[true, "x", false]], "terminal": "f"}], "payoffs": {"f": "1"}}',
    "payoff_bool": '{"rollouts": [{"action": "a", "states": [[1, "a", 0]], "terminal": "f"}], "payoffs": {"f": true}}',
    # A class id past CPython's int-to-str digit limit: json.loads raises
    # a plain ValueError.
    "huge_class": '{"rollouts": [{"action": "a", "states": [[1' + "0" * 4999 + ', "a", 0]], "terminal": "f"}]}',
}


# Bytes no input reader accepts: not UTF-8, or nested past the JSON
# decoder's recursion limit.
BAD_BYTES = {"not_utf8": b'{"rollouts": ["\xff"]}\n', "nested": b"[" * 100_000}


def _boundary_argv(tmp_path, kind, which):
    pop = str(FIXTURES / "P_B.json")
    missing = str(tmp_path / "no-such-dir" / "file")
    commands = {
        "limit": ["limit", "--pop", pop],
        "mix": ["mix", "--pop", pop, "--steps", "5", "--seed", "1"],
        "orbit": ["orbit", "--pop", pop],
        "eval": ["eval", "--pop", pop, "--walks", "10", "--seed", "1"],
    }
    if kind == "missing schemata-file":
        return commands[which] + ["--schemata-file", missing]
    if kind == "orbit cap":
        return commands["orbit"] + ["--schema", "#", "--cap", which]
    if kind == "unwritable out":
        return commands[which] + (["--schema", "#"] if which != "eval" else []) + ["--out", missing]
    path = tmp_path / "input"
    path.write_bytes(BAD_BYTES[which])
    return {
        "pop": ["limit", "--pop", str(path), "--schema", "#"],
        "env": ["gen", "--env", str(path), "--seed", "1"],
        "schemata-file": ["limit", "--pop", pop, "--schemata-file", str(path)],
    }[kind]


@pytest.mark.parametrize(
    "case, expected",
    [
        ({"payoff_range": [0]}, 2),
        ({"payoff_range": ["a", "b"]}, 2),
        ({"payoff_range": [0.5, 2.5]}, 2),
        ({"n_states": 6.0}, 2),
        ({"rollouts": True}, 2),
        ({"seed": False}, 2),
        ({"cap_payoff": "1/0"}, 2),
        ({"cap_payoff": "x"}, 2),
        ({"cap_payoff": True}, 2),
        ({"cap_payoff": 0.1}, 2),
        ("payoffs", 2),
        ("state_bool", 2),
        ("payoff_bool", 2),
        ("huge_class", 2),
        (["--workers", "0"], 1),
        (["--workers", "-3"], 1),
        (["--cap", "0"], 1),
        (["--cap", "-3"], 1),
        (("pop", "not_utf8"), 2),
        (("pop", "nested"), 2),
        (("env", "not_utf8"), 2),
        (("env", "nested"), 2),
        (("schemata-file", "not_utf8"), 2),
        (("missing schemata-file", "limit"), 2),
        (("missing schemata-file", "mix"), 2),
        (("missing schemata-file", "orbit"), 2),
        (("unwritable out", "limit"), 1),
        (("unwritable out", "eval"), 1),
        (("orbit cap", "0"), 1),
        (("orbit cap", "-5"), 1),
    ],
    ids=repr,
)
def test_bad_input_exits_with_one_line_message(capsys, tmp_path, case, expected):
    if isinstance(case, dict):
        cfg = tmp_path / "env.json"
        cfg.write_text(json.dumps({**GEN_CONFIG, **case}), encoding="utf-8")
        argv = ["gen", "--env", str(cfg), "--seed", "1"]
    elif isinstance(case, str):
        pop = tmp_path / "pop.json"
        pop.write_text(BAD_POPULATIONS[case], encoding="utf-8")
        argv = ["limit", "--pop", str(pop), "--schema", "#"]
    elif isinstance(case, tuple):
        argv = _boundary_argv(tmp_path, *case)
    else:
        argv = ["eval", "--pop", str(FIXTURES / "P_B.json"), "--walks", "10", "--seed", "1", *case]
    code, _, err = run(capsys, *argv)  # an escaping exception fails the test
    assert code == expected
    assert len(err.splitlines()) == 1
    assert err.startswith("rollmix: usage error:" if expected == 1 else "rollmix: invalid input:")


# Generated population files: well-formed ones, then up to two nodes
# replaced by bools, huge ints, wrong types, empty lists or values that
# duplicate a state or a terminal.  Payoffs include values past the float
# range.
_JUNK = st.sampled_from([None, True, False, 0, -1, 2**70, 10**400, 1.5, "", "f1", [], {}, [1, "a", 0]])
_PAYOFF = st.one_of(st.integers(-3, 3), st.sampled_from(["1/3", "-2/7", "1e400", "-1e400", 2**80]))


def _nodes(value):
    """(container, key) of every value inside a JSON document."""
    keys = value.keys() if isinstance(value, dict) else range(len(value)) if isinstance(value, list) else ()
    for key in keys:
        yield value, key
        yield from _nodes(value[key])


@st.composite
def _population_documents(draw):
    rollouts, tags = [], {}
    for i in range(draw(st.integers(1, 4))):
        states = []
        for cls in draw(st.lists(st.integers(1, 3), max_size=3)):
            tags[cls] = tags.get(cls, 0) + 1
            states.append([cls, "abcdefghijkl"[tags[cls] - 1], 0])
        rollouts.append({"action": draw(st.sampled_from(["alpha", "beta"])), "states": states,
                         "terminal": f"f{i + 1}"})
    root = {"doc": {"rollouts": rollouts, "payoffs": {r["terminal"]: draw(_PAYOFF) for r in rollouts}}}
    for _ in range(draw(st.integers(0, 2))):
        container, key = draw(st.sampled_from(list(_nodes(root))))
        container[key] = draw(_JUNK)
    return root["doc"]


_FUZZ_SCHEMATA = ["--schema", "#", "--schema", "alpha,1,#", "--schema", "beta,1,2,f1"]


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_population_documents())
def test_generated_population_files_exit_cleanly(capsys, tmp_path, data):
    pop = tmp_path / "pop.json"
    pop.write_text(json.dumps(data), encoding="utf-8")
    for argv in (
        ["limit", "--pop", str(pop), *_FUZZ_SCHEMATA],
        ["eval", "--pop", str(pop), "--walks", "20", "--seed", "1"],
        ["mix", "--pop", str(pop), "--steps", "20", "--seed", "1", *_FUZZ_SCHEMATA],
        ["orbit", "--pop", str(pop), *_FUZZ_SCHEMATA],
    ):
        code, _, err = run(capsys, *argv)  # an escaping exception fails the test
        assert code in (0, 1, 2, 3)
        if code:
            # One message line; an invalid population lists its violations
            # on indented lines below its header.
            first, *rest = err.splitlines()
            assert first.startswith("rollmix: ")
            assert not rest or first == "rollmix: invalid population:" and all(
                line.startswith("  ") for line in rest
            )


class TestVerifySubcommand:
    def test_failure_exits_four(self, capsys, monkeypatch):
        import rollmix.verify as verify_module

        def fake(seed, workdir):
            return [CheckResult("stub check", False, "forced failure", 0.0)]

        monkeypatch.setattr(verify_module, "run_verification", fake)
        code, out, _ = run(capsys, "verify", "--seed", "1")
        assert code == 4
        assert "FAIL stub check" in out

    def test_success_exits_zero_and_prints_lines(self, capsys, monkeypatch):
        import rollmix.verify as verify_module

        def fake(seed, workdir):
            return [CheckResult("stub check", True, "ok", 0.1)]

        monkeypatch.setattr(verify_module, "run_verification", fake)
        code, out, _ = run(capsys, "verify", "--seed", "1")
        assert code == 0
        assert out.startswith("PASS stub check")


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0


COMMANDS = ["gen", "mix", "limit", "orbit", "eval", "verify"]

# One valid argv per command; each starts with a required flag and its value.
VALID_ARGV = {
    "gen": ["--env", "env.json", "--seed", "3", "--out", "pop.json"],
    "mix": ["--pop", "p.json", "--steps", "5", "--seed", "2", "--schema", "#", "--schema", "a,#",
            "--schemata-file", "s.txt", "--identity-prob", "0.5"],
    "limit": ["--pop", "p.json", "--schema", "#"],
    "orbit": ["--pop", "p.json", "--schema", "#", "--cap", "7"],
    "eval": ["--pop", "p.json", "--walks", "10", "--seed", "1", "--workers", "2", "--cap", "9"],
    "verify": ["--seed", "1", "--out", "r.json"],
}


def _subcommands(parser):
    (action,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _parse(parser, argv):
    try:
        return parser.parse_args(argv)
    except UsageError as exc:
        return f"UsageError: {exc}"


def test_parser_builds_only_the_command_it_runs():
    # Every call runs one command, and building all six subparsers would
    # cost it about a millisecond; help, no argv and unknown words need all.
    assert list(_subcommands(_build_parser(["orbit", "--pop", "p.json"]))) == ["orbit"]
    for argv in ([], ["--help"], ["--version"], ["bogus"], ["--pop", "orbit"]):
        assert list(_subcommands(_build_parser(argv))) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_one_command_parser_agrees_with_the_full_one(command):
    full, one = _build_parser([]), _build_parser([command])
    assert _subcommands(one)[command].format_help() == _subcommands(full)[command].format_help()
    valid = VALID_ARGV[command]
    seed = valid.index("--seed") + 1 if "--seed" in valid else None
    cases = [
        valid,
        valid[2:],
        [*valid, "--nope"],
        [*valid[:seed], "1.5", *valid[seed + 1:]] if seed else [*valid, "--seed", "1.5"],
    ]
    for rest in cases:
        argv = [command, *rest]
        assert _parse(one, argv) == _parse(full, argv)
    assert isinstance(_parse(one, [command, *valid]), argparse.Namespace)


@pytest.mark.parametrize("command", COMMANDS)
def test_command_help_exits_zero(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == 0
    assert out.startswith(f"usage: rollmix {command}")
