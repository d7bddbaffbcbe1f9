import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import slopeforge
from slopeforge import fixtures
from slopeforge.pwmap import serialize_pwa

SRC = str(Path(slopeforge.__file__).parents[1])

PROBE = """
import sys
import slopeforge.fixtures
loaded = sorted(m for m in ("mpmath", "slopeforge.markov") if m in sys.modules)
assert not loaded, loaded
import slopeforge
missing = [name for name in slopeforge.__all__ if not hasattr(slopeforge, name)]
assert not missing, missing
assert set(slopeforge.__all__) <= set(dir(slopeforge))
from slopeforge.entropy import entropy
assert slopeforge.entropy is entropy
"""


def test_fixtures_import_loads_no_numeric_module():
    # a fresh interpreter: this process has imported everything already
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr


# one CLI command in a fresh interpreter; the last line lists what it loaded
COMMAND_PROBE = """
import sys
from slopeforge.cli import main
code = main(sys.argv[1:])
print(" ".join(sorted(m for m in sys.modules if m in ("mpmath", "dataclasses")
                      or m.startswith("slopeforge."))))
sys.exit(code)
"""


def run_command(argv, cwd, precision=None):
    """(exit code, printed lines, loaded modules) of one fresh command."""
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("SLOPEFORGE_PRECISION", None)
    if precision is not None:
        env["SLOPEFORGE_PRECISION"] = precision
    proc = subprocess.run([sys.executable, "-c", COMMAND_PROBE, *argv],
                          capture_output=True, text=True, env=env, cwd=cwd)
    assert not proc.stderr, proc.stderr
    *lines, loaded = proc.stdout.splitlines()
    return proc.returncode, lines, set(loaded.split())


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("commands")
    for name, f in {"golden": fixtures.golden(), "skew": fixtures.skew_tent(),
                    "t32": fixtures.tent_slope(F(3, 2)),
                    "core": fixtures.core_tent32(),
                    "flat": fixtures.flat_trapezoid()}.items():
        (d / f"{name}.pwa").write_text(serialize_pwa(f))
    (d / "circle.txt").write_text(fixtures.CIRCLE_DOUBLING)
    code, _, _ = run_command(["normalize", "skew.pwa", "--out", "g.pwa",
                              "--psi", "psi.tsv"], d)
    assert code == 0
    return d


def _modules(*names):
    return {n if n == "mpmath" else f"slopeforge.{n}" for n in names} | {"dataclasses"}


# per command: its arguments, the modules it must not load, and its exit
# code when SLOPEFORGE_PRECISION is malformed (3 where it needs mp
# arithmetic: an exact Markov closure's Perron solve); no command loads
# dataclasses
COMMANDS = {
    "entropy": (["golden.pwa"], _modules(
        "approximation", "coding", "graphmap", "normalform", "semiconjugacy"), 3),
    "markov-check": (["golden.pwa"], _modules(
        "approximation", "coding", "entropy", "graphmap", "normalform",
        "semiconjugacy"), 3),
    "normalize": (["skew.pwa"], _modules("coding", "graphmap", "normalform"), 3),
    "approx": (["t32.pwa", "--index", "8"], _modules(
        "mpmath", "coding", "graphmap", "normalform"), 0),
    "verify": (["skew.pwa", "g.pwa", "psi.tsv"], _modules(
        "mpmath", "coding", "graphmap", "normalform"), 0),
    "reduce": (["flat.pwa", "--depth", "6"], _modules(
        "mpmath", "approximation", "graphmap", "normalform", "semiconjugacy"), 0),
    "phi": (["skew.pwa", "--out-dir", "bundle"], _modules("coding", "graphmap"), 3),
    "flatten": (["circle.txt"], _modules(
        "mpmath", "approximation", "coding", "entropy", "markov", "normalform",
        "semiconjugacy"), 0),
    "plot": (["skew.pwa", "--samples", "4"], _modules(
        "mpmath", "approximation", "coding", "entropy", "graphmap", "markov",
        "normalform", "semiconjugacy"), 0),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_loads_only_what_it_runs(inputs, command):
    args, unused, _ = COMMANDS[command]
    code, lines, loaded = run_command([command, *args], inputs)
    assert code == 0, lines
    assert not loaded & unused, sorted(loaded & unused)
    assert "slopeforge.cli" in loaded


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_bad_precision_exits_where_mp_arithmetic_runs(inputs, command):
    args, _, want = COMMANDS[command]
    code, lines, _ = run_command([command, *args], inputs, precision="abc")
    assert code == want, lines
    if want == 3:
        assert lines == ["error=precondition message=\"SLOPEFORGE_PRECISION "
                         "must be an integer, got 'abc'\""]


# mpmath loads for the mp Perron solve alone: the approximant route and a
# constant-slope input write their decimals without it
@pytest.mark.parametrize("argv,want", [
    (["normalize", "t32.pwa"], 4),
    (["phi", "core.pwa", "--out-dir", "core_bundle"], 0),
], ids=["normalize_approximant_route", "phi_constant_slope"])
def test_routes_without_mp_arithmetic_load_no_mpmath(inputs, argv, want):
    code, lines, loaded = run_command(argv, inputs)
    assert code == want, lines
    assert not loaded & {"mpmath", "dataclasses"}, sorted(loaded)
