"""What each command of the CLI loads: ``import erkit.cli`` loads no library
module and not numpy, each command imports only the modules it runs, and no
command loads ``numpy.random``."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import erkit
from erkit import AGGREGATORS, cli

ROOT = Path(__file__).resolve().parent.parent
MODEL = ROOT / "src" / "erkit" / "data" / "motorcycle.json"

# Imports erkit.cli, runs main() on the arguments after the output path when there are
# any, and writes the erkit and numpy modules that the interpreter then holds.
CHILD = (
    "import json, sys\n"
    "import erkit.cli\n"
    "if sys.argv[2:]:\n"
    "    try:\n"
    "        erkit.cli.main(sys.argv[2:])\n"
    "    except SystemExit:\n"
    "        pass\n"
    "loaded = sorted(m for m in sys.modules if m.split('.')[0] in ('erkit', 'numpy'))\n"
    "with open(sys.argv[1], 'w') as fh:\n"
    "    json.dump(loaded, fh)\n"
)

BARE = ["erkit", "erkit.cli", "erkit.errors"]

# Recent numpy loads numpy.random on first use; older releases load it with numpy itself.
NUMPY_LOADS_RANDOM = subprocess.run(
    [sys.executable, "-c", "import sys, numpy; sys.exit('numpy.random' in sys.modules)"], timeout=120
).returncode == 1


def loaded_by(tmp_path, *argv):
    out = tmp_path / "modules.json"
    src = str(Path(erkit.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run(
        [sys.executable, "-c", CHILD, str(out), *argv],
        cwd=tmp_path, env=env, capture_output=True, check=True, timeout=120,
    )
    return set(json.loads(out.read_text()))


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param([], id="import"),
        pytest.param(["--version"], id="version"),
        pytest.param(["--help"], id="help"),
        pytest.param(["evaluate", "--algo", "nope", "model.json"], id="usage-error"),
    ],
)
def test_import_version_help_and_usage_errors_load_no_library_module(tmp_path, argv):
    assert sorted(loaded_by(tmp_path, *argv)) == BARE


def assert_no_numpy_random(loaded):
    assert NUMPY_LOADS_RANDOM or "numpy.random" not in loaded


def test_check_axioms_loads_no_model_code(tmp_path):
    loaded = loaded_by(tmp_path, "check-axioms", "--iterations", "5", "--out", "audit.txt")
    assert {"erkit.axioms", "erkit.algorithms", "numpy"} <= loaded
    assert not loaded & {"erkit.modelio", "erkit.hierarchy", "erkit.decision", "erkit.dst"}
    # the audit draws from the stdlib's random.Random, not numpy's generators
    assert_no_numpy_random(loaded)


@pytest.mark.parametrize("command", ["evaluate", "compare"])
def test_evaluate_and_compare_load_no_axiom_audit(tmp_path, command):
    loaded = loaded_by(tmp_path, command, "--out", "report.txt", str(MODEL))
    assert {"erkit.modelio", "erkit.hierarchy", "erkit.decision", "numpy"} <= loaded
    assert not loaded & {"erkit.axioms", "erkit.dst"}
    assert_no_numpy_random(loaded)


def test_schemes_are_the_aggregators_in_their_order():
    assert cli.SCHEMES == tuple(AGGREGATORS)


def test_each_name_the_benchmark_wraps_is_the_library_object():
    """The traced child wraps these names on ``erkit.cli``; each resolves to the
    object its module defines, and stays in the module once read."""
    spec = importlib.util.spec_from_file_location("trace_child", ROOT / "bench" / "trace_child.py")
    trace_child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace_child)
    names = {**trace_child.CLI_CALLS, "evaluate_batch": "hierarchy.evaluate_batch"}
    for attr, qualified in names.items():
        module, name = qualified.split(".")
        assert getattr(cli, attr) is getattr(importlib.import_module(f"erkit.{module}"), name)
        assert attr in vars(cli)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'AGGREGATORS'"):
        cli.AGGREGATORS
