"""Every demo script runs to completion without writing to stderr, and the
deterministic ones print what they printed when their goldens were recorded."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).parent / "data" / "golden"
# Demo 04 draws from seeded numpy Generators, whose streams numpy does not
# promise to keep across versions, so its output is not pinned.
PINNED = ("01_mass_functions", "02_flat_aggregation", "03_motorcycle_study")


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    if demo.stem in PINNED:
        assert proc.stdout == (GOLDEN / f"demo_{demo.stem}.txt").read_text(encoding="utf-8")


def test_the_pinned_demos_exist():
    assert set(PINNED) <= {d.stem for d in DEMOS}
