"""The benchmark's traced child still finds the ``erkit.cli`` names its per-layer spans wrap."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_e2r_run_records_the_cli_layer_spans(tmp_path):
    spans_file, report = tmp_path / "spans.json", tmp_path / "report.json"
    model = ROOT / "src" / "erkit" / "data" / "motorcycle.json"
    env = {**os.environ, "PYTHONPATH": "src"}
    argv = ["evaluate", "--algo", "e2r", "--trace", "--format", "json", "--out", str(report)]
    proc = subprocess.run(
        [sys.executable, "bench/trace_child.py", str(spans_file), *argv, str(model)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    calls = Counter(span[0] for span in json.loads(spans_file.read_text())["spans"])
    # Node results come from one batch; evaluate runs once per alternative, for the traces.
    assert calls["hierarchy.evaluate"] == 4
    assert calls["decision.decide"] == 1
    assert calls["modelio.result_from_evaluation"] == 1
    (document,) = json.loads(report.read_text())["documents"]
    assert set(document["traces"]) == set(document["alternatives"])
