"""erkit benchmark: cold CLI ops on seeded inputs, checked against an oracle.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli-small, screen, axiom-audit (see bench/README.md).  Each op
runs ``python -m erkit.cli`` with ``src`` on the path as a fresh child; the
single client starts the next op only after the previous one has exited
and its report has been checked.  Ops run in whole cycles until their wall
time adds up to ``--seconds``.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` every op also runs a second time
under ``bench/trace_child.py`` and the JSON holds the per-layer metrics.
The lines before it name every metric with its unit and sample count.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "erkit" / "cli.py").is_file():
        print("error: run from the root of an erkit source checkout (src/erkit is missing)", file=sys.stderr)
        return 2
    # The children run without a bytecode cache; this process must not write one for them.
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {sorted(workloads.WORKLOADS)}")

    spec, run = workloads.measure(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    print(f"environment {json.dumps(workloads.environment(ROOT))}")
    print(f"workload {args.workload} seed {args.seed}")
    for op in [*run.checked(), run.probe]:
        if op is not None and op.failure:
            print(f"failed op {op.kind.label}: {op.failure}")

    if args.trace:
        metrics = workloads.per_layer(run)
        units = dict(layers.METRICS)
        for name, unit in layers.METRICS:
            n = f"n={len(run.imports)} import profiles" if name.startswith("import.") else f"n={len(run.traced)} traced ops"
            print(workloads.metric_line(name, metrics[name], unit, n))
    else:
        metrics = workloads.end_to_end(spec, run)
        units = workloads.END_TO_END
        print("\n".join(workloads.describe_end_to_end(args.workload, spec, run, metrics)))

    checked = run.checked()
    failed = sum(op.failure is not None for op in checked)
    result = {
        "correct": failed == 0,
        "attempted": len(checked),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
