"""Workloads, the closed-loop op runner and the end-to-end metrics.

One op is one cold ``python -m erkit.cli`` child, timed from spawn until it
has exited with its report on disk.  A single client runs one child at a
time and starts the next op only after checking the previous report.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from functools import partial
from importlib import metadata
from pathlib import Path
from typing import Callable

import gen
import layers
import oracle

BENCH = Path(__file__).resolve().parent

#: Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = ("cli-small", "screen", "axiom-audit")

#: The environment every child gets, whatever the benchmark was started with.
#: Without a bytecode cache every cold op compiles erkit's sources, as it does
#: where the package is run from a read-only or fresh source tree.
CHILD_ENV = {
    "PYTHONPATH": "src",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
    "LC_ALL": "C.UTF-8",
}

#: Name and unit of every end-to-end metric.
END_TO_END = {
    "op_p50_s": "s",
    "evals_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}

#: A child that has not ended after this many seconds is killed and counts as failed.
OP_TIMEOUT_S = 150.0

CHAIN_LEVELS = 400
#: Evaluating a chain this deep dies in ``json.loads`` with a RecursionError
#: today (the CLI handles 493 tree levels); the probe counts as a known failure.
PROBE_LEVELS = 500
WIDE = dict(grades=5, branching=5, depth=3, alternatives=500)
AUDIT_ITERATIONS = 1000
#: Alternatives of the wide model checked against the oracle in every report.
SAMPLED_ALTERNATIVES = 4
IMPORT_REPEATS = 3

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import erkit.cli
for path in sys.argv[1:]:
    erkit.cli.derive_reliabilities(erkit.cli.load_model(path))
print(time.perf_counter() - start, file=sys.stderr)
"""


@dataclass
class OpKind:
    """One CLI call of a workload's cycle."""

    label: str
    args: list[str]
    #: Alternative x scheme results, or axiom instances, that the report holds.
    work: int
    check: Callable[[str], list[str]]


@dataclass
class Workload:
    kinds: list[OpKind]
    setup_documents: list[str]
    probe: OpKind | None = None


@dataclass
class Child:
    wall_s: float
    exit_code: int
    stderr: bytes
    peak_rss_mb: float


@dataclass
class Op:
    kind: OpKind
    child: Child
    failure: str | None
    spans: dict | None = None


@dataclass
class Run:
    """Everything one benchmark run measured."""

    setup_s: list[float] = field(default_factory=list)
    ops: list[Op] = field(default_factory=list)
    traced: list[Op] = field(default_factory=list)
    warmup: Op | None = None
    probe: Op | None = None
    imports: list[dict] = field(default_factory=list)

    def checked(self) -> list[Op]:
        """Ops whose failure makes the run incorrect: all but the known-failing probe."""
        return [self.warmup, *self.ops, *self.traced]


def classify(exit_code: int, stderr: bytes, problems: list[str]) -> str | None:
    """Why an op failed, or None: a nonzero exit, a traceback, or a wrong report."""
    reasons = []
    if exit_code != 0:
        reasons.append(f"exit code {exit_code}")
    if b"Traceback" in stderr:
        last = stderr.decode(errors="replace").strip().splitlines()[-1]
        reasons.append(f"traceback on stderr ({last[:120]})")
    return "; ".join(reasons or problems[:1]) or None


def child_env() -> dict[str, str]:
    return {"PATH": os.environ.get("PATH", ""), **CHILD_ENV}


def run_child(argv: list[str], root: Path) -> Child:
    """Run one child to completion; its peak RSS comes from ``wait4``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=root,
        env=child_env(),
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, stderr, usage.ru_maxrss / 1024)


_CHECKS = {
    "json": oracle.check_result_json,
    "table": oracle.check_result_table,
    "csv": oracle.check_result_csv,
}


def _evaluate(label, path, algo, fmt, exp: oracle.Expected, trace=False) -> OpKind:
    schemes = oracle.SCHEMES if algo == "all" else (algo,)
    args = ["evaluate", path, "--algo", algo, "--format", fmt]
    check = partial(_CHECKS[fmt], exp=exp, schemes=schemes)
    if trace:
        args.append("--trace")
        check = partial(check, with_trace=True)
    return OpKind(label, args, len(exp.alternatives) * len(schemes), check)


def _write(work: Path, name: str, doc: dict, root: Path) -> str:
    path = work / name
    path.write_text(gen.to_json(doc), encoding="utf-8")
    return str(path.relative_to(root))


def build(workload: str, seed: int, work: Path, root: Path) -> Workload:
    """Generate a workload's inputs under ``work`` and its cycle of ops."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-small":
        moto_text = (root / "src/erkit/data/motorcycle.json").read_text(encoding="utf-8")
        moto = json.loads(moto_text)
        (work / "motorcycle.json").write_text(moto_text, encoding="utf-8")
        moto_path = str((work / "motorcycle.json").relative_to(root))
        chain = gen.chain_model(seed, CHAIN_LEVELS)
        chain_path = _write(work, "chain.json", chain, root)
        deep = gen.chain_model(seed, PROBE_LEVELS)
        deep_path = _write(work, "deep-chain.json", deep, root)
        moto_exp = oracle.Expected(moto, moto["alternatives"])
        chain_exp = oracle.Expected(chain, chain["alternatives"])
        kinds = [
            _evaluate("moto-all-table", moto_path, "all", "table", moto_exp),
            _evaluate("moto-all-json", moto_path, "all", "json", moto_exp),
            _evaluate("moto-all-csv", moto_path, "all", "csv", moto_exp),
            _evaluate("moto-e2r-trace-json", moto_path, "e2r", "json", moto_exp, trace=True),
            OpKind(
                "moto-compare-json",
                ["compare", moto_path, "--format", "json"],
                len(moto_exp.alternatives) * len(oracle.SCHEMES),
                partial(oracle.check_compare_json, exp=moto_exp),
            ),
            _evaluate("chain-all-table", chain_path, "all", "table", chain_exp),
            _evaluate("chain-all-json", chain_path, "all", "json", chain_exp),
        ]
        deep_exp = oracle.Expected(deep, deep["alternatives"])
        probe = _evaluate("deep-chain-probe", deep_path, "all", "json", deep_exp)
        return Workload(kinds, [moto_path, chain_path], probe)
    if workload == "screen":
        doc = gen.wide_model(seed, **WIDE)
        path = _write(work, "wide.json", doc, root)
        exp = oracle.Expected(doc, rng.sample(doc["alternatives"], SAMPLED_ALTERNATIVES))
        kinds = [
            _evaluate("wide-all-table", path, "all", "table", exp),
            _evaluate("wide-e2r-json", path, "e2r", "json", exp),
        ]
        return Workload(kinds, [path])
    if workload == "axiom-audit":
        audit_seed = rng.randrange(2**32)
        kinds = [
            OpKind(
                f"audit-{scheme}",
                ["check-axioms", "--algo", scheme, "--iterations", str(AUDIT_ITERATIONS),
                 "--format", "json", "--seed", str(audit_seed)],
                4 * AUDIT_ITERATIONS,
                partial(oracle.check_audit_json, scheme=scheme, iterations=AUDIT_ITERATIONS, seed=audit_seed),
            )
            for scheme in oracle.SCHEMES
        ]
        return Workload(kinds, [])
    raise ValueError(f"unknown workload {workload!r}")


class Runner:
    """Runs ops of one workload and checks every report."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.digests: dict[str, str] = {}

    def op(self, kind: OpKind, traced: bool = False) -> Op:
        report = self.work / "report.out"
        spans_path = self.work / "spans.json"
        report.unlink(missing_ok=True)
        spans_path.unlink(missing_ok=True)
        cli = [*kind.args, "--out", str(report.relative_to(self.root))]
        if traced:
            argv = [sys.executable, str(BENCH / "trace_child.py"), str(spans_path), *cli]
        else:
            argv = [sys.executable, "-m", "erkit.cli", *cli]
        child = run_child(argv, self.root)
        data = report.read_bytes() if report.exists() else b""
        problems = []
        if child.exit_code == 0:
            problems = self._check(kind, data)
        op = Op(kind, child, classify(child.exit_code, child.stderr, problems))
        if traced:
            # A child killed before it could write its spans contributes none.
            op.spans = {"spans": [], "gc": []}
            if spans_path.exists():
                op.spans = json.loads(spans_path.read_text(encoding="utf-8"))
            op.spans["report_bytes"] = len(data)
        return op

    def _check(self, kind: OpKind, data: bytes) -> list[str]:
        digest = hashlib.sha256(data).hexdigest()
        if self.digests.setdefault(kind.label, digest) != digest:
            return [f"{kind.label}: report differs from the run's first {kind.label} report"]
        try:
            return kind.check(data.decode("utf-8"))
        except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
            return [f"{kind.label}: malformed report ({type(exc).__name__}: {exc})"]

    def setup_once(self, documents: list[str]) -> float:
        """Seconds a fresh interpreter takes to import the CLI and load its documents."""
        child = run_child([sys.executable, "-c", SETUP_CODE, *documents], self.root)
        if child.exit_code != 0:
            raise RuntimeError(f"set-up failed: {child.stderr.decode(errors='replace')}")
        return float(child.stderr)

    def import_profile(self) -> dict[str, float]:
        child = run_child([sys.executable, "-X", "importtime", "-c", "import erkit.cli"], self.root)
        return layers.import_metrics(child.stderr.decode())


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> tuple[Workload, Run]:
    """Warm up, probe, then run whole cycles of ops for ``seconds`` of op time.

    After each cycle a fresh interpreter times the set-up once, so that the
    set-up samples span the run as the ops do.  With ``trace`` every op is
    run twice in a row, untraced then traced, and set-up is not timed.
    """
    work = root / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        spec = build(workload, seed, work, root)
        runner = Runner(root, work)
        run = Run()
        run.warmup = runner.op(spec.kinds[0])
        if spec.probe is not None:
            run.probe = runner.op(spec.probe)
        if trace:
            run.imports = [runner.import_profile() for _ in range(IMPORT_REPEATS)]
        busy, done = 0.0, 0
        while busy < seconds or done % len(spec.kinds):
            kind = spec.kinds[done % len(spec.kinds)]
            run.ops.append(runner.op(kind))
            busy += run.ops[-1].child.wall_s
            if trace:
                run.traced.append(runner.op(kind, traced=True))
                busy += run.traced[-1].child.wall_s
            done += 1
            if not trace and done % len(spec.kinds) == 0:
                run.setup_s.append(runner.setup_once(spec.setup_documents))
        return spec, run
    finally:
        shutil.rmtree(work, ignore_errors=True)


def tail(values: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with ten values beyond it."""
    n = len(values)
    if n < 11:
        return None
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def end_to_end(spec: Workload, run: Run) -> dict[str, float]:
    """The bounded metrics of an untraced run.

    Each op kind of the cycle contributes its median wall time; ``op_p50_s``
    is their mean, which for a one-kind workload is the median op, and does
    not fall into the gap between kinds of different cost as the median of
    the pooled ops would.
    """
    by_kind: dict[str, list[float]] = {}
    for op in run.ops:
        by_kind.setdefault(op.kind.label, []).append(op.child.wall_s)
    cycle_s = sum(statistics.median(by_kind[k.label]) for k in spec.kinds)
    attempted = [*run.checked(), *([run.probe] if run.probe else [])]
    return {
        "op_p50_s": cycle_s / len(spec.kinds),
        "evals_per_s": sum(k.work for k in spec.kinds) / cycle_s,
        "setup_s": statistics.median(run.setup_s),
        "peak_rss_mb": max(op.child.peak_rss_mb for op in run.ops),
        "ok_ratio": sum(op.failure is None for op in attempted) / len(attempted),
    }


def per_layer(run: Run) -> dict[str, float]:
    metrics = {key: statistics.median(p[key] for p in run.imports) for key in run.imports[0]}
    metrics.update(layers.span_metrics([op.spans for op in run.traced]))
    traced = statistics.median(op.child.wall_s for op in run.traced)
    metrics["trace.overhead_ratio"] = traced / statistics.median(op.child.wall_s for op in run.ops) - 1
    return metrics


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return "absent"


def environment(root: Path) -> dict:
    """Interpreter, CPU and child settings the figures depend on."""
    cpu = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines() if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": _read("/sys/fs/cgroup/cpu.max"),
        "erkit_bytecode_cache": (root / "src" / "erkit" / "__pycache__").exists(),
        "child_command": "<this interpreter> -m erkit.cli ... --out REPORT",
        "child_env": {"PATH": "<inherited>", **CHILD_ENV},
    }


def metric_line(name: str, value: float, unit: str, note: str) -> str:
    return f"{name:<26} {value:>14.6g} {unit:<6} {note}"


def describe_end_to_end(workload: str, spec: Workload, run: Run, metrics: dict) -> list[str]:
    """Human-readable lines: every end-to-end metric, the throughput and failures under their own names."""
    n = len(run.ops)
    lines = []
    for kind in spec.kinds:
        walls = [op.child.wall_s for op in run.ops if op.kind is kind]
        lines.append(f"op kind {kind.label}: wall s {' '.join(f'{w:.3f}' for w in walls)}")
    lines.append(metric_line("op_p50_s", metrics["op_p50_s"], "s", f"n={n}; mean of {len(spec.kinds)} per-kind medians"))
    tail_value = tail([op.child.wall_s for op in run.ops])
    if tail_value is not None:
        value, percentile = tail_value
        lines.append(metric_line("op_tail_s", value, "s", f"p{percentile:.1f} of n={n}, 10 ops beyond it"))
    rate = "axiom_checks_per_s" if workload == "axiom-audit" else "alt_evals_per_s"
    lines.append(metric_line(rate, metrics["evals_per_s"], "1/s", f"n={n}; evals_per_s in the JSON"))
    lines.append(metric_line("setup_s", metrics["setup_s"], "s", f"n={len(run.setup_s)}"))
    lines.append(metric_line("peak_rss_mb", metrics["peak_rss_mb"], "MiB", f"n={n}"))
    attempted = [*run.checked(), *([run.probe] if run.probe else [])]
    note = f"{sum(op.failure is not None for op in attempted)} of {len(attempted)} ops failed"
    if run.probe is not None:
        note += f"; known-failing deep-chain probe: {run.probe.failure or 'passed'}"
    lines.append(metric_line("fail_ratio", 1 - metrics["ok_ratio"], "ratio", f"{note}; 1 - ok_ratio in the JSON"))
    return lines
