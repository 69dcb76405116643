#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the canaudit CLI.

Run from the repository root:

    python3 bench/run.py --workload audit-balanced --seed 1 --seconds 40 --trace 0

Each operation spawns ``python -m canaudit.cli`` with ``PYTHONPATH=src``,
so the working tree is measured. Operations run closed-loop, one at a
time from this single process, while another one still fits in
``--seconds``. Every operation's output is checked against the oracle in
``oracle.py``.

``--trace 0`` prints the end-to-end metrics: per-operation wall time and
peak RSS, ``import canaudit`` start-up time (each the median over the
run) and the share of operations that succeeded. ``--trace 1`` makes one
tracemalloc pass, then alternates untraced operations with traced ones
(``traced.py``), and prints the per-layer metrics. The last line of
standard output is the result as one JSON object.
``python3 bench/selftest.py`` checks the benchmark itself at tiny sizes.

Workloads (inputs are written by ``inputs.py`` from the seed):

- audit-balanced: ``audit <csv> --fpr-target 0.001 --out json`` on
  m = n = 1e5 continuous losses, mu = 1. Every layer does real work:
  a 2e5-point ROC, Monte Carlo baselines linear in m, a 22 MB report.
- audit-few-canaries: ``audit <jsonl>`` with three FPR targets and
  ``--out md`` on m = 1e3, n = 3e5 bf16-truncated losses (~3.1k distinct
  values). Ingest dominates; attack, baseline and report are cheap here.
- synth-sweep: ``simulate`` m = n = 1e5 to CSV, then ``roc --out-file`` on
  it. The only workload that writes datasets and sweeps; it never touches
  exposure, audit, baseline or report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import inputs
import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACED = Path(__file__).resolve().parent / "traced.py"

# A run must end within 180 s; no child may outlive this share of it.
DEADLINE_S = 170.0
MB = 1e6

END_TO_END = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "success_rate": "ratio",
}

# Per-layer metric -> (unit, source): ("total", span) is the summed span
# time, ("self", span) the same minus child spans, ("count", counter) a
# counter from traced.py, ("alloc", layer) a tracemalloc peak.
PER_LAYER = {
    "ingest.parse_dataset_s": ("s", ("total", "ingest.parse_dataset")),
    "ingest.rows": ("count", ("count", "ingest.rows")),
    "ingest.bytes_in": ("bytes", ("count", "ingest.bytes_in")),
    "ingest.alloc_peak_mb": ("MB", ("alloc", "ingest")),
    "ingest.serialize_dataset_s": ("s", ("total", "ingest.serialize_dataset")),
    "simulate.simulate_s": ("s", ("total", "simulate.simulate")),
    "exposure.exposure_all_s": ("s", ("total", "exposure.exposure_all")),
    "attack.tpr_at_fpr_s": ("s", ("total", "attack.tpr_at_fpr")),
    "attack.median_threshold_s": ("s", ("total", "attack.median_threshold")),
    "attack.threshold_attack_s": ("s", ("total", "attack.threshold_attack")),
    "attack.roc_s": ("s", ("total", "attack.roc")),
    "attack.roc_to_csv_s": ("s", ("total", "attack.roc_to_csv")),
    "attack.roc_points": ("count", ("count", "attack.roc_points")),
    "audit.audit_pipeline_s": ("s", ("total", "audit.audit_pipeline")),
    "audit.audit_pipeline_self_s": ("s", ("self", "audit.audit_pipeline")),
    "audit.clopper_pearson_calls": ("count", ("count", "audit.clopper_pearson_calls")),
    "baseline.monte_carlo_s": ("s", ("total", "baseline.monte_carlo")),
    "baseline.draws": ("count", ("count", "baseline.draws")),
    "report.build_report_s": ("s", ("total", "report.build_report")),
    "report.build_report_self_s": ("s", ("self", "report.build_report")),
    "report.render_json_s": ("s", ("total", "report.render_json")),
    "report.render_markdown_s": ("s", ("total", "report.render_markdown")),
    "report.output_bytes": ("bytes", ("count", "report.output_bytes")),
    "report.alloc_peak_mb": ("MB", ("alloc", "report")),
    "cli.cpu_s": ("s", None),
    "trace.overhead_s": ("s", None),
}


# --------------------------------------------------------------------------
# Workloads


class AuditWorkload:
    """One ``canaudit audit`` process on a seeded loss file."""

    def __init__(self, stream, m, n, bf16, fmt, fpr_targets, out):
        self.stream, self.m, self.n, self.bf16 = stream, m, n, bf16
        self.fmt, self.fpr_targets, self.out = fmt, fpr_targets, out

    def prepare(self, work: Path, seed: int, scale: int) -> list[Path]:
        canaries, references, order = inputs.gaussian_shift(
            seed, self.stream, max(10, self.m // scale), max(10, self.n // scale),
            mu=1.0, bf16=self.bf16)
        self.path = work / f"losses.{self.fmt}"
        write = inputs.write_csv if self.fmt == "csv" else inputs.write_jsonl
        write(self.path, canaries, references, order)
        self.expected = oracle.audit_expectation(canaries, references, self.fpr_targets)
        return [self.path]

    def commands(self, work: Path) -> list[list[str]]:
        args = ["audit", str(self.path)]
        for target in self.fpr_targets:
            args += ["--fpr-target", repr(target)]
        return [args + ["--out", self.out]]

    def outputs(self, work: Path) -> list[Path]:
        return []

    def check(self, work: Path, stdouts: list[Path]) -> None:
        text = stdouts[0].read_text(encoding="utf-8")
        if self.out == "json":
            oracle.check_audit_json(text, self.expected)
        else:
            oracle.check_audit_markdown(text, self.expected)


class SweepWorkload:
    """``canaudit simulate`` to a CSV file, then ``canaudit roc`` on it."""

    def __init__(self, m, n):
        self.m, self.n = m, n

    def prepare(self, work: Path, seed: int, scale: int) -> list[Path]:
        self.seed = seed
        self.m_run, self.n_run = max(10, self.m // scale), max(10, self.n // scale)
        return []

    def commands(self, work: Path) -> list[list[str]]:
        dataset, sweep = self.outputs(work)
        return [
            ["simulate", "--mu", "1", "--m", str(self.m_run), "--n", str(self.n_run),
             "--seed", str(self.seed), "--format", "csv", "--out-file", str(dataset)],
            ["roc", str(dataset), "--out-file", str(sweep)],
        ]

    def outputs(self, work: Path) -> list[Path]:
        return [work / "simulated.csv", work / "sweep.csv"]

    def check(self, work: Path, stdouts: list[Path]) -> None:
        dataset, sweep = self.outputs(work)
        oracle.check_sweep(dataset.read_text(encoding="utf-8"),
                           sweep.read_text(encoding="utf-8"), self.m_run, self.n_run)


WORKLOADS = {
    "audit-balanced": lambda: AuditWorkload(
        stream=1, m=100_000, n=100_000, bf16=False, fmt="csv",
        fpr_targets=(0.001,), out="json"),
    "audit-few-canaries": lambda: AuditWorkload(
        stream=2, m=1_000, n=300_000, bf16=True, fmt="jsonl",
        fpr_targets=(0.01, 0.001, 0.0001), out="md"),
    "synth-sweep": lambda: SweepWorkload(m=100_000, n=100_000),
}


# --------------------------------------------------------------------------
# Processes


@dataclass
class Proc:
    code: int
    wall_s: float
    peak_rss_mb: float
    cpu_s: float


def spawn(argv: list[str], stdout: Path, stderr: Path, deadline: float) -> Proc:
    """Run one child to completion and read its own rusage from wait4.

    RUSAGE_CHILDREN would give the high-water mark over every child reaped
    so far, not this child's peak.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=env)
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), child.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)
    return Proc(code=child.returncode, wall_s=wall,
                peak_rss_mb=usage.ru_maxrss * 1024.0 / MB,  # ru_maxrss is in KiB
                cpu_s=usage.ru_utime + usage.ru_stime)


@dataclass
class Op:
    kind: str  # "plain", "traced" or "alloc"
    wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    cpu_s: float = 0.0
    error: str | None = None
    traces: list[dict] = field(default_factory=list)


def run_op(workload, work: Path, kind: str, deadline: float, corrupt=None) -> Op:
    """One operation: its processes in sequence, then the output check."""
    op = Op(kind)
    for path in workload.outputs(work):
        path.unlink(missing_ok=True)
    stdouts = []
    start = time.perf_counter()
    for i, args in enumerate(workload.commands(work)):
        stdout, stderr = work / f"stdout-{i}", work / f"stderr-{i}"
        spans = work / f"spans-{i}.json"
        if kind == "plain":
            argv = [sys.executable, "-m", "canaudit.cli", *args]
        else:
            argv = [sys.executable, str(TRACED), "--spans", str(spans)]
            argv += ["--alloc"] if kind == "alloc" else []
            argv += ["--", *args]
        proc = spawn(argv, stdout, stderr, deadline)
        stdouts.append(stdout)
        op.peak_rss_mb = max(op.peak_rss_mb, proc.peak_rss_mb)
        op.cpu_s += proc.cpu_s
        if proc.code != 0:
            tail = stderr.read_text(errors="replace").strip().splitlines()[-1:]
            op.error = f"{args[0]} exited with {proc.code}: {' '.join(tail)}"
            break
        if kind != "plain":
            op.traces.append(json.loads(spans.read_text()))
    op.wall_s = time.perf_counter() - start
    if op.error is None:
        if corrupt is not None:
            corrupt(work, stdouts)
        try:
            workload.check(work, stdouts)
        except (oracle.CheckError, ValueError, TypeError, KeyError, IndexError,
                OSError) as exc:
            op.error = f"output check failed: {type(exc).__name__}: {exc}"
    return op


def import_time(work: Path, deadline: float) -> float:
    """Wall time of a fresh interpreter running ``import canaudit``."""
    argv = [sys.executable, "-c", "import canaudit"]
    proc = spawn(argv, work / "setup-out", work / "setup-err", deadline)
    if proc.code != 0:
        raise SystemExit("import canaudit failed: "
                         + (work / "setup-err").read_text(errors="replace"))
    return proc.wall_s


# --------------------------------------------------------------------------
# Per-layer numbers from spans


def layer_values(traces: list[dict]) -> dict:
    """Total and self seconds per span name, and counters, for one op."""
    total, self_s, counters = {}, {}, {}
    for trace in traces:
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        for span in spans:
            name, duration = span["name"], span["end"] - span["start"]
            total[name] = total.get(name, 0.0) + duration
            self_s[name] = self_s.get(name, 0.0) + duration - child_time[span["id"]]
        for key, value in trace["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return {"total": total, "self": self_s, "count": counters}


def per_layer_metrics(ops: list[Op]) -> dict:
    plain = [op for op in ops if op.kind == "plain" and op.error is None]
    traced = [op for op in ops if op.kind == "traced" and op.error is None]
    alloc = [op for op in ops if op.kind == "alloc" and op.error is None]
    if not plain or not traced or not alloc:
        return {}
    per_op = [layer_values(op.traces) for op in traced]
    alloc_bytes = {}
    for trace in alloc[0].traces:
        for layer, peak in trace["alloc_peak_bytes"].items():
            alloc_bytes[layer] = max(peak, alloc_bytes.get(layer, 0))
    metrics = {}
    for name, (unit, source) in PER_LAYER.items():
        if source is None:
            continue
        kind, key = source
        if kind == "alloc":
            value = alloc_bytes.get(key, 0) / MB
        elif kind == "count":  # counts repeat; median_low keeps them integers
            value = statistics.median_low(values[kind].get(key, 0) for values in per_op)
        else:
            value = statistics.median(values[kind].get(key, 0.0) for values in per_op)
        metrics[name] = {"value": value, "unit": unit}
    metrics["cli.cpu_s"] = {"value": statistics.median(op.cpu_s for op in plain),
                            "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(op.wall_s for op in traced)
        - statistics.median(op.wall_s for op in plain),
        "unit": "s"}
    return metrics


# --------------------------------------------------------------------------
# Run metadata


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_digest() -> str:
    """sha256 over every file under src/canaudit (path and contents)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "canaudit").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def metadata() -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
    }


# --------------------------------------------------------------------------
# One run


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, scale: int = 1,
                  corrupt=None, log=print) -> dict:
    """Run one workload and return the result object.

    ``scale`` divides the input sizes and ``corrupt(work, stdouts)`` edits
    each output before its check; both exist for the self-test.
    """
    if not (SRC / "canaudit" / "__init__.py").is_file():
        raise SystemExit(f"no canaudit sources under {SRC}")
    workload = WORKLOADS[name]()
    deadline = time.monotonic() + DEADLINE_S
    meta = metadata()
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for path in workload.prepare(work, seed, scale):
            meta.setdefault("inputs", {})[path.name] = {
                "bytes": path.stat().st_size, "sha256": inputs.sha256(path)}
        if not trace:
            import_time(work, deadline)  # may write bytecode caches; not counted

        # The tracemalloc pass counts toward --seconds. Another round starts
        # only if one as long as the last still ends within --seconds;
        # every run makes at least one round. Untraced rounds also time one
        # import, so set-up is sampled across the whole run.
        start = time.monotonic()
        ops = [run_op(workload, work, "alloc", deadline, corrupt)] if trace else []
        kinds = ("plain", "traced") if trace else ("plain",)
        setup_times = []
        while True:
            round_start = time.monotonic()
            if not trace:
                setup_times.append(import_time(work, deadline))
            for kind in kinds:
                ops.append(run_op(workload, work, kind, deadline, corrupt))
            now = time.monotonic()
            if now + (now - round_start) > min(start + seconds, deadline - 30.0):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    meta["loadavg_after"] = os.getloadavg()

    log(f"# meta {json.dumps(meta, sort_keys=True)}")
    for i, op in enumerate(ops):
        log(f"# op {i} {op.kind} wall_s={op.wall_s:.4f} peak_rss_mb={op.peak_rss_mb:.1f} "
            f"cpu_s={op.cpu_s:.4f} {'ok' if op.error is None else op.error}")
    for missing in sorted({m for op in ops for t in op.traces for m in t["unwrapped"]}):
        log(f"# warning: {missing} not found; its span reads 0")

    failed = sum(op.error is not None for op in ops)
    good = [op for op in ops if op.error is None and op.kind == "plain"]
    if trace:
        metrics = per_layer_metrics(ops)
    elif good:
        metrics = {
            "wall_s": statistics.median(op.wall_s for op in good),
            "peak_rss_mb": statistics.median(op.peak_rss_mb for op in good),
            "setup_s": statistics.median(setup_times),
            "success_rate": 1.0 - failed / len(ops),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    else:
        metrics = {}
    walls = sorted(op.wall_s for op in good)
    if walls:
        log(f"# wall_s over {len(walls)} ops: min {walls[0]:.4f} "
            f"median {statistics.median(walls):.4f} max {walls[-1]:.4f}")
    log(f"# error_rate {failed / len(ops)!r} ({failed} of {len(ops)} ops failed)")
    for key, metric in metrics.items():
        log(f"{key:<28} {metric['value']!r} {metric['unit']}")
    return {"correct": failed == 0 and bool(metrics), "attempted": len(ops),
            "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    result = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
