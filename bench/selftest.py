#!/usr/bin/env python3
"""Self-test of the benchmark at tiny input sizes (about half a minute).

    python3 bench/selftest.py

For every workload it checks that an untraced and a traced run succeed and
emit exactly the metrics BENCHMARK.json declares, each with its declared
unit; that the per-layer counts repeat exactly for the same seed; and that
a deliberately corrupted output is counted as a failed operation. Finally
it checks that the benchmark exits non-zero, printing no result, in a
directory holding only BENCHMARK.json and the benchmark's own files.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run

SCALE = 1000
SEED = 7


def _bump_fpr_row_hits(work: Path, stdouts: list[Path]) -> None:
    doc = json.loads(stdouts[0].read_text(encoding="utf-8"))
    for row in doc["epsilon_bounds"]:
        if row["operating_point"].startswith("fpr_target="):
            row["reference_hits"] += 1
    stdouts[0].write_text(json.dumps(doc), encoding="utf-8")


def _nudge_mean_exposure(work: Path, stdouts: list[Path]) -> None:
    text = stdouts[0].read_text(encoding="utf-8")
    text, hits = re.subn(r"^\| mean \| ([^ |]+) \|",
                         lambda mt: f"| mean | {float(mt.group(1)) * (1 + 1e-6)!r} |",
                         text, flags=re.M)
    if hits != 1:
        raise RuntimeError("mean exposure row not found")
    stdouts[0].write_text(text, encoding="utf-8")


def _drop_sweep_row(work: Path, stdouts: list[Path]) -> None:
    sweep = work / "sweep.csv"
    lines = sweep.read_text(encoding="utf-8").splitlines(keepends=True)
    del lines[len(lines) // 2]
    sweep.write_text("".join(lines), encoding="utf-8")


CORRUPT = {
    "audit-balanced": _bump_fpr_row_hits,
    "audit-few-canaries": _nudge_mean_exposure,
    "synth-sweep": _drop_sweep_row,
}


def _quiet(line: str) -> None:
    pass


def _run(name: str, trace: bool, corrupt=None) -> dict:
    return run.run_benchmark(name, SEED, seconds=0, trace=trace, scale=SCALE,
                             corrupt=corrupt, log=_quiet)


def check_workload(name: str, spec: dict) -> list[str]:
    problems = []
    sections = ((False, "end_to_end"), (True, "per_layer"))
    results = {}
    for trace, section in sections:
        result = results[trace] = _run(name, trace)
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"{section} run failed: {result}")
        declared = {m["name"]: m["unit"] for m in spec[section]}
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        if emitted != declared:
            problems.append(f"{section} metrics {emitted} differ from {declared}")
        for key, metric in result["metrics"].items():
            value = metric["value"]
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not math.isfinite(value):
                problems.append(f"{key} is not a finite number: {value!r}")
            if metric["unit"] in ("count", "bytes") and not isinstance(value, int):
                problems.append(f"{key} is a count but not an integer: {value!r}")

    again = _run(name, trace=True)
    for key, metric in results[True]["metrics"].items():
        if metric["unit"] in ("count", "bytes") and again["metrics"][key] != metric:
            problems.append(f"{key} changed between runs: {metric} vs {again['metrics'][key]}")

    bad = _run(name, trace=False, corrupt=CORRUPT[name])
    if bad["correct"] or bad["failed"] != bad["attempted"]:
        problems.append(f"corrupted output not counted as failed: {bad}")
    return problems


def check_bare_directory() -> list[str]:
    bare = run.ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(Path(run.__file__).parent, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "synth-sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return [f"bare directory run exited {done.returncode} with {done.stdout!r}"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    for name in run.WORKLOADS:
        found = check_workload(name, spec)
        print(f"{name}: {'ok' if not found else 'FAIL'}")
        problems += found
    found = check_bare_directory()
    print(f"bare directory: {'ok' if not found else 'FAIL'}")
    problems += found
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
