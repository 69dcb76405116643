"""Run one canaudit CLI command in-process with a span around each layer call.

    PYTHONPATH=src python3 bench/traced.py --spans OUT.json [--alloc] -- CLI ARGS...

Spans are recorded from outside the library: the module-level names that
the CLI path looks up at call time (``canaudit.cli.parse_dataset``,
``canaudit.audit.tpr_at_fpr``, ``canaudit.report._monte_carlo_stats``, ...)
are replaced by timing wrappers, so a nested call gets its caller's span
as parent. Spans and counters stay in memory and are written to OUT.json
when the command ends.

With ``--alloc`` the command also runs under tracemalloc and the output
records the peak traced allocation inside the ingest and report spans.
tracemalloc slows this code several-fold, so the harness never takes times
from an ``--alloc`` run.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import sys
import time
import tracemalloc


def _parse_counts(args, result):
    return {"ingest.rows": result.m + result.n, "ingest.bytes_in": len(args["raw"])}


def _roc_counts(args, result):
    return {"attack.roc_points": len(result)}


def _draw_counts(args, result):
    return {"baseline.draws": args["m"] * args["trials"]}


def _output_counts(args, result):
    return {"report.output_bytes": len(result.encode("utf-8"))}


def _call_counts(args, result):
    return {"audit.clopper_pearson_calls": 1}


# (module, attribute looked up at call time, span name, counter function)
WRAPPED = (
    ("canaudit.cli", "parse_dataset", "ingest.parse_dataset", _parse_counts),
    ("canaudit.cli", "serialize_dataset", "ingest.serialize_dataset", None),
    ("canaudit.cli", "simulate", "simulate.simulate", None),
    ("canaudit.cli", "roc", "attack.roc", _roc_counts),
    ("canaudit.cli", "roc_to_csv", "attack.roc_to_csv", None),
    ("canaudit.cli", "audit_pipeline", "audit.audit_pipeline", None),
    ("canaudit.cli", "build_report", "report.build_report", None),
    ("canaudit.cli", "render_json", "report.render_json", _output_counts),
    ("canaudit.cli", "render_markdown", "report.render_markdown", _output_counts),
    ("canaudit.audit", "exposure_all", "exposure.exposure_all", None),
    ("canaudit.audit", "median_threshold", "attack.median_threshold", None),
    ("canaudit.audit", "threshold_attack", "attack.threshold_attack", None),
    ("canaudit.audit", "tpr_at_fpr", "attack.tpr_at_fpr", None),
    ("canaudit.audit", "clopper_pearson", "audit.clopper_pearson", _call_counts),
    ("canaudit.attack", "roc", "attack.roc", _roc_counts),
    ("canaudit.report", "_monte_carlo_stats", "baseline.monte_carlo", _draw_counts),
)

# Spans whose peak tracemalloc allocation is recorded, by layer.
ALLOC_LAYERS = {
    "ingest.parse_dataset": "ingest",
    "report.build_report": "report",
    "report.render_json": "report",
    "report.render_markdown": "report",
}


class Tracer:
    def __init__(self, alloc: bool):
        self.alloc = alloc
        self.spans = []
        self.counters = {}
        self.alloc_peak_bytes = {}
        self.unwrapped = []
        self._stack = []

    def wrap(self, fn, name, count):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            layer = ALLOC_LAYERS.get(name) if self.alloc else None
            if layer is not None:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if layer is not None:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.alloc_peak_bytes[layer] = max(peak, self.alloc_peak_bytes.get(layer, 0))
            if count is not None:
                bound = signature.bind(*args, **kwargs).arguments
                for key, value in count(bound, result).items():
                    self.counters[key] = self.counters.get(key, 0) + value
            return result
        return wrapper

    def install(self):
        wrappers = {}
        for module_name, attr, name, count in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.unwrapped.append(f"{module_name}.{attr}")
                continue
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self.wrap(fn, name, count)
            setattr(module, attr, wrappers[id(fn)])

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "counters": self.counters,
                       "alloc_peak_bytes": self.alloc_peak_bytes,
                       "unwrapped": self.unwrapped}, f)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--spans", required=True)
    parser.add_argument("--alloc", action="store_true")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from canaudit import cli

    tracer = Tracer(args.alloc)
    tracer.install()
    if args.alloc:
        tracemalloc.start()
    try:
        code = cli.main(cli_args)
        sys.stdout.flush()
    finally:
        if args.alloc:
            tracemalloc.stop()
        tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
