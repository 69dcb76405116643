"""Command-line interface: audit loss files, print exact baselines, simulate, ROC.

Exit codes: 0 on success, 1 on a dataset parse/validation problem, an
unreadable input, an unwritable output or arrays that memory cannot hold
(diagnostic on stderr), 2 on invalid flags. Every flag is checked before the
input is read, by the library rule that owns it and with that rule's message.
A loss file is JSON Lines if ``{`` leads it past a BOM and whitespace, else CSV.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

from .attack import roc, roc_to_csv
from .audit import audit_pipeline
from .baseline import exact_baseline
from .ingest import DatasetError, _unit_interval, parse_dataset, serialize_dataset
from .report import build_report, render_csv, render_json, render_markdown
from .simulate import GaussianShiftModel, simulate


def _flag_checked(parser: argparse.ArgumentParser, check, *args, **kwargs):
    """``check(*args, **kwargs)``, its ValueError a flag error (exit 2). Only rule
    checks and calls that validate before they compute go through here."""
    try:
        return check(*args, **kwargs)
    except ValueError as exc:
        parser.error(str(exc))


def _load_dataset(args: argparse.Namespace):
    raw = Path(args.file).read_bytes()
    return parse_dataset(raw, "jsonl" if re.match(rb"(?:\xef\xbb\xbf)?\s*{", raw) else "csv")


def _write(text: str, out_file: str | None) -> None:
    if out_file is None:
        sys.stdout.write(text)
    else:
        Path(out_file).write_text(text, encoding="utf-8")


def _parse_statistic(parser: argparse.ArgumentParser, token: str) -> float | None:
    if token == "mean":
        return None
    if token.startswith("quantile="):
        try:
            return float(token.split("=", 1)[1])
        except ValueError:
            parser.error(f"malformed quantile in --statistic {token!r}")
    parser.error(f"--statistic must be 'mean' or 'quantile=Q', got {token!r}")


def _cmd_audit(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _flag_checked(parser, _unit_interval, args.confidence, "--confidence")
    for target in args.fpr_target:
        _flag_checked(parser, _unit_interval, target, "--fpr-target", closed=True)
    d = _load_dataset(args)
    result = audit_pipeline(d, ["median", *args.fpr_target], confidence=args.confidence)
    document = build_report(d, result)
    renderer = {"json": render_json, "md": render_markdown, "csv": render_csv}[args.out]
    sys.stdout.write(renderer(document))
    return 0


def _cmd_baseline(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    q = _parse_statistic(parser, args.statistic)
    summary = _flag_checked(parser, exact_baseline, args.m, args.n, q)
    name = "mean" if q is None else f"quantile {q:g}"
    print(f"random-guessing baseline for {name} exposure (m={args.m}, n={args.n})")
    print(f"  exact:       {summary.mean!r}")
    print(f"  asymptotic:  {summary.asymptotic_value!r}")
    print(f"  exact std:   {summary.std!r}")
    for p, value in summary.quantiles.items():
        print(f"    null quantile {p:g}: {value!r}")
    return 0


def _cmd_simulate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    model = _flag_checked(parser, GaussianShiftModel, mu=args.mu, m=args.m, n=args.n,
                          seed=args.seed)
    d = simulate(model)
    _write(serialize_dataset(d, args.format), args.out_file)
    print(f"wrote {d.m} canaries and {d.n} references to {args.out_file}")
    return 0


def _cmd_roc(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    _write(roc_to_csv(roc(_load_dataset(args))), args.out_file)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canaudit",
        description="Audit training privacy from canary/reference loss files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    audit = sub.add_parser(
        "audit", help="exposure report, baselines, and epsilon lower bounds"
    )
    audit.add_argument("file", help="loss file (CSV or JSONL)")
    audit.add_argument("--confidence", type=float, default=0.95,
                       help="confidence level for epsilon bounds (default 0.95)")
    audit.add_argument("--fpr-target", type=float, action="append", default=[],
                       metavar="FPR", help="extra low-FPR operating point (repeatable)")
    audit.add_argument("--out", choices=["json", "md", "csv"], default="json",
                       help="report rendering (default json)")
    audit.set_defaults(func=_cmd_audit)

    baseline = sub.add_parser(
        "baseline", help="random-guessing baseline for an exposure statistic",
        description="Exact mean and std under the permutation null of the audit's p-values, "
        "and for a quantile its null quantiles: the mean's have no closed form.",
    )
    baseline.add_argument("--m", type=int, required=True, help="number of canaries")
    baseline.add_argument("--n", type=int, required=True, help="number of references")
    baseline.add_argument("--statistic", default="mean",
                          help="'mean' or 'quantile=Q' (default mean)")
    baseline.set_defaults(func=_cmd_baseline)

    sim = sub.add_parser("simulate", help="write a synthetic loss file")
    sim.add_argument("--mu", type=float, required=True,
                     help="memorization shift (0 = random guessing)")
    sim.add_argument("--m", type=int, required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out-file", required=True)
    sim.add_argument("--format", choices=["csv", "jsonl"], default="csv")
    sim.set_defaults(func=_cmd_simulate)

    roc_cmd = sub.add_parser("roc", help="full threshold sweep as CSV")
    roc_cmd.add_argument("file", help="loss file (CSV or JSONL)")
    roc_cmd.add_argument("--out-file", default=None,
                         help="write CSV here instead of stdout")
    roc_cmd.set_defaults(func=_cmd_roc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except (DatasetError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
