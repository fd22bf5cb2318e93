"""``python -m repro.lint`` — CI-friendly determinism linter.

Exit codes: 0 = clean (every finding fixed or suppressed inline), 1 =
findings, 2 = usage error (unknown rule code, missing path).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from . import rules  # noqa: F401  (registers the rule classes)
from .config import DEFAULT_CONFIG
from .core import RULES, lint_paths

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Determinism & sim-correctness static analysis "
                    "(per-file rules D101-D103, D105 and D106 plus "
                    "whole-program rules D107, D109 and D111).")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--select", metavar="CODES",
                        help="comma-separated rule codes to run "
                             "(default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for code, cls in sorted(RULES.items()):
            print(f"{code}  {cls.summary}")
        return 0

    select = None
    if args.select:
        select = [c.strip() for c in args.select.split(",") if c.strip()]
        unknown = sorted(set(select) - set(RULES))
        if unknown:
            print(f"repro.lint: unknown rule code(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"repro.lint: no such path: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    findings = lint_paths(args.paths, DEFAULT_CONFIG, select)
    for f in findings:
        print(f.render())
    print(f"repro.lint: {len(findings)} finding(s)", file=sys.stderr)
    return 1 if findings else 0
