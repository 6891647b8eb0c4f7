"""Command-line front end for novalint.

Reachable three ways — ``nova-repro lint ...``, ``python -m
repro.analysis ...`` and :func:`main` from tests — all sharing this
argument surface::

    lint [paths ...] [--format {text,json}] [--strict] [--output FILE]

Default paths are the repo's linted surface (``src``, ``benchmarks``,
``examples``); pass explicit paths to narrow a run.  Exit status: 0
when clean, 1 on findings (unsuppressed errors normally; any
unsuppressed finding under ``--strict``), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.engine import (
    render_json,
    render_text,
    run_lint,
    summarize,
)
from repro.analysis.rules import ALL_RULES

__all__ = ["add_lint_arguments", "run_from_args", "main"]

DEFAULT_PATHS = ("src", "benchmarks", "examples", "perfbench")


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to ``parser`` (shared with nova-repro)."""
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: "
        + " ".join(DEFAULT_PATHS) + ")",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="format",
        help="report format (json is the CI artifact schema)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="fail on warnings too, not just errors",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="also write the report to this file",
    )


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a lint run described by parsed arguments."""
    paths = list(args.paths) or [Path(p) for p in DEFAULT_PATHS]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(
            f"novalint: no such path(s): {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2
    findings, n_files = run_lint(paths, ALL_RULES)
    renderer = render_json if args.format == "json" else render_text
    report = renderer(findings, n_files)
    print(report)
    if args.output is not None:
        args.output.write_text(report + "\n", encoding="utf-8")
    counts = summarize(findings)
    failures = (
        counts["errors"] + counts["warnings"]
        if args.strict
        else counts["errors"]
    )
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="novalint: AST invariant analyzer for the NOVA stack.",
    )
    add_lint_arguments(parser)
    return run_from_args(parser.parse_args(argv))
