"""Command line front end: ``python -m repro.analysis``.

Exit status 0 when no finding survives its inline ``# noqa`` waivers,
1 otherwise — CI runs ``--check``. ``--explain RULE`` prints a rule's
rationale; ``--sarif OUT.sarif`` additionally writes the findings as
SARIF 2.1.0 for CI annotation upload.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.checkers import ALL_CHECKERS, default_checkers
from repro.analysis.framework import Analyzer
from repro.analysis.project import default_paths, discover
from repro.analysis.sarif import write_sarif


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based invariant checker (rules RTS002-RTS006).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to scan (default: src/repro)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero on unwaived findings (the CI gate)",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        help="print a rule's title and rationale (e.g. --explain RTS004)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rule ids and titles"
    )
    parser.add_argument(
        "--json", action="store_true", help="emit findings as JSON records"
    )
    parser.add_argument(
        "--sarif",
        type=Path,
        metavar="OUT.sarif",
        default=None,
        help="also write the findings as SARIF 2.1.0 (for CI upload)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for cls in ALL_CHECKERS:
            print(f"{cls.rule_id}  {cls.title}")
        return 0

    if args.explain:
        rule = args.explain.upper()
        for cls in ALL_CHECKERS:
            if cls.rule_id == rule:
                print(f"{cls.rule_id}: {cls.title}")
                scope = ", ".join(cls.scope) if cls.scope else "everywhere"
                print(f"scope: {scope}")
                print()
                print(cls.rationale)
                return 0
        print(f"unknown rule {rule!r}; try --list-rules", file=sys.stderr)
        return 2

    files = discover(args.paths if args.paths else default_paths())
    findings = Analyzer(default_checkers()).run(files)

    if args.sarif is not None:
        write_sarif(findings, args.sarif)

    if args.json:
        print(
            json.dumps(
                [
                    {
                        "file": f.file,
                        "line": f.line,
                        "rule": f.rule_id,
                        "message": f.message,
                    }
                    for f in findings
                ],
                indent=2,
            )
        )
    else:
        for f in findings:
            print(f.format())

    if findings:
        print(f"{len(findings)} finding(s) in {len(files)} file(s)", file=sys.stderr)
    # --check is documentation of intent; the exit code is the same either
    # way so local runs and CI can't disagree.
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
