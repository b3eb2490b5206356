"""The AST-walking framework: one parse, one walk, many checkers.

Each source file is parsed once and walked once; checkers subscribe to
node types (``node_types``) and receive a dispatch callback per matching
node, plus ``begin_file``/``end_file`` hooks for per-file setup and
cross-referencing. Every rule is per-file. Checkers yield
:class:`~repro.analysis.findings.Finding` records; the analyzer drops
inline ``# noqa`` waivers before returning them.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.findings import Finding, parse_noqa, waived
from repro.analysis.project import SourceFile


class FileContext:
    """Everything a checker may read about one source file."""

    def __init__(self, path: Path, rel: str, package: str | None, source: str):
        self.path = path
        self.rel = rel
        self.package = package
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=rel)
        self.noqa = parse_noqa(self.lines)
        #: node -> parent node, filled by the analyzer's single walk.
        self.parents: dict[ast.AST, ast.AST] = {}

    def line_comment(self, lineno: int) -> str:
        """The comment part (after ``#``) of a 1-based source line."""
        if not 1 <= lineno <= len(self.lines):
            return ""
        text = self.lines[lineno - 1]
        i = text.find("#")
        return text[i + 1 :] if i >= 0 else ""

    def parent_chain(self, node: ast.AST) -> Iterator[ast.AST]:
        p = self.parents.get(node)
        while p is not None:
            yield p
            p = self.parents.get(p)


class Checker:
    """Base checker. Subclasses set the rule metadata and hooks."""

    rule_id: str = "RTS000"
    title: str = ""
    #: Shown by ``--explain``: what the rule protects and why.
    rationale: str = ""
    #: Dotted package prefixes the rule applies to inside ``src/repro``;
    #: None applies everywhere. Files with no package (out-of-tree, e.g.
    #: test fixtures) are always in scope.
    scope: tuple[str, ...] | None = None
    #: AST node classes dispatched to :meth:`visit`.
    node_types: tuple = ()

    def in_scope(self, ctx: FileContext) -> bool:
        if ctx.package is None or self.scope is None:
            return True
        return any(
            ctx.package == p or ctx.package.startswith(p + ".") for p in self.scope
        )

    def begin_file(self, ctx: FileContext) -> None:
        pass

    def visit(self, ctx: FileContext, node: ast.AST) -> None:
        pass

    def end_file(self, ctx: FileContext) -> Iterable[Finding]:
        return ()


class Analyzer:
    """Runs a checker set over source files; one shared walk per file."""

    def __init__(self, checkers: Iterable[Checker]):
        self.checkers = list(checkers)

    def run(self, files: Iterable[SourceFile]) -> list[Finding]:
        findings: set[Finding] = set()
        for sf in files:
            try:
                source = sf.path.read_text()
                ctx = FileContext(sf.path, sf.rel, sf.package, source)
            except (OSError, SyntaxError, ValueError) as err:
                lineno = getattr(err, "lineno", 0) or 0
                findings.add(
                    Finding(sf.rel, lineno, "RTS000", f"unparseable file: {err}")
                )
                continue
            active = [c for c in self.checkers if c.in_scope(ctx)]
            dispatch: dict[type, list[Checker]] = {}
            for checker in active:
                checker.begin_file(ctx)
                for node_type in checker.node_types:
                    dispatch.setdefault(node_type, []).append(checker)
            for node in ast.walk(ctx.tree):
                for child in ast.iter_child_nodes(node):
                    ctx.parents[child] = node
                for checker in dispatch.get(type(node), ()):
                    checker.visit(ctx, node)
            for checker in active:
                findings.update(
                    f for f in checker.end_file(ctx) if not waived(f, ctx.noqa)
                )
        return sorted(findings, key=Finding.sort_key)
