"""RTS005 — resource pairing for pool-holding objects.

``RTSIndex``, ``ChunkedExecutor`` and ``SpatialQueryService`` pin thread
pools (and, for the service, scheduler threads) that outlive garbage
collection; dropping one on the floor leaks OS threads for the process
lifetime — the exact leak PR 3 shipped in the bench harness. Every
construction must be visibly paired with a release:

- under a ``with`` statement (all three are context managers); or
- assigned inside a function whose ``try``/``finally`` calls
  ``.close()``/``.shutdown()``; or
- handed straight to another call / returned (ownership transferred); or
- stored on ``self``/a container (owned by the enclosing object, which
  is itself subject to this rule); or
- annotated with an ``# owner:`` comment naming who releases it.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.common import attr_chain
from repro.analysis.findings import Finding
from repro.analysis.framework import Checker, FileContext

#: Classes whose instances pin threads / pool references.
CLOSEABLE = frozenset({"RTSIndex", "ChunkedExecutor", "SpatialQueryService"})

_RELEASERS = frozenset({"close", "shutdown"})


class ResourcePairing(Checker):
    rule_id = "RTS005"
    title = "pool-holding objects need a visible release path"
    rationale = (
        "RTSIndex, ChunkedExecutor and SpatialQueryService pin worker "
        "threads; the GC never joins them. A constructor call must sit "
        "under a with-statement, in a function whose finally calls "
        ".close()/.shutdown(), be handed off (argument/return/self-"
        "attribute), or carry an '# owner:' comment naming the releaser. "
        "PR 3's bench harness leaked a pool per run exactly this way, "
        "and this PR's serve layer leaked retired epoch snapshots until "
        "the scheduler learned to close them."
    )
    scope = None
    node_types = (ast.Call,)

    def __init__(self):
        self._findings: list[Finding] = []

    def begin_file(self, ctx: FileContext) -> None:
        self._findings = []

    def visit(self, ctx: FileContext, node: ast.Call) -> None:
        chain = attr_chain(node.func)
        if not chain or chain[-1] not in CLOSEABLE:
            return
        if self._paired(ctx, node):
            return
        self._findings.append(
            Finding(
                ctx.rel,
                node.lineno,
                self.rule_id,
                f"{chain[-1]} constructed without a visible release: use "
                "'with', a try/finally calling .close(), or an '# owner:' "
                "comment naming the releaser",
            )
        )

    def end_file(self, ctx: FileContext):
        return self._findings

    # ------------------------------------------------------------------

    def _paired(self, ctx: FileContext, node: ast.Call) -> bool:
        prev = node
        for parent in ctx.parent_chain(node):
            if isinstance(parent, ast.withitem):
                return True
            if isinstance(parent, ast.Call) and prev is not parent.func:
                return True  # passed as an argument: ownership transferred
            if isinstance(parent, (ast.Return, ast.Yield, ast.YieldFrom, ast.Lambda)):
                return True  # handed to the caller
            if isinstance(parent, ast.Assign) and any(
                isinstance(t, (ast.Attribute, ast.Subscript)) for t in parent.targets
            ):
                return True  # stored on self / in a container
            if isinstance(parent, ast.stmt):
                if self._owner_tag(ctx, parent.lineno):
                    return True
                return self._closed_in_finally(ctx, parent)
            prev = parent
        return False

    def _owner_tag(self, ctx: FileContext, lineno: int) -> bool:
        """``# owner:`` on the statement line or a comment line just above."""
        if "owner:" in ctx.line_comment(lineno):
            return True
        above = ctx.lines[lineno - 2].strip() if lineno >= 2 else ""
        return above.startswith("#") and "owner:" in above

    def _closed_in_finally(self, ctx: FileContext, stmt: ast.stmt) -> bool:
        """Does any enclosing function of ``stmt`` close something in a
        ``finally`` block (or does an enclosing Try's finally)?"""
        for parent in ctx.parent_chain(stmt):
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)):
                scope = parent
                break
        else:
            return False
        for sub in ast.walk(scope):
            if isinstance(sub, ast.Try) and sub.finalbody:
                for inner in sub.finalbody:
                    for call in ast.walk(inner):
                        if (
                            isinstance(call, ast.Call)
                            and isinstance(call.func, ast.Attribute)
                            and call.func.attr in _RELEASERS
                        ):
                            return True
        return False
