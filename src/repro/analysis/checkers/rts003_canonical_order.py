"""RTS003 — canonical (query, prim) pair order.

Result pairs are query-major everywhere (primary key query id,
secondary key rect id); ``np.searchsorted``-based scatter in the serve
batcher and positional pair diffs in tests rely on it. Sorting pairs
with a bare ``np.lexsort`` invites swapped sort keys — the exact bug
class PR 1's shard merge shipped. All pair sorting in the pair-handling
packages must route through :mod:`repro.canonical`.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.common import NUMPY_ALIASES, attr_chain
from repro.analysis.findings import Finding
from repro.analysis.framework import Checker, FileContext


class CanonicalOrder(Checker):
    rule_id = "RTS003"
    title = "pair sorting must route through repro.canonical"
    rationale = (
        "The query-major pair order is load-bearing: core/result.py "
        "sorts once, serve/batcher.py scatters with searchsorted, the "
        "parallel executor merges shards under it. An ad-hoc np.lexsort "
        "can silently swap the keys (PR 1's shard-merge bug). Call "
        "repro.canonical.canonical_pair_order / canonical_pairs instead "
        "— one definition, one order."
    )
    scope = ("repro.core", "repro.geometry", "repro.parallel", "repro.serve")
    node_types = (ast.Call,)

    def __init__(self):
        self._findings: list[Finding] = []

    def begin_file(self, ctx: FileContext) -> None:
        self._findings = []

    def visit(self, ctx: FileContext, node: ast.Call) -> None:
        chain = attr_chain(node.func)
        if (
            chain
            and len(chain) == 2
            and chain[0] in NUMPY_ALIASES
            and chain[1] == "lexsort"
        ):
            self._findings.append(
                Finding(
                    ctx.rel,
                    node.lineno,
                    self.rule_id,
                    "ad-hoc np.lexsort in a pair-handling package; use "
                    "repro.canonical.canonical_pair_order / canonical_pairs",
                )
            )

    def end_file(self, ctx: FileContext):
        return self._findings
