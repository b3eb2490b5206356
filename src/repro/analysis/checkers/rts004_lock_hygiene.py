"""RTS004 — lock hygiene: every lock is a ranked ``make_lock`` lock.

A per-file syntactic rule. The lock order itself (no descent, no
re-acquisition, no equal-rank nesting, hence no cycle) is asserted at
runtime by :class:`repro.lockorder.OrderedLock` under ``REPRO_TSAN=1``,
and that check only sees locks built by :func:`repro.lockorder.make_lock`.
This rule flags the constructors that would hide a lock from it:

- raw ``threading.Lock()``/``RLock()`` and bare ``Condition()``;
- ``threading.Event()`` (an unranked lock and an unrankable wait edge;
  signal through a ``Condition`` wrapping a ranked lock instead);
- ``threading.Condition(x)`` unless ``x`` is a ``make_lock(...)`` call
  or a ``self.<attr>`` that the same class assigns from one.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.common import attr_chain
from repro.analysis.findings import Finding
from repro.analysis.framework import Checker, FileContext

_RAW_LOCKS = ("Lock", "RLock")


def _is_threading(chain: list[str], leaf: str) -> bool:
    return chain[-1] == leaf and (len(chain) == 1 or chain[-2] == "threading")


def _is_make_lock(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    chain = attr_chain(node.func)
    return chain is not None and chain[-1] == "make_lock"


def _ranked_lock(ctx: FileContext, node: ast.AST, wrapped: ast.AST) -> bool:
    """Is ``wrapped`` a ``make_lock(...)`` call, or ``self.<attr>``
    assigned from one in the class enclosing ``node``?"""
    if _is_make_lock(wrapped):
        return True
    chain = attr_chain(wrapped)
    if chain is None or len(chain) != 2 or chain[0] != "self":
        return False
    cls = next(
        (p for p in ctx.parent_chain(node) if isinstance(p, ast.ClassDef)), None
    )
    return cls is not None and any(
        isinstance(n, ast.Assign)
        and _is_make_lock(n.value)
        and any(attr_chain(t) == chain for t in n.targets)
        for n in ast.walk(cls)
    )


class LockHygiene(Checker):
    rule_id = "RTS004"
    title = "every lock comes from repro.lockorder.make_lock"
    rationale = (
        "serve/churn/obs/parallel share threads: the scheduler records "
        "metrics, client threads drive the service, the compactor "
        "publishes epochs. One global lock order (repro.lockorder.RANKS) "
        "keeps them deadlock-free, and under REPRO_TSAN=1 every make_lock "
        "lock asserts it before blocking and feeds the Eraser race "
        "sanitizer (repro.tsan). A raw threading.Lock/RLock, a bare "
        "Condition(), a threading.Event, or a Condition over anything but "
        "a make_lock lock escapes both checks, so this rule flags them."
    )
    scope = (
        "repro.serve",
        "repro.churn",
        "repro.obs",
        "repro.plan",
        "repro.parallel",
        "repro.core",
        "repro.rtcore",
    )
    node_types = (ast.Call,)

    def __init__(self):
        self._findings: list[Finding] = []

    def begin_file(self, ctx: FileContext) -> None:
        self._findings = []

    def visit(self, ctx: FileContext, node: ast.Call) -> None:
        chain = attr_chain(node.func)
        if chain is None:
            return
        if any(_is_threading(chain, leaf) for leaf in _RAW_LOCKS) or (
            _is_threading(chain, "Condition") and not node.args
        ):
            message = (
                f"raw threading.{chain[-1]}() bypasses the rank table; use "
                "repro.lockorder.make_lock (or wrap an existing ranked "
                "lock in Condition)"
            )
        elif _is_threading(chain, "Event"):
            message = (
                "threading.Event() hides an unranked lock and an "
                "unrankable wait edge; signal through a "
                "threading.Condition wrapping a make_lock-ranked lock"
            )
        elif _is_threading(chain, "Condition") and not _ranked_lock(
            ctx, node, node.args[0]
        ):
            message = (
                "threading.Condition must wrap a make_lock-ranked lock; "
                "the wrapped object is not a visible make_lock result"
            )
        else:
            return
        self._findings.append(Finding(ctx.rel, node.lineno, self.rule_id, message))

    def end_file(self, ctx: FileContext):
        return self._findings
