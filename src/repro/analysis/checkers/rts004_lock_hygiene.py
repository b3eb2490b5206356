"""RTS004 — lock hygiene: one global order, no cycles, no shader locks.

Builds a static lock-acquisition graph from the shared dataflow engine
(:mod:`repro.analysis.dataflow`), which already records every lock
definition (``self.x = make_lock(...)`` / module-level ``make_lock(...)``,
with ``threading.Condition(self.x)`` aliasing the wrapped lock), every
acquisition site (``with``-blocks and explicit ``.acquire()`` calls,
each with the locks held there) and the resolved call graph. Calls made
while holding a lock propagate the callee's (fixpoint) acquisition
summary, so ``A → helper() → with B`` produces the same ``A → B`` edge
as direct nesting — including calls through typed parameters and
property getters.

Findings:

- raw ``threading.Lock()``/``RLock()``/bare ``Condition()`` constructors
  (locks must come from :func:`repro.lockorder.make_lock` so the runtime
  ``REPRO_TSAN=1`` mode and the rank table see them);
- ``threading.Event()`` constructors (an Event hides an unranked lock
  and an unrankable wait edge; signal through a ``Condition`` wrapping a
  ranked lock instead) and ``Condition(x)`` where ``x`` cannot be shown
  to be a ``make_lock``-ranked lock;
- an edge that *descends* the :data:`repro.lockorder.RANKS` order;
- a lock re-acquired while already held (self-deadlock on a
  non-reentrant lock);
- cycles in the acquisition graph;
- shader callbacks whose acquisition summary is non-empty (device code
  must never block on host locks).
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.common import attr_chain, shader_callback_names
from repro.analysis.dataflow import ENGINE_SCOPE, engine_for
from repro.analysis.findings import Finding
from repro.analysis.framework import Checker, FileContext

_RAW_LOCKS = ("Lock", "RLock")


def _is_threading(chain: list[str], leaf: str) -> bool:
    return chain[-1] == leaf and (len(chain) == 1 or chain[-2] == "threading")


class LockHygiene(Checker):
    rule_id = "RTS004"
    title = "locks follow the one global order in repro.lockorder.RANKS"
    rationale = (
        "serve/parallel/obs share threads: the scheduler records metrics, "
        "client threads drive the service, the executor hands work "
        "to pool threads. One global lock order (repro.lockorder.RANKS) "
        "makes deadlock impossible by construction. This rule builds the "
        "static acquisition graph — with-blocks, .acquire() calls, and "
        "calls made while holding a lock (transitively) — and flags "
        "rank-descending edges, cycles, re-acquisition of a held "
        "non-reentrant lock, raw threading.Lock constructors that bypass "
        "make_lock, and shader callbacks that touch any lock at all. "
        "REPRO_TSAN=1 enables the matching runtime assertion."
    )
    scope = ENGINE_SCOPE
    node_types = ()

    def __init__(self):
        self._files: list[tuple] = []
        self._constructor_findings: list[Finding] = []

    # ------------------------------------------------------------------
    # per-file: stash the tree; flag raw lock constructors immediately
    # ------------------------------------------------------------------

    def begin_file(self, ctx: FileContext) -> None:
        self._files.append((ctx.rel, ctx.package, ctx.tree, ctx.lines))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if chain is None:
                continue
            raw = any(_is_threading(chain, leaf) for leaf in _RAW_LOCKS)
            bare_cond = _is_threading(chain, "Condition") and not node.args
            if raw or bare_cond:
                what = chain[-1] + "()"
                self._constructor_findings.append(
                    Finding(
                        ctx.rel,
                        node.lineno,
                        self.rule_id,
                        f"raw threading.{what} bypasses the rank table; use "
                        "repro.lockorder.make_lock (or wrap an existing ranked "
                        "lock in Condition)",
                    )
                )
            elif _is_threading(chain, "Event"):
                self._constructor_findings.append(
                    Finding(
                        ctx.rel,
                        node.lineno,
                        self.rule_id,
                        "threading.Event() hides an unranked lock and an "
                        "unrankable wait edge; signal through a "
                        "threading.Condition wrapping a make_lock-ranked lock",
                    )
                )

    def end_file(self, ctx: FileContext):
        found, self._constructor_findings = self._constructor_findings, []
        return found

    # ------------------------------------------------------------------
    # whole-program: acquisition graph over the dataflow engine, findings
    # ------------------------------------------------------------------

    def finalize(self, shared):
        files, self._files = self._files, []
        if not files:
            return []
        engine = engine_for(files, shared)
        name = engine.lock_display
        findings: list[Finding] = []

        # Conditions must demonstrably wrap a make_lock-ranked lock: an
        # Event-style Condition over an anonymous lock reintroduces the
        # unranked blocking the constructor checks just banned.
        for rel, cls, wrapped, lineno in engine.conditions:
            if engine.lock_of(wrapped, rel, cls) is None:
                findings.append(
                    Finding(
                        rel,
                        lineno,
                        self.rule_id,
                        "threading.Condition must wrap a make_lock-ranked "
                        "lock; the wrapped object is not a visible make_lock "
                        "result",
                    )
                )

        # Acquisition summaries: the locks each unit may take, itself or
        # through any resolved callee (fixpoint over the call graph).
        summaries = {
            key: {lock for lock, _held, _line in unit.acquires}
            for key, unit in engine.units.items()
        }
        changed = True
        while changed:
            changed = False
            for key, calls in engine.resolved_calls.items():
                before = len(summaries[key])
                for callee, _held, _line in calls:
                    summaries[key] |= summaries[callee]
                changed = changed or len(summaries[key]) != before

        # Edges: held -> acquired, for direct acquisitions and for every
        # lock a callee may take while the caller holds one.
        edges: list[tuple] = []
        for key, unit in engine.units.items():
            for lock, held, line in unit.acquires:
                edges.extend((h, lock, unit.rel, line) for h in held)
            for callee, held, line in engine.resolved_calls[key]:
                edges.extend(
                    (h, a, unit.rel, line) for h in held for a in summaries[callee]
                )

        adjacency: dict[tuple, set] = {}
        for h, a, rel, lineno in edges:
            if h == a:
                findings.append(
                    Finding(
                        rel,
                        lineno,
                        self.rule_id,
                        f"lock {name(h)} re-acquired while already held "
                        "(self-deadlock: make_lock locks are non-reentrant)",
                    )
                )
                continue
            adjacency.setdefault(h, set()).add(a)
            hr, ar = engine.lock_ranks[h], engine.lock_ranks[a]
            if hr is not None and ar is not None and ar < hr:
                findings.append(
                    Finding(
                        rel,
                        lineno,
                        self.rule_id,
                        f"acquires {name(a)} (rank {ar}) while holding "
                        f"{name(h)} (rank {hr}); the global order in "
                        "repro.lockorder.RANKS only descends",
                    )
                )

        for cycle in _cycles(adjacency):
            rel, lineno = engine.lock_sites[cycle[0]]
            findings.append(
                Finding(
                    rel,
                    lineno,
                    self.rule_id,
                    "lock-order cycle: " + " -> ".join(name(k) for k in cycle)
                    + f" -> {name(cycle[0])}",
                )
            )

        shaders = {
            rel: shader_callback_names(tree) for rel, _pkg, tree, _lines in engine.files
        }
        for key, unit in engine.units.items():
            if unit.name in shaders[unit.rel] and summaries[key]:
                findings.append(
                    Finding(
                        unit.rel,
                        unit.lineno,
                        self.rule_id,
                        f"shader callback {unit.name!r} acquires lock "
                        f"{name(min(summaries[key]))}; device code "
                        "must never block on host locks",
                    )
                )

        return findings


def _cycles(adjacency: dict) -> list[list]:
    """Elementary cycles found by DFS back-edges (one report per cycle)."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict = {}
    stack: list = []
    out: list[list] = []
    seen_cycles: set = set()

    def dfs(node) -> None:
        color[node] = GRAY
        stack.append(node)
        for nxt in sorted(adjacency.get(node, ()), key=str):
            state = color.get(nxt, WHITE)
            if state == WHITE:
                dfs(nxt)
            elif state == GRAY:
                cycle = stack[stack.index(nxt):]
                canon = tuple(sorted(map(str, cycle)))
                if canon not in seen_cycles:
                    seen_cycles.add(canon)
                    out.append(list(cycle))
        stack.pop()
        color[node] = BLACK

    for node in sorted(adjacency, key=str):
        if color.get(node, WHITE) == WHITE:
            dfs(node)
    return out
