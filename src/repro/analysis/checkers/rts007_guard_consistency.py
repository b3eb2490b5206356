"""RTS007 — guard consistency: one lock guards a shared field, always.

Static half of the Eraser lockset discipline. Using the interprocedural
engine (:mod:`repro.analysis.dataflow`), every attribute of a class in a
concurrency package gets an access summary: each read/write site with
the effective lockset (locks held locally union the locks guaranteed
held on every call path from a thread root) and the set of thread roots
that can reach the access.

A field becomes *suspect* when it is written under a non-empty lockset
somewhere outside ``__init__`` — that write is the author declaring "this
field is lock-protected". The guarding lock is inferred as the
intersection of the locksets of all such writes. The rule then flags:

- any non-init access (read or write) whose lockset is disjoint from the
  inferred guard, provided the field is reachable from at least two
  distinct thread roots (a single-threaded field cannot race);
- fields whose locked writes share **no** common lock (inconsistent
  guards: two halves of the code protect the field with different locks,
  which protects nothing).

Intentional lock-free reads (e.g. an atomic reference publish) take an
inline ``# noqa: RTS007 - why`` waiver.
"""

from __future__ import annotations

from repro.analysis.dataflow import ENGINE_SCOPE, engine_for
from repro.analysis.findings import Finding
from repro.analysis.framework import Checker, FileContext

#: Packages whose classes are held to the guard-consistency discipline
#: (core/rtcore are scanned for call-graph precision but their index
#: structures are single-writer by design and snapshot-isolated).
CONCURRENT_PACKAGES = (
    "repro.serve",
    "repro.churn",
    "repro.obs",
    "repro.plan",
    "repro.parallel",
)


class GuardConsistency(Checker):
    rule_id = "RTS007"
    title = "a lock-guarded field is never accessed lock-free across threads"
    rationale = (
        "The serve scheduler, the background compactor and user threads "
        "share plain Python attributes; the only memory model is 'hold "
        "the right lock'. If a field is written under serve.service "
        "somewhere, a lock-free read from "
        "another thread root sees torn state (a half-updated deque, a "
        "stale epoch) with no error anywhere. This rule infers the "
        "guarding lock per field from the locked writes (Eraser's "
        "candidate-lockset idea, computed statically over the "
        "interprocedural call graph with thread-entry roots) and flags "
        "every access whose effective lockset misses the guard. "
        "REPRO_TSAN=1 enables the matching runtime sanitizer."
    )
    scope = ENGINE_SCOPE
    node_types = ()

    def __init__(self):
        self._files: list[tuple] = []

    def begin_file(self, ctx: FileContext) -> None:
        self._files.append((ctx.rel, ctx.package, ctx.tree, ctx.lines))

    def finalize(self, shared):
        files, self._files = self._files, []
        if not files:
            return []
        engine = engine_for(files, shared)
        findings: list[Finding] = []

        for (cls, field), accesses in sorted(engine.fields.items()):
            pkg = engine.class_package(cls)
            if pkg is not None and not any(
                pkg == p or pkg.startswith(p + ".") for p in CONCURRENT_PACKAGES
            ):
                continue
            live = [a for a in accesses if not a.in_init]
            locked_writes = [
                a for a in live if a.kind == "write" and a.lockset
            ]
            if not locked_writes:
                continue
            involved_roots = frozenset().union(*(a.roots for a in live))
            if len(involved_roots) < 2:
                continue
            guard = frozenset.intersection(*(a.lockset for a in locked_writes))
            if not guard:
                first = min(locked_writes, key=lambda a: (a.rel, a.line))
                findings.append(
                    Finding(
                        first.rel,
                        first.line,
                        self.rule_id,
                        f"writes to {cls}.{field} are guarded by disjoint "
                        "locks on different paths; no single lock protects "
                        "the field",
                    )
                )
                continue
            guard_name = "/".join(
                sorted(engine.lock_display(k) for k in guard)
            )
            for acc in live:
                if not acc.roots:
                    continue  # unreachable helper: no thread to attribute
                if guard & acc.lockset:
                    continue
                roots = ", ".join(sorted(acc.roots))
                findings.append(
                    Finding(
                        acc.rel,
                        acc.line,
                        self.rule_id,
                        f"{acc.kind} of {cls}.{field} without lock "
                        f"{guard_name} (field is written under it elsewhere; "
                        f"this site is reachable from: {roots})",
                    )
                )
        return findings
