"""RTS009 — thread-identity discipline: affinity comments are enforced.

Some methods are correct only on one thread: the serve scheduler's
``_collect_batch``/``_finish_batch`` mutate batching state that is
single-consumer by design, and ``SpatialQueryService.compact`` must only
be entered by the caller thread or the background compactor — never the
scheduler, which would deadlock the epoch publication it is itself
draining. Those contracts used to live in docstrings; this rule makes
them checkable.

Annotate a function with a ``# thread: <label>[, <label>...]`` comment on
(or directly above) its ``def`` line, naming the thread roots allowed to
reach it. Labels are the constant ``name=`` kwarg of the spawning
``threading.Thread(...)`` call (falling back to the target function
name), plus the reserved ``main`` for public entry points. The
interprocedural engine computes which roots can actually reach each
function; reachability from an unlisted root is a finding at the
function's ``def`` line.
"""

from __future__ import annotations

from repro.analysis.dataflow import ENGINE_SCOPE, engine_for
from repro.analysis.findings import Finding
from repro.analysis.framework import Checker, FileContext


class ThreadIdentity(Checker):
    rule_id = "RTS009"
    title = "# thread: affinity annotations match call-graph reachability"
    rationale = (
        "Single-consumer invariants (the scheduler owns the admission "
        "queue, the compactor owns compaction routing) are enforced by "
        "code structure, not locks — so a refactor that makes a "
        "scheduler-only helper reachable from the main thread compiles, "
        "runs, and corrupts batching state in production. '# thread:' "
        "comments declare the allowed roots; this rule recomputes "
        "reachability from every threading.Thread(target=...) root and "
        "the implicit main root on each run, so the documentation *is* "
        "the check."
    )
    scope = ENGINE_SCOPE
    node_types = ()

    def __init__(self):
        self._files: list[tuple] = []

    def begin_file(self, ctx: FileContext) -> None:
        self._files.append((ctx.rel, ctx.package, ctx.tree, ctx.lines))

    def finalize(self):
        files, self._files = self._files, []
        if not files:
            return []
        engine = engine_for(files)
        known_labels = set(engine.thread_roots)
        findings: list[Finding] = []
        for key in sorted(engine.units, key=lambda k: tuple(map(str, k))):
            unit = engine.units[key]
            allowed = engine.thread_note(unit)
            if allowed is None:
                continue
            qual = f"{unit.cls}.{unit.name}" if unit.cls else unit.name
            unknown = [lbl for lbl in allowed if lbl not in known_labels]
            if unknown:
                findings.append(
                    Finding(
                        unit.rel,
                        unit.lineno,
                        self.rule_id,
                        f"{qual} names unknown thread root(s) "
                        f"{', '.join(sorted(unknown))} — labels must match a "
                        "threading.Thread name= constant, the thread target "
                        "function name, or 'main'",
                    )
                )
            reaching = engine.unit_roots.get(key, frozenset())
            bad = sorted(reaching - set(allowed))
            if bad:
                findings.append(
                    Finding(
                        unit.rel,
                        unit.lineno,
                        self.rule_id,
                        f"{qual} is documented '# thread: "
                        f"{', '.join(allowed)}' but is reachable from thread "
                        f"root(s): {', '.join(bad)}",
                    )
                )
        return findings
