"""RTS004 — lock hygiene: one global order, no cycles, no shader locks.

Builds a static lock-acquisition graph over the concurrency layers
(``serve``, ``parallel``, ``obs``; ``core``/``rtcore`` are scanned too so
shader registrations are visible). Lock *definitions* are recognised at
``self.x = make_lock(...)`` / module-level ``make_lock(...)`` sites;
``threading.Condition(self.x)`` aliases the wrapped lock. Acquisition
*sites* are ``with``-statements and explicit ``.acquire()`` calls; calls
made while holding a lock propagate the callee's (fixpoint) acquisition
summary, so ``A → helper() → with B`` produces the same ``A → B`` edge
as direct nesting.

Findings:

- raw ``threading.Lock()``/``RLock()``/bare ``Condition()`` constructors
  (locks must come from :func:`repro.lockorder.make_lock` so the runtime
  ``REPRO_LOCK_ORDER=1`` mode and the rank table see them);
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
from repro.analysis.findings import Finding
from repro.analysis.framework import Checker, FileContext
from repro.lockorder import RANKS

_RAW_LOCKS = ("Lock", "RLock")


def _is_threading(chain: list[str], leaf: str) -> bool:
    return chain[-1] == leaf and (len(chain) == 1 or chain[-2] == "threading")


class _LockDef:
    """One lock object: identity key, rank (if ranked), definition site."""

    def __init__(self, key: tuple, display: str, rank: int | None, rel: str, lineno: int):
        self.key = key
        self.display = display
        self.rank = rank
        self.rel = rel
        self.lineno = lineno


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
        "REPRO_LOCK_ORDER=1 enables the matching runtime assertion."
    )
    scope = (
        "repro.serve", "repro.parallel", "repro.obs", "repro.core",
        "repro.rtcore", "repro.churn", "repro.plan",
    )
    node_types = ()

    def __init__(self):
        #: (rel, tree) per in-scope file, consumed by finalize().
        self._trees: list[tuple[str, ast.AST]] = []
        self._constructor_findings: list[Finding] = []

    # ------------------------------------------------------------------
    # per-file: stash the tree; flag raw lock constructors immediately
    # ------------------------------------------------------------------

    def begin_file(self, ctx: FileContext) -> None:
        self._trees.append((ctx.rel, ctx.tree))
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
    # whole-program: lock registry, acquisition graph, findings
    # ------------------------------------------------------------------

    def finalize(self):
        locks: dict[tuple, _LockDef] = {}
        aliases: dict[tuple, tuple] = {}       # (class, attr) -> (class, attr)
        attr_locks: dict[tuple, tuple] = {}    # (class, attr) -> lock key
        module_locks: dict[tuple, tuple] = {}  # (rel, var) -> lock key
        attr_types: dict[tuple, str] = {}      # (class, attr) -> class name
        classes: set[str] = set()

        for rel, tree in self._trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    classes.add(node.name)

        def rank_of(call: ast.Call) -> int | None:
            if call.args and isinstance(call.args[0], ast.Constant):
                return RANKS.get(call.args[0].value)
            return None

        def register(key: tuple, display: str, call: ast.Call, rel: str) -> None:
            locks[key] = _LockDef(key, display, rank_of(call), rel, call.lineno)

        # pass 1: lock definitions, aliases, attribute types
        cond_sites: list[tuple] = []  # (rel, cls, wrapped expr, lineno)
        for rel, tree in self._trees:
            for cls, fn, node in _assignments(tree):
                target, value = node
                chain = attr_chain(value.func) if isinstance(value, ast.Call) else None
                if chain and _is_threading(chain, "Condition") and value.args:
                    cond_sites.append((rel, cls, value.args[0], value.lineno))
                if isinstance(target, ast.Attribute) and isinstance(
                    target.value, ast.Name
                ) and target.value.id == "self" and cls is not None:
                    if chain and chain[-1] == "make_lock":
                        key = ("attr", cls, target.attr)
                        attr_locks[(cls, target.attr)] = key
                        register(key, _display(value, f"{cls}.{target.attr}"), value, rel)
                    elif chain and _is_threading(chain, "Condition") and value.args:
                        wrapped = value.args[0]
                        if (
                            isinstance(wrapped, ast.Attribute)
                            and isinstance(wrapped.value, ast.Name)
                            and wrapped.value.id == "self"
                        ):
                            aliases[(cls, target.attr)] = (cls, wrapped.attr)
                    elif chain and chain[-1] in classes:
                        attr_types[(cls, target.attr)] = chain[-1]
                elif isinstance(target, ast.Name) and chain and chain[-1] == "make_lock":
                    key = ("mod", rel, target.id)
                    module_locks[(rel, target.id)] = key
                    register(key, _display(value, f"{rel}:{target.id}"), value, rel)

        # Conditions must demonstrably wrap a make_lock-ranked lock: an
        # Event-style Condition over an anonymous lock reintroduces the
        # unranked blocking the constructor checks just banned.
        cond_findings: list[Finding] = []
        for rel, cls, wrapped, lineno in cond_sites:
            ok = False
            if (
                isinstance(wrapped, ast.Attribute)
                and isinstance(wrapped.value, ast.Name)
                and wrapped.value.id == "self"
                and cls is not None
            ):
                attr = (cls, wrapped.attr)
                seen: set = set()
                while attr in aliases and attr not in seen:
                    seen.add(attr)
                    attr = aliases[attr]
                ok = attr in attr_locks
            elif isinstance(wrapped, ast.Name):
                ok = (rel, wrapped.id) in module_locks
            if not ok:
                cond_findings.append(
                    Finding(
                        rel,
                        lineno,
                        self.rule_id,
                        "threading.Condition must wrap a make_lock-ranked "
                        "lock; the wrapped object is not a visible make_lock "
                        "result",
                    )
                )

        # pass 2: per-function structured walk -> acquires, calls, edges
        units: dict[tuple, dict] = {}  # key -> {acquires, calls, callsites}
        methods: dict[tuple, tuple] = {}     # (class, name) -> unit key
        module_fns: dict[tuple, list] = {}   # (rel, name) -> [unit keys]
        direct_edges: list[tuple] = []       # (held key, acq key, rel, lineno)

        def resolve_lock(expr: ast.AST, rel: str, cls: str | None) -> tuple | None:
            if (
                isinstance(expr, ast.Attribute)
                and isinstance(expr.value, ast.Name)
                and expr.value.id == "self"
                and cls is not None
            ):
                attr = (cls, expr.attr)
                attr = aliases.get(attr, attr)
                return attr_locks.get(attr)
            if isinstance(expr, ast.Name):
                return module_locks.get((rel, expr.id))
            return None

        def callee_descriptor(call: ast.Call, rel: str, cls: str | None) -> tuple | None:
            """An unresolved reference to the called function; resolved
            against methods/module_fns only after every unit is scanned
            (a method may call a sibling defined further down the class)."""
            func = call.func
            if isinstance(func, ast.Name):
                return ("fn", rel, func.id)
            if isinstance(func, ast.Attribute):
                base = func.value
                if isinstance(base, ast.Name) and base.id == "self" and cls is not None:
                    return ("method", cls, func.attr)
                if (
                    isinstance(base, ast.Attribute)
                    and isinstance(base.value, ast.Name)
                    and base.value.id == "self"
                    and cls is not None
                ):
                    owner = attr_types.get((cls, base.attr))
                    if owner is not None:
                        return ("method", owner, func.attr)
            return None

        def resolve_callee(desc: tuple) -> tuple | None:
            if desc[0] == "fn":
                hits = module_fns.get((desc[1], desc[2]))
                return hits[0] if hits else None
            return methods.get((desc[1], desc[2]))

        def scan_unit(rel: str, cls: str | None, fn: ast.AST, key: tuple) -> None:
            unit = units[key] = {"acquires": set(), "calls": set(), "callsites": []}

            def on_call(call: ast.Call, held: tuple) -> None:
                func = call.func
                if isinstance(func, ast.Attribute) and func.attr == "acquire":
                    lock = resolve_lock(func.value, rel, cls)
                    if lock is not None:
                        unit["acquires"].add(lock)
                        for h in held:
                            direct_edges.append((h, lock, rel, call.lineno))
                        return
                desc = callee_descriptor(call, rel, cls)
                if desc is not None:
                    unit["calls"].add(desc)
                    if held:
                        unit["callsites"].append((held, desc, rel, call.lineno))

            def walk_expr(expr: ast.AST, held: tuple) -> None:
                for sub in ast.walk(expr):
                    if isinstance(sub, ast.Call):
                        on_call(sub, held)

            def walk_stmts(stmts: list, held: tuple) -> None:
                for stmt in stmts:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        nested_key = key + (stmt.name,)
                        module_fns.setdefault((rel, stmt.name), []).append(nested_key)
                        scan_unit(rel, cls, stmt, nested_key)
                        continue
                    if isinstance(stmt, (ast.With, ast.AsyncWith)):
                        acquired = []
                        for item in stmt.items:
                            walk_expr(item.context_expr, held)
                            lock = resolve_lock(item.context_expr, rel, cls)
                            if lock is not None:
                                unit["acquires"].add(lock)
                                for h in held + tuple(acquired):
                                    direct_edges.append(
                                        (h, lock, rel, item.context_expr.lineno)
                                    )
                                acquired.append(lock)
                        walk_stmts(stmt.body, held + tuple(acquired))
                        continue
                    for field in ("body", "orelse", "finalbody"):
                        inner = getattr(stmt, field, None)
                        if inner:
                            walk_stmts(inner, held)
                    for handler in getattr(stmt, "handlers", ()):
                        walk_stmts(handler.body, held)
                    for expr in ast.iter_child_nodes(stmt):
                        if isinstance(expr, ast.expr):
                            walk_expr(expr, held)

            walk_stmts(fn.body, ())

        for rel, tree in self._trees:
            for stmt in tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    key = (rel, None, stmt.name)
                    module_fns.setdefault((rel, stmt.name), []).append(key)
                    scan_unit(rel, None, stmt, key)
                elif isinstance(stmt, ast.ClassDef):
                    for sub in stmt.body:
                        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            key = (rel, stmt.name, sub.name)
                            methods[(stmt.name, sub.name)] = key
                            scan_unit(rel, stmt.name, sub, key)

        # pass 3: fixpoint acquisition summaries over the call graph
        # (callee descriptors resolve only now, with every unit known)
        resolved_calls = {
            key: {c for c in map(resolve_callee, unit["calls"]) if c is not None}
            for key, unit in units.items()
        }
        summaries = {key: set(unit["acquires"]) for key, unit in units.items()}
        changed = True
        while changed:
            changed = False
            for key in units:
                before = len(summaries[key])
                for callee in resolved_calls[key]:
                    summaries[key] |= summaries.get(callee, set())
                changed = changed or len(summaries[key]) != before

        edges = list(direct_edges)
        for key, unit in units.items():
            for held, desc, rel, lineno in unit["callsites"]:
                callee = resolve_callee(desc)
                if callee is None:
                    continue
                for h in held:
                    for a in summaries.get(callee, ()):
                        edges.append((h, a, rel, lineno))

        # pass 4: findings from the graph
        def name(key: tuple) -> str:
            d = locks.get(key)
            return d.display if d else str(key)

        findings: list[Finding] = list(cond_findings)
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
            hd, ad = locks.get(h), locks.get(a)
            if hd and ad and hd.rank is not None and ad.rank is not None:
                if ad.rank < hd.rank:
                    findings.append(
                        Finding(
                            rel,
                            lineno,
                            self.rule_id,
                            f"acquires {name(a)} (rank {ad.rank}) while holding "
                            f"{name(h)} (rank {hd.rank}); the global order in "
                            "repro.lockorder.RANKS only descends",
                        )
                    )

        for cycle in _cycles(adjacency):
            d = locks.get(cycle[0])
            findings.append(
                Finding(
                    d.rel if d else "<unknown>",
                    d.lineno if d else 0,
                    self.rule_id,
                    "lock-order cycle: " + " -> ".join(name(k) for k in cycle)
                    + f" -> {name(cycle[0])}",
                )
            )

        for rel, tree in self._trees:
            for shader in sorted(shader_callback_names(tree)):
                for (urel, _ucls, *quals), summary in (
                    (k, summaries[k]) for k in units
                ):
                    if urel == rel and quals and quals[-1] == shader and summary:
                        findings.append(
                            Finding(
                                rel,
                                _unit_line(units, urel, shader, tree),
                                self.rule_id,
                                f"shader callback {shader!r} acquires lock "
                                f"{name(next(iter(sorted(summary))))}; device code "
                                "must never block on host locks",
                            )
                        )
                        break

        return findings


def _display(call: ast.Call, fallback: str) -> str:
    if call.args and isinstance(call.args[0], ast.Constant):
        return repr(call.args[0].value)
    return fallback


def _assignments(tree: ast.AST):
    """(enclosing class name or None, enclosing fn or None, (target, value))
    for every single-target Assign in the file."""
    def visit(node: ast.AST, cls: str | None, fn: ast.AST | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name, None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, cls, child)
            else:
                if isinstance(child, ast.Assign) and len(child.targets) == 1:
                    yield cls, fn, (child.targets[0], child.value)
                yield from visit(child, cls, fn)

    yield from visit(tree, None, None)


def _unit_line(units: dict, rel: str, fn_name: str, tree: ast.AST) -> int:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == fn_name:
            return node.lineno
    return 0


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
