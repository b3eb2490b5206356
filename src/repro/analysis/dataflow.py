"""Interprocedural dataflow engine behind RTS004 and RTS007.

One engine instance is built per analyzer run from the parsed trees of
every in-scope file (kept in the run's shared dict, so the two
concurrency rules share it and it dies with the run). It computes,
whole-program:

- a **call graph** over module functions, methods, nested functions and
  property getters, with receivers typed through ``self.attr = Cls(...)``
  assignments, parameter annotations (including string forward refs) and
  local constructor assignments, resolved through base classes and
  ``from pkg import name`` tables;
- **thread roots**: every ``threading.Thread(target=...)`` site, with the
  target resolved through direct ``self._run`` references, local-variable
  indirection (``target = self._a if cond else self._b``) and nested
  functions, labelled by the constant ``name=`` kwarg when present — plus
  the implicit ``main`` root seeded at every public entry point (public or
  dunder methods and module functions that are not thread targets);
- **root reachability**: which thread labels can reach each unit;
- **locks and acquisitions**: lock definitions are recognised at
  ``make_lock`` sites (with ``threading.Condition(self.x)`` aliasing the
  wrapped lock), and every ``with``-block or ``.acquire()`` of one is
  recorded per unit with the locks already held there;
- **must-hold lockset contexts**: the set of ranked locks guaranteed held
  on *every* call path from a root to the unit — an optimistic shrinking
  fixpoint with intersection meet over call edges;
- **field access summaries**: every ``self._x`` / typed-receiver attribute
  read and write, annotated with the effective lockset (locally-held
  locks union the unit's context) and the reaching thread roots. Stores,
  ``x[...] =`` subscript stores and mutating container-method calls
  (``append``/``pop``/``update``/...) on the field count as writes.

RTS004 consumes the acquisitions and resolved calls (lock-order graph),
RTS007 the field summaries and their reaching roots (Eraser-style guard
inference).
"""

from __future__ import annotations

import ast
import re

from repro.analysis.checkers.common import attr_chain
from repro.lockorder import RANKS

#: The pseudo thread-root for code reachable from public entry points.
MAIN_ROOT = "main"

#: Packages the engine scans (shared scope of RTS004 and RTS007).
ENGINE_SCOPE = (
    "repro.serve",
    "repro.churn",
    "repro.obs",
    "repro.plan",
    "repro.parallel",
    "repro.core",
    "repro.rtcore",
)

#: Construction-time methods: the instance is not yet shared, so their
#: field accesses never participate in guard inference or race findings.
INIT_METHODS = frozenset(
    {"__init__", "__post_init__", "__new__", "__init_subclass__", "__set_name__"}
)

#: Container-method names that mutate the receiver in place: a call
#: ``self._f.append(x)`` counts as a *write* to the ``_f`` field.
_MUTATING_METHODS = frozenset(
    {
        "append", "appendleft", "extend", "extendleft", "insert", "pop",
        "popleft", "popitem", "remove", "discard", "clear", "update",
        "setdefault", "add", "sort", "reverse", "fill", "put",
    }
)

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class FieldAccess:
    """One read or write of a tracked attribute."""

    __slots__ = ("cls", "field", "kind", "rel", "line", "unit", "held",
                 "in_init", "lockset", "roots")

    def __init__(self, cls, field, kind, rel, line, unit, held, in_init):
        self.cls = cls
        self.field = field
        self.kind = kind  # "read" | "write"
        self.rel = rel
        self.line = line
        self.unit = unit  # unit key
        self.held = held  # locally-held lock keys (frozenset)
        self.in_init = in_init
        self.lockset: frozenset = held  # finalized: held | context
        self.roots: frozenset = frozenset()


class Unit:
    """One function-like scope: module fn, method, or nested function."""

    __slots__ = ("key", "rel", "package", "cls", "name", "lineno",
                 "calls", "acquires", "spawn_targets")

    def __init__(self, key, rel, package, cls, name, node):
        self.key = key
        self.rel = rel
        self.package = package
        self.cls = cls
        self.name = name
        self.lineno = node.lineno
        #: [(descriptor, held frozenset, lineno)]
        self.calls: list[tuple] = []
        #: [(lock key, held frozenset, lineno)] — with/.acquire() sites
        self.acquires: list[tuple] = []
        #: [(descriptor, label or None, lineno)] — threading.Thread targets
        self.spawn_targets: list[tuple] = []


class Engine:
    def __init__(self, files):
        #: files: [(rel, package, tree, lines)]
        self.files = list(files)
        self.classes: dict[str, tuple] = {}        # name -> (rel, package, node)
        self.class_bases: dict[str, list] = {}     # name -> [base class names]
        self.class_members: dict[str, set] = {}    # name -> method names
        self.class_properties: dict[str, set] = {} # name -> property names
        self.methods: dict[tuple, tuple] = {}      # (cls, name) -> unit key
        self.module_fns: dict[tuple, list] = {}    # (rel, name) -> [unit keys]
        self.imports: dict[str, dict] = {}         # rel -> {name: (module, orig)}
        self.pkg_rel: dict[str, str] = {}          # dotted module -> rel

        self.attr_locks: dict[tuple, tuple] = {}   # (cls, attr) -> lock key
        self.module_locks: dict[tuple, tuple] = {} # (rel, name) -> lock key
        self.aliases: dict[tuple, tuple] = {}      # Condition alias -> wrapped
        self.lock_names: dict[tuple, str] = {}     # lock key -> display
        self.lock_ranks: dict[tuple, int | None] = {}
        self.lock_sites: dict[tuple, tuple] = {}   # lock key -> (rel, line)
        #: [(rel, cls, wrapped expr, lineno)] per threading.Condition(x)
        self.conditions: list[tuple] = []
        self.attr_types: dict[tuple, str] = {}     # (cls, attr) -> class name

        self.units: dict[tuple, Unit] = {}
        self.resolved_calls: dict[tuple, list] = {}  # key -> [(callee, held, line)]
        self.thread_roots: dict[str, set] = {}       # label -> {unit keys}
        self.root_units: set = set()                 # all entry unit keys
        self.unit_roots: dict[tuple, frozenset] = {} # key -> reaching labels
        self.context: dict[tuple, frozenset | None] = {}  # must-hold locksets
        self.fields: dict[tuple, list] = {}          # (cls, field) -> [FieldAccess]

        self._collect_classes()
        self._collect_locks_and_types()
        self._scan_all_units()
        self._resolve_calls()
        self._find_roots()
        self._propagate_roots()
        self._propagate_contexts()
        self._finalize_accesses()

    # ------------------------------------------------------------------
    # class / import discovery
    # ------------------------------------------------------------------

    def _collect_classes(self) -> None:
        for rel, package, tree, _lines in self.files:
            if package:
                self.pkg_rel[package] = rel
            table = self.imports.setdefault(rel, {})
            for stmt in tree.body:
                if isinstance(stmt, ast.ImportFrom) and stmt.module:
                    module = stmt.module
                    if stmt.level:  # relative: resolve against the package
                        base = (package or "").rsplit(".", stmt.level)
                        module = (base[0] + "." if base and base[0] else "") + module
                    for alias in stmt.names:
                        table[alias.asname or alias.name] = (module, alias.name)
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    self.classes[node.name] = (rel, package, node)
                    bases = []
                    for b in node.bases:
                        chain = attr_chain(b)
                        if chain:
                            bases.append(chain[-1])
                    self.class_bases[node.name] = bases
                    members, props = set(), set()
                    for sub in node.body:
                        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            members.add(sub.name)
                            for dec in sub.decorator_list:
                                dchain = attr_chain(dec) or []
                                if dchain and dchain[-1] in (
                                    "property", "cached_property"
                                ):
                                    props.add(sub.name)
                    self.class_members[node.name] = members
                    self.class_properties[node.name] = props

    def mro(self, cls: str):
        """cls followed by known base classes, breadth-first, cycle-safe."""
        seen, stack = [], [cls]
        while stack:
            c = stack.pop(0)
            if c in seen:
                continue
            seen.append(c)
            stack.extend(self.class_bases.get(c, ()))
        return seen

    def is_method(self, cls: str, name: str) -> bool:
        return any(name in self.class_members.get(c, ()) for c in self.mro(cls))

    def is_property(self, cls: str, name: str) -> bool:
        return any(name in self.class_properties.get(c, ()) for c in self.mro(cls))

    def find_method(self, cls: str, name: str):
        for c in self.mro(cls):
            key = self.methods.get((c, name))
            if key is not None:
                return key
        return None

    def attr_type(self, cls: str, attr: str) -> str | None:
        for c in self.mro(cls):
            t = self.attr_types.get((c, attr))
            if t is not None:
                return t
        return None

    def _annotation_class(self, ann) -> str | None:
        """First known class named by an annotation (handles ``X | None``,
        ``Optional[X]`` and string forward references)."""
        if ann is None:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            names = _IDENT.findall(ann.value)
        else:
            names = [n.id for n in ast.walk(ann) if isinstance(n, ast.Name)]
        for n in names:
            if n in self.classes:
                return n
        return None

    # ------------------------------------------------------------------
    # lock definitions and attribute types (pass 1)
    # ------------------------------------------------------------------

    def _collect_locks_and_types(self) -> None:
        def register(key, display, call, rel):
            rank = None
            if call.args and isinstance(call.args[0], ast.Constant):
                display = repr(call.args[0].value)
                rank = RANKS.get(call.args[0].value)
            self.lock_names[key] = display
            self.lock_ranks[key] = rank
            self.lock_sites[key] = (rel, call.lineno)

        for rel, package, tree, _lines in self.files:
            for cls, fn, target, value in _assignments(tree):
                call = value if isinstance(value, ast.Call) else None
                chain = attr_chain(call.func) if call is not None else None
                if chain and chain[-1] == "Condition" and call.args:
                    self.conditions.append((rel, cls, call.args[0], call.lineno))
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and cls is not None
                ):
                    if chain and chain[-1] == "make_lock":
                        key = ("attr", cls, target.attr)
                        self.attr_locks[(cls, target.attr)] = key
                        register(key, f"{cls}.{target.attr}", call, rel)
                    elif chain and chain[-1] == "Condition" and call.args:
                        wrapped = call.args[0]
                        if (
                            isinstance(wrapped, ast.Attribute)
                            and isinstance(wrapped.value, ast.Name)
                            and wrapped.value.id == "self"
                        ):
                            self.aliases[(cls, target.attr)] = (cls, wrapped.attr)
                    else:
                        t = _constructed_class(value, self.classes)
                        if t is None and isinstance(value, ast.Name) and fn is not None:
                            t = self._param_annotation(fn, value.id)
                        if t is not None:
                            self.attr_types[(cls, target.attr)] = t
                elif isinstance(target, ast.Name) and chain and chain[-1] == "make_lock":
                    key = ("mod", rel, target.id)
                    self.module_locks[(rel, target.id)] = key
                    register(key, f"{rel}:{target.id}", call, rel)

            # annotated self-attribute assignments (AnnAssign)
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Attribute)
                    and isinstance(node.target.value, ast.Name)
                    and node.target.value.id == "self"
                ):
                    cls = _enclosing_class(tree, node)
                    if cls is None:
                        continue
                    t = self._annotation_class(node.annotation)
                    if t is None and node.value is not None:
                        t = _constructed_class(node.value, self.classes)
                    if t is not None and (cls, node.target.attr) not in self.attr_locks:
                        self.attr_types[(cls, node.target.attr)] = t

    def _param_annotation(self, fn, name: str) -> str | None:
        args = fn.args
        for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if a.arg == name:
                return self._annotation_class(a.annotation)
        return None

    # ------------------------------------------------------------------
    # unit scanning (pass 2)
    # ------------------------------------------------------------------

    def _scan_all_units(self) -> None:
        for rel, package, tree, _lines in self.files:
            for stmt in tree.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    key = (rel, None, stmt.name)
                    self.module_fns.setdefault((rel, stmt.name), []).append(key)
                    self._scan_unit(rel, package, None, stmt, key)
                elif isinstance(stmt, ast.ClassDef):
                    for sub in stmt.body:
                        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            key = (rel, stmt.name, sub.name)
                            self.methods[(stmt.name, sub.name)] = key
                            self._scan_unit(rel, package, stmt.name, sub, key)

    def _scan_unit(self, rel, package, cls, fn_node, key) -> None:
        unit = Unit(key, rel, package, cls, fn_node.name, fn_node)
        self.units[key] = unit
        args = fn_node.args
        params = list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        selfful = cls is not None and bool(params) and params[0].arg == "self"

        local_types: dict[str, str] = {}
        for a in params:
            t = self._annotation_class(a.annotation)
            if t:
                local_types[a.arg] = t
        assigned_exprs: dict[str, ast.AST] = {}
        in_init = cls is not None and fn_node.name in INIT_METHODS

        def chain_type(parts: list[str]) -> str | None:
            """Static type of a dotted chain, or None."""
            if not parts:
                return None
            if parts[0] == "self" and selfful:
                t = cls
                rest = parts[1:]
            else:
                t = local_types.get(parts[0])
                rest = parts[1:]
            for part in rest:
                if t is None:
                    return None
                t = self.attr_type(t, part)
            return t

        def value_class(value) -> str | None:
            t = _constructed_class(value, self.classes)
            if t is not None:
                return t
            chain = attr_chain(value)
            if chain:
                return chain_type(chain)
            return None

        def is_lock_attr(owner: str, field: str) -> bool:
            for c in self.mro(owner):
                if (c, field) in self.attr_locks or (c, field) in self.aliases:
                    return True
            return False

        def record_access(owner, field, kind, line, held):
            acc = FieldAccess(
                owner, field, kind, rel, line, key, frozenset(held), in_init
            )
            self.fields.setdefault((owner, field), []).append(acc)

        def callee_desc(call):
            func = call.func
            if isinstance(func, ast.Name):
                return ("fn", rel, func.id)
            if isinstance(func, ast.Attribute):
                chain = attr_chain(func)
                if chain and len(chain) >= 2:
                    owner = chain_type(chain[:-1])
                    if owner is not None:
                        return ("method", owner, chain[-1])
            return None

        def spawn_target_descs(expr, depth=0):
            descs = []
            if depth > 2 or expr is None:
                return descs
            for sub in ast.walk(expr):
                if isinstance(sub, ast.Attribute):
                    chain = attr_chain(sub)
                    if chain and len(chain) == 2 and chain[0] == "self" and selfful:
                        descs.append(("method", cls, chain[1]))
                elif isinstance(sub, ast.Name):
                    if sub.id in assigned_exprs:
                        descs.extend(
                            spawn_target_descs(assigned_exprs[sub.id], depth + 1)
                        )
                    else:
                        descs.append(("fn", rel, sub.id))
            return descs

        def on_call(call, held):
            chain = attr_chain(call.func)
            if chain and chain[-1] == "Thread" and (
                len(chain) == 1 or chain[-2] == "threading"
            ):
                target = None
                label = None
                if len(call.args) >= 2:
                    target = call.args[1]
                for kw in call.keywords:
                    if kw.arg == "target":
                        target = kw.value
                    elif kw.arg == "name" and isinstance(kw.value, ast.Constant):
                        if isinstance(kw.value.value, str):
                            label = kw.value.value
                for desc in spawn_target_descs(target):
                    unit.spawn_targets.append((desc, label, call.lineno))
                return
            if isinstance(call.func, ast.Attribute) and call.func.attr == "acquire":
                lock = self.lock_of(call.func.value, rel, cls)
                if lock is not None:
                    unit.acquires.append((lock, frozenset(held), call.lineno))
                    return
            desc = callee_desc(call)
            if desc is not None:
                unit.calls.append((desc, frozenset(held), call.lineno))

        def on_attr(node, held, parents):
            chain = attr_chain(node)
            if chain is None or len(chain) < 2:
                return
            owner = chain_type(chain[:-1])
            if owner is None:
                return
            field = chain[-1]
            if is_lock_attr(owner, field):
                return
            parent = parents.get(node)
            is_call_func = isinstance(parent, ast.Call) and parent.func is node
            if is_call_func:
                return  # the call edge is recorded by on_call
            if self.is_method(owner, field) and not self.is_property(owner, field):
                return  # bound-method reference, not a field access
            if self.is_property(owner, field) and isinstance(node.ctx, ast.Load):
                unit.calls.append((("method", owner, field), frozenset(held),
                                   node.lineno))
                return
            kind = "read"
            if isinstance(node.ctx, (ast.Store, ast.Del)):
                kind = "write"
            elif isinstance(parent, ast.Subscript) and parent.value is node and \
                    isinstance(parent.ctx, (ast.Store, ast.Del)):
                kind = "write"
            elif (
                isinstance(parent, ast.Attribute)
                and parent.value is node
                and parent.attr in _MUTATING_METHODS
                and isinstance(parents.get(parent), ast.Call)
                and parents[parent].func is parent
            ):
                kind = "write"
            record_access(owner, field, kind, node.lineno, held)

        def walk_expr(expr, held):
            parents: dict = {}
            stack = [expr]
            while stack:
                node = stack.pop()
                for child in ast.iter_child_nodes(node):
                    parents[child] = node
                    stack.append(child)
                if isinstance(node, ast.Call):
                    on_call(node, held)
                elif isinstance(node, ast.Attribute):
                    on_attr(node, held, parents)

        def note_assignment(stmt):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                    isinstance(stmt.targets[0], ast.Name):
                name = stmt.targets[0].id
                assigned_exprs[name] = stmt.value
                t = value_class(stmt.value)
                if t is not None:
                    local_types[name] = t
                else:
                    local_types.pop(name, None)
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                name = stmt.target.id
                if stmt.value is not None:
                    assigned_exprs[name] = stmt.value
                t = self._annotation_class(stmt.annotation)
                if t is None and stmt.value is not None:
                    t = value_class(stmt.value)
                if t is not None:
                    local_types[name] = t

        def walk_stmts(stmts, held):
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    nested_key = key + (stmt.name,)
                    self.module_fns.setdefault((rel, stmt.name), []).append(nested_key)
                    # Closures over ``self`` keep attribute typing (the
                    # enclosing method's class).
                    self._scan_unit(
                        rel, package, cls if selfful else None, stmt, nested_key
                    )
                    continue
                if isinstance(stmt, (ast.With, ast.AsyncWith)):
                    acquired = []
                    for item in stmt.items:
                        walk_expr(item.context_expr, held + tuple(acquired))
                        lock = self.lock_of(item.context_expr, rel, cls)
                        if lock is not None:
                            unit.acquires.append((
                                lock, frozenset(held + tuple(acquired)),
                                item.context_expr.lineno,
                            ))
                            acquired.append(lock)
                    walk_stmts(stmt.body, held + tuple(acquired))
                    continue
                note_assignment(stmt)
                for field_name in ("body", "orelse", "finalbody"):
                    inner = getattr(stmt, field_name, None)
                    if inner and all(isinstance(s, ast.stmt) for s in inner):
                        walk_stmts(inner, held)
                for handler in getattr(stmt, "handlers", ()):
                    walk_stmts(handler.body, held)
                for child in ast.iter_child_nodes(stmt):
                    if isinstance(child, ast.expr):
                        walk_expr(child, held)

        walk_stmts(fn_node.body, ())

    # ------------------------------------------------------------------
    # resolution and fixpoints (pass 3)
    # ------------------------------------------------------------------

    def resolve_desc(self, desc):
        if desc is None:
            return None
        if desc[0] == "fn":
            _tag, rel, name = desc
            hits = self.module_fns.get((rel, name))
            if hits:
                return hits[0]
            imp = self.imports.get(rel, {}).get(name)
            if imp:
                rel2 = self.pkg_rel.get(imp[0])
                if rel2:
                    hits = self.module_fns.get((rel2, imp[1]))
                    if hits:
                        return hits[0]
            return None
        return self.find_method(desc[1], desc[2])

    def _resolve_calls(self) -> None:
        for key, unit in self.units.items():
            resolved = []
            for desc, held, line in unit.calls:
                callee = self.resolve_desc(desc)
                if callee is not None:
                    resolved.append((callee, held, line))
            self.resolved_calls[key] = resolved

    def _find_roots(self) -> None:
        target_units: set = set()
        for unit in self.units.values():
            for desc, label, _line in unit.spawn_targets:
                tkey = self.resolve_desc(desc)
                if tkey is None:
                    continue
                target_units.add(tkey)
                name = label or self.units[tkey].name
                self.thread_roots.setdefault(name, set()).add(tkey)
        main = self.thread_roots.setdefault(MAIN_ROOT, set())
        for key, unit in self.units.items():
            if len(key) != 3 or key in target_units:
                continue
            public = not unit.name.startswith("_")
            dunder = unit.name.startswith("__") and unit.name.endswith("__")
            if public or dunder:
                main.add(key)
        self.root_units = {u for units in self.thread_roots.values() for u in units}

    def _propagate_roots(self) -> None:
        rootsets: dict[tuple, set] = {k: set() for k in self.units}
        for label, seeds in self.thread_roots.items():
            seen = set(seeds)
            queue = list(seeds)
            while queue:
                key = queue.pop()
                rootsets[key].add(label)
                for callee, _held, _line in self.resolved_calls.get(key, ()):
                    if callee not in seen:
                        seen.add(callee)
                        queue.append(callee)
        self.unit_roots = {k: frozenset(v) for k, v in rootsets.items()}

    def _propagate_contexts(self) -> None:
        context: dict[tuple, frozenset | None] = {
            k: (frozenset() if k in self.root_units else None) for k in self.units
        }
        changed = True
        while changed:
            changed = False
            for key in self.units:
                base = context[key]
                if base is None:
                    continue
                for callee, held, _line in self.resolved_calls[key]:
                    incoming = base | held
                    current = context[callee]
                    new = incoming if current is None else (current & incoming)
                    if new != current:
                        context[callee] = new
                        changed = True
        self.context = context

    def _finalize_accesses(self) -> None:
        for accesses in self.fields.values():
            for acc in accesses:
                ctx = self.context.get(acc.unit)
                acc.lockset = acc.held | (ctx or frozenset())
                acc.roots = self.unit_roots.get(acc.unit, frozenset())

    # ------------------------------------------------------------------
    # helpers for the rules
    # ------------------------------------------------------------------

    def lock_of(self, expr, rel: str, cls: str | None):
        """Lock key named by ``self.x`` (through Condition aliases) or a
        module-level name, or None when ``expr`` is not a known lock."""
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and cls is not None
        ):
            attr = (cls, expr.attr)
            seen = set()
            while attr in self.aliases and attr not in seen:
                seen.add(attr)
                attr = self.aliases[attr]
            return self.attr_locks.get(attr)
        if isinstance(expr, ast.Name):
            return self.module_locks.get((rel, expr.id))
        return None

    def lock_display(self, key) -> str:
        return self.lock_names.get(key, str(key))

    def class_package(self, cls: str) -> str | None:
        info = self.classes.get(cls)
        return info[1] if info else None


def _constructed_class(value, classes) -> str | None:
    """Class constructed by this expression, looking through conditional
    forms (``Cls(...) if flag else None``, ``a or Cls(...)``)."""
    if isinstance(value, ast.Call):
        chain = attr_chain(value.func)
        if chain and chain[-1] in classes:
            return chain[-1]
        return None
    if isinstance(value, ast.IfExp):
        return _constructed_class(value.body, classes) or _constructed_class(
            value.orelse, classes
        )
    if isinstance(value, ast.BoolOp):
        for v in value.values:
            t = _constructed_class(v, classes)
            if t is not None:
                return t
    return None


def _assignments(tree):
    """(class name or None, enclosing fn or None, target, value) for every
    single-target Assign in the file."""
    def visit(node, cls, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name, None)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, cls, child)
            else:
                if isinstance(child, ast.Assign) and len(child.targets) == 1:
                    yield cls, fn, child.targets[0], child.value
                yield from visit(child, cls, fn)

    yield from visit(tree, None, None)


def _enclosing_class(tree, node) -> str | None:
    for cls_node in ast.walk(tree):
        if isinstance(cls_node, ast.ClassDef):
            for sub in ast.walk(cls_node):
                if sub is node:
                    return cls_node.name
    return None


def engine_for(files, shared: dict) -> Engine:
    """The engine for a list of (rel, package, tree, lines) tuples, built
    once per analyzer run. ``shared`` is the run's scratch dict (see
    :meth:`~repro.analysis.framework.Analyzer.run`): both concurrency
    rules stash the same FileContext trees, so one engine serves both,
    and it is dropped with the run."""
    key = ("dataflow.Engine",) + tuple(id(tree) for _rel, _pkg, tree, _lines in files)
    engine = shared.get(key)
    if engine is None:
        engine = shared[key] = Engine(files)
    return engine
