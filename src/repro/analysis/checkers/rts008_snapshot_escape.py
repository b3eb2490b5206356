"""RTS008 — snapshot escape: published buffers are never written.

Epoch correctness rests on copy-on-write publication: the snapshot
indexes handed out by ``EpochSnapshots`` / ``service.snapshot()`` and
the arrays behind them are shared by every concurrent reader. One
in-place write tears responses at *other* epochs with no exception
anywhere — the worst failure mode in the repo. The runtime guard
(read-only ndarray views) covers the common paths; this rule covers the
rest at review time by dataflow:

**Sources** — calls to ``snapshot()`` and loads of
``<snapshots>.current`` (tuple unpacking included). **Taint** flows
through assignments of attribute/subscript chains; it is *killed* by
any other call (``fork()``/``copy()``/``dict(...)`` produce private
data). **Sinks** — subscript stores and ``+=`` on tainted roots, mutating ndarray methods (``fill``/``sort``/
``put``/...), index mutators (``insert``/``rebuild``/``compact``/...),
``np.copyto``-family calls and ``out=`` kwargs targeting tainted
buffers, attribute stores on tainted objects, and ``.flags.writeable``
flips (assigning anything but ``False``). Helper functions that mutate a
parameter are summarized over the call graph, so passing a published
array into ``_zero(buf)`` is flagged at the call site.
"""

from __future__ import annotations

import ast

from repro.analysis.checkers.common import attr_chain
from repro.analysis.dataflow import ENGINE_SCOPE, engine_for
from repro.analysis.findings import Finding
from repro.analysis.framework import Checker, FileContext

#: Method calls whose return value is a published (shared, frozen) object.
SOURCE_CALLS = frozenset({"snapshot"})

#: In-place ndarray mutators.
_NDARRAY_MUTATORS = frozenset(
    {"fill", "sort", "partition", "put", "itemset", "setflags", "resize",
     "byteswap", "setfield"}
)

#: Index/container mutators that must never run on a published snapshot.
_OBJECT_MUTATORS = frozenset(
    {"insert", "delete", "update", "rebuild", "compact", "refit", "clear",
     "pop", "append", "extend", "add", "remove", "setdefault"}
)

#: ``np.<fn>(target, ...)`` writing into the first argument.
_NP_INPLACE_FNS = frozenset({"copyto", "place", "put", "putmask"})

_MUTATORS = _NDARRAY_MUTATORS | _OBJECT_MUTATORS


def _is_source_call(call: ast.Call) -> bool:
    chain = attr_chain(call.func)
    return bool(chain) and len(chain) >= 2 and chain[-1] in SOURCE_CALLS


def _is_source_attr(node: ast.Attribute) -> bool:
    chain = attr_chain(node)
    return (
        bool(chain)
        and len(chain) >= 2
        and chain[-1] == "current"
        and "snapshot" in chain[-2].lower()
    )


class SnapshotEscape(Checker):
    rule_id = "RTS008"
    title = "published snapshot buffers never flow to in-place writes"
    rationale = (
        "EpochSnapshots indexes and their arrays back concurrent readers "
        "at pinned epochs; writing any of them in place silently "
        "corrupts other requests' results (bit-replay is the product "
        "contract). The ndarray writeable flag catches direct stores at "
        "runtime, but .flags.writeable=True flips, np out= targets and "
        "mutating a snapshot *index* (insert/rebuild/compact) bypass it. "
        "This rule runs source-to-sink dataflow with per-function "
        "parameter-mutation summaries so the escape is caught in review, "
        "not in a torn response."
    )
    scope = ENGINE_SCOPE
    node_types = ()

    def __init__(self):
        self._files: list[tuple] = []

    def begin_file(self, ctx: FileContext) -> None:
        self._files.append((ctx.rel, ctx.package, ctx.tree, ctx.lines))

    # ------------------------------------------------------------------

    def finalize(self):
        files, self._files = self._files, []
        if not files:
            return []
        engine = engine_for(files)

        mutated_params: dict[tuple, set] = {k: set() for k in engine.units}
        findings: set[tuple] = set()

        for _round in range(4):
            changed = False
            for key, unit in engine.units.items():
                grew = self._analyze_unit(engine, unit, mutated_params, findings)
                changed = changed or grew
            if not changed:
                break

        return [
            Finding(rel, line, self.rule_id, msg)
            for rel, line, msg in sorted(findings)
        ]

    # ------------------------------------------------------------------

    def _analyze_unit(self, engine, unit, mutated_params, findings) -> bool:
        """One taint pass over a unit. Returns True when the unit's
        mutated-parameter summary grew (drives the fixpoint)."""
        node = unit.node
        args = node.args
        params = [a.arg for a in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        )]
        offset = 1 if unit.self_name and params and params[0] == "self" else 0
        taint: dict[str, frozenset] = {
            p: frozenset({("param", p)}) for p in params[offset:]
        }
        summary = mutated_params[unit.key]
        before = len(summary)

        def origins(expr) -> frozenset:
            if expr is None:
                return frozenset()
            if isinstance(expr, ast.Call):
                if _is_source_call(expr):
                    return frozenset({("source", expr.lineno)})
                return frozenset()
            if isinstance(expr, ast.Attribute):
                if _is_source_attr(expr):
                    return frozenset({("source", expr.lineno)})
                return origins(expr.value)
            if isinstance(expr, (ast.Subscript, ast.Starred)):
                return origins(expr.value)
            if isinstance(expr, ast.Name):
                return taint.get(expr.id, frozenset())
            if isinstance(expr, ast.IfExp):
                return origins(expr.body) | origins(expr.orelse)
            if isinstance(expr, (ast.Tuple, ast.List)):
                out = frozenset()
                for elt in expr.elts:
                    out |= origins(elt)
                return out
            if isinstance(expr, ast.BoolOp):
                out = frozenset()
                for v in expr.values:
                    out |= origins(v)
                return out
            if isinstance(expr, ast.NamedExpr):
                return origins(expr.value)
            return frozenset()

        def report(line, what, origin_set) -> None:
            for origin in origin_set:
                if origin[0] == "source":
                    findings.add((
                        unit.rel,
                        line,
                        f"{what} on a published buffer (source at "
                        f"{unit.rel}:{origin[1]}); snapshot state is "
                        "shared by concurrent readers and must stay frozen",
                    ))
                else:
                    summary.add(origin[1])

        def callee_param_names(call):
            """Resolved callee unit + its parameter list (self stripped)."""
            func = call.func
            desc = None
            if isinstance(func, ast.Name):
                desc = ("fn", unit.rel, func.id)
            elif (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and unit.cls is not None
            ):
                desc = ("method", unit.cls, func.attr)
            ckey = engine.resolve_desc(desc)
            if ckey is None:
                return None, ()
            cunit = engine.units[ckey]
            cargs = cunit.node.args
            names = [a.arg for a in (
                list(cargs.posonlyargs) + list(cargs.args)
                + list(cargs.kwonlyargs)
            )]
            if cunit.self_name and names and names[0] == "self":
                names = names[1:]
            return ckey, names

        def check_call(call) -> None:
            chain = attr_chain(call.func)
            # mutating method on a tainted receiver: snap.boxes.fill(0)
            if isinstance(call.func, ast.Attribute) and call.func.attr in _MUTATORS:
                if call.func.attr == "setflags" and any(
                    kw.arg == "write" and isinstance(kw.value, ast.Constant)
                    and not kw.value.value for kw in call.keywords
                ):
                    pass  # freezing is fine
                else:
                    recv = origins(call.func.value)
                    if recv:
                        report(call.lineno,
                               f".{call.func.attr}() in-place mutation", recv)
            # np.copyto(tainted, ...) family
            if chain and len(chain) == 2 and chain[-1] in _NP_INPLACE_FNS \
                    and call.args:
                first = origins(call.args[0])
                if first:
                    report(call.lineno, f"np.{chain[-1]}() write", first)
            # out= kwarg targeting a tainted buffer
            for kw in call.keywords:
                if kw.arg == "out":
                    o = origins(kw.value)
                    if o:
                        report(call.lineno, "out= write", o)
            # helper with a mutated-parameter summary
            ckey, names = callee_param_names(call)
            if ckey is not None and mutated_params.get(ckey):
                muts = mutated_params[ckey]
                for i, arg in enumerate(call.args):
                    if i < len(names) and names[i] in muts:
                        o = origins(arg)
                        if o:
                            report(call.lineno,
                                   f"call mutating its argument {names[i]!r}",
                                   o)
                for kw in call.keywords:
                    if kw.arg in muts:
                        o = origins(kw.value)
                        if o:
                            report(call.lineno,
                                   f"call mutating its argument {kw.arg!r}", o)

        def check_store_target(target, line, value=None) -> None:
            if isinstance(target, ast.Subscript):
                o = origins(target.value)
                if o:
                    report(line, "subscript store", o)
            elif isinstance(target, ast.Attribute):
                o = origins(target.value)
                if not o:
                    return
                chain = attr_chain(target) or []
                if target.attr == "writeable" and "flags" in chain:
                    if isinstance(value, ast.Constant) and value.value is False:
                        return  # freezing a published buffer is fine
                    report(line, ".flags.writeable flip", o)
                else:
                    report(line, f"attribute store .{target.attr}", o)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    check_store_target(elt, line, value)

        def bind(target, origin_set) -> None:
            if isinstance(target, ast.Name):
                taint[target.id] = origin_set
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    bind(elt, origin_set)
            elif isinstance(target, ast.Starred):
                bind(target.value, origin_set)

        def scan_calls(stmt) -> None:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call):
                    check_call(sub)

        def walk(stmts) -> None:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue  # nested defs are separate units
                if isinstance(stmt, ast.Assign):
                    value_origins = origins(stmt.value)
                    for target in stmt.targets:
                        check_store_target(target, stmt.lineno, stmt.value)
                        bind(target, value_origins)
                    scan_calls(stmt)
                elif isinstance(stmt, ast.AnnAssign):
                    if stmt.target is not None:
                        check_store_target(stmt.target, stmt.lineno, stmt.value)
                        if stmt.value is not None:
                            bind(stmt.target, origins(stmt.value))
                    scan_calls(stmt)
                elif isinstance(stmt, ast.AugAssign):
                    check_store_target(stmt.target, stmt.lineno)
                    o = origins(stmt.target)
                    if o:
                        report(stmt.lineno, "augmented assignment", o)
                    scan_calls(stmt)
                elif isinstance(stmt, ast.Delete):
                    for target in stmt.targets:
                        check_store_target(target, stmt.lineno)
                    scan_calls(stmt)
                elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                    for item in stmt.items:
                        if item.optional_vars is not None:
                            bind(item.optional_vars, origins(item.context_expr))
                    scan_calls(stmt)
                    walk(stmt.body)
                    continue
                elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                    bind(stmt.target, origins(stmt.iter))
                    scan_calls(stmt)
                    walk(stmt.body)
                    walk(stmt.orelse)
                    continue
                else:
                    scan_calls(stmt)
                for field_name in ("body", "orelse", "finalbody"):
                    inner = getattr(stmt, field_name, None)
                    if inner and all(isinstance(s, ast.stmt) for s in inner):
                        walk(inner)
                for handler in getattr(stmt, "handlers", ()):
                    walk(handler.body)

        walk(node.body)
        return len(summary) != before
