"""The traced run: outside-in spans, self-time attribution, export.

The program's own spans come from installing ``repro.obs.Tracer``
through the public ``tracer=`` parameter (query -> phase -> shard ->
``bvh.traverse``/``ias.traverse``). Public entry points that open no span
of their own are wrapped from outside for the duration of the traced
pass (:func:`instrumented`) and restored afterwards; nothing in ``src/``
changes.

Self time: at every instant of the traced window the wall clock is
split equally among the *active leaf* spans — open spans none of whose
children are open at that instant — across all threads. A span's self
time is therefore its duration minus the part its children cover, and
when children run concurrently (thread-pool shards) the covered wall is
shared among them instead of counted twice. Time no span covers is the
benchmark's own (scheduling, sleeping until a request is due,
digesting results). So the per-layer self times plus the uncovered time
add up to the traced wall exactly, which :func:`attribute` checks.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

import repro.plan.backends as backends
import repro.serve.service as service
from repro.churn import ChurnIndex
from repro.parallel.executor import ChunkedExecutor
from repro.plan.planner import QueryPlanner
from repro.rtcore.gas import GeometryAS

#: Span name -> layer (the ``repro`` package that owns the code).
LAYER_OF = {
    "bvh.traverse": "rtcore",
    "ias.traverse": "rtcore",
    "pipeline.launch": "rtcore",
    "GeometryAS": "rtcore",
    "query": "core",
    "point.cast": "core",
    "contains.cast": "core",
    "intersects.k_prediction": "core",
    "intersects.bvh_build": "core",
    "intersects.flat_ias_build": "core",
    "intersects.forward_cast": "core",
    "intersects.backward_cast": "core",
    "shard": "parallel",
    "ChunkedExecutor.map": "parallel",
    "plan.decide": "plan",
    "QueryPlanner.plan": "plan",
    "execute_baseline": "plan",
    "serve.batch": "serve",
    "serve.wave": "serve",
    "SpatialQueryService.submit": "serve",
    "SpatialQueryService.insert": "serve",
    "SpatialQueryService.delete": "serve",
    "SpatialQueryService.update": "serve",
    "execute_batch": "serve",
    "split_batch": "serve",
    "churn.compact": "churn",
    "ChurnIndex.compact": "churn",
}

LAYERS = ("rtcore", "core", "parallel", "plan", "serve", "churn")

#: The casting launches of the three predicates.
CAST_PHASES = ("point.cast", "contains.cast", "intersects.forward_cast", "intersects.backward_cast")


def _record_batch(sp, args, kwargs):
    """execute_batch(index, batch, ...): batch size and queue waits."""
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    now = time.monotonic()
    sp.attrs["batch_size"] = len(batch)
    sp.attrs["queue_wait_s"] = float(sum(now - req.enqueue_t for req in batch))


def _record_baseline_build(sp, out):
    """execute_baseline(...) -> (rect_ids, query_ids, phases, meta)."""
    sp.attrs["built_now"] = bool(out[3].get("backend_built_now", False))


def _targets():
    """(owner, attribute, span name, before-call hook, after-call hook)."""
    svc = service.SpatialQueryService
    return [
        (svc, "submit", "SpatialQueryService.submit", None, None),
        (svc, "insert", "SpatialQueryService.insert", None, None),
        (svc, "delete", "SpatialQueryService.delete", None, None),
        (svc, "update", "SpatialQueryService.update", None, None),
        # The scheduler calls these through the names it imported.
        (service, "execute_batch", "execute_batch", _record_batch, None),
        (service, "split_batch", "split_batch", None, None),
        (QueryPlanner, "plan", "QueryPlanner.plan", None, None),
        # Imported at call time inside RTSIndex.query.
        (backends, "execute_baseline", "execute_baseline", None, _record_baseline_build),
        (ChunkedExecutor, "map", "ChunkedExecutor.map", None, None),
        (GeometryAS, "__init__", "GeometryAS", None, None),
        (ChurnIndex, "compact", "ChurnIndex.compact", None, None),
    ]


def _wrap(tracer, name, fn, before, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as sp:
            if before is not None:
                before(sp, args, kwargs)
            out = fn(*args, **kwargs)
            if after is not None:
                after(sp, out)
            return out

    return wrapper


@contextlib.contextmanager
def instrumented(tracer):
    """Wrap every public entry point of :func:`_targets` in a span of
    ``tracer``; the originals are restored on exit."""
    saved = []
    try:
        for owner, attr, name, before, after in _targets():
            fn = owner.__dict__[attr]
            saved.append((owner, attr, fn))
            setattr(owner, attr, _wrap(tracer, name, fn, before, after))
        yield
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def _adopt_shards(span) -> None:
    """Shard spans name the dispatching phase as their parent, which
    makes them siblings of the ``ChunkedExecutor.map`` call that ran
    them; move them under that call so its self time is the pool's own
    dispatch and merge overhead."""
    maps = [c for c in span.children if c.name == "ChunkedExecutor.map"]
    if maps:
        keep = []
        for child in span.children:
            owner = None
            if child.name == "shard":
                owner = next(
                    (m for m in maps if m.t_start <= child.t_start and child.t_end <= m.t_end),
                    None,
                )
            (owner.children if owner is not None else keep).append(child)
        span.children = keep
    for child in span.children:
        _adopt_shards(child)


def spans_in(tracer, t0: float, t1: float) -> list:
    """Root spans of ``tracer`` that overlap the window, shard spans
    re-homed under their executor call."""
    roots = [r for r in tracer.roots if r.t_end >= t0 and r.t_start <= t1]
    for root in roots:
        _adopt_shards(root)
    return roots


def walk(roots):
    for root in roots:
        yield from root.walk()


def attribute(roots, t0: float, t1: float) -> dict:
    """Self seconds per layer over the window ``[t0, t1]``, plus
    ``uncovered``; raises if they do not add up to ``t1 - t0``."""
    spans, parent = [], []

    def add(span, p):
        idx = len(spans)
        spans.append(span)
        parent.append(p)
        for child in span.children:
            add(child, idx)

    for root in roots:
        add(root, -1)
    depth = [0] * len(spans)
    for i, p in enumerate(parent):
        depth[i] = depth[p] + 1 if p >= 0 else 0
    events = []
    for i, sp in enumerate(spans):
        start, end = max(sp.t_start, t0), min(sp.t_end, t1)
        if end > start:
            events.append((start, 1, depth[i], i))
            events.append((end, 0, -depth[i], i))
    events.sort()

    self_s: dict[str, float] = defaultdict(float)
    active = [False] * len(spans)
    open_children = [0] * len(spans)
    linked = [-1] * len(spans)
    leaves: set[int] = set()
    covered, now = 0.0, t0
    for t, kind, _, i in events:
        if leaves and t > now:
            share = (t - now) / len(leaves)
            for leaf in leaves:
                self_s[LAYER_OF.get(spans[leaf].name, "other")] += share
            covered += t - now
        now = t
        if kind == 1:
            p = parent[i]
            if p >= 0 and active[p]:
                linked[i] = p
                open_children[p] += 1
                leaves.discard(p)
            active[i] = True
            leaves.add(i)
        else:
            active[i] = False
            leaves.discard(i)
            p = linked[i]
            if p >= 0 and active[p]:
                open_children[p] -= 1
                if open_children[p] == 0:
                    leaves.add(p)
    wall = t1 - t0
    self_s["uncovered"] = wall - covered
    total = sum(self_s.values())
    if abs(total - wall) > 1e-9 * max(wall, 1.0):
        raise RuntimeError(f"self times add up to {total} s, traced wall is {wall} s")
    return dict(self_s)


def layer_metrics(roots, t0: float, t1: float, ops: int) -> tuple[dict, dict]:
    """The per-layer metrics derivable from the span forest, per
    operation (one repetition or one request), and the window's self
    seconds per layer from :func:`attribute`."""
    per_op = 1.0 / max(ops, 1)
    spans = list(walk(roots))
    by_name: dict[str, list] = defaultdict(list)
    for sp in spans:
        by_name[sp.name].append(sp)

    def inclusive(name: str) -> float:
        return sum(sp.wall_time for sp in by_name[name])

    # rtcore: outermost traversal calls; an IAS descent's per-instance
    # bvh.traverse spans are inside its ias.traverse.
    traverse_s = inclusive("ias.traverse") + inclusive("bvh.traverse") - sum(
        c.wall_time for sp in by_name["ias.traverse"] for c in sp.children
        if c.name == "bvh.traverse"
    )
    # Traversal counters as each logical launch merged them (results
    # are counted by the IS shader, after the traversal call returns).
    counters = defaultdict(int)
    for name in CAST_PHASES:
        for sp in by_name[name]:
            for key, value in sp.counters.items():
                counters[key] += int(value)
    nodes = counters["nodes_visited"]

    queries = by_name["query"]
    query_wall = sum(sp.wall_time for sp in queries)
    sim = defaultdict(float)
    for sp in queries:
        sim[sp.attrs.get("predicate", "?")] += sp.sim_time or 0.0
    backward = inclusive("intersects.backward_cast")
    ks = [sp.attrs["k"] for sp in by_name["intersects.backward_cast"] if "k" in sp.attrs]

    maps = by_name["ChunkedExecutor.map"]
    map_s = inclusive("ChunkedExecutor.map")
    shard_in_maps = sum(c.wall_time for sp in maps for c in sp.children if c.name == "shard")

    batches = by_name["execute_batch"]
    batched = sum(sp.attrs.get("batch_size", 0) for sp in batches)
    writes = [
        sp for name in ("insert", "delete", "update")
        for sp in by_name[f"SpatialQueryService.{name}"]
    ]
    submits = by_name["SpatialQueryService.submit"]

    out = {
        "rtcore.traverse_s": traverse_s * per_op,
        "rtcore.nodes_visited": nodes * per_op,
        "rtcore.is_invocations": counters["is_invocations"] * per_op,
        "rtcore.results_emitted": counters["results_emitted"] * per_op,
        "rtcore.ns_per_node": traverse_s / nodes * 1e9 if nodes else 0.0,
        "rtcore.useful_ratio": (
            counters["results_emitted"] / counters["is_invocations"]
            if counters["is_invocations"] else 0.0
        ),
        "rtcore.build_s": inclusive("GeometryAS") * per_op,
        "core.k_prediction_s": inclusive("intersects.k_prediction") * per_op,
        "core.bvh_build_s": inclusive("intersects.bvh_build") * per_op,
        "core.forward_cast_s": inclusive("intersects.forward_cast") * per_op,
        "core.backward_cast_s": backward * per_op,
        "core.point_cast_s": inclusive("point.cast") * per_op,
        "core.contains_cast_s": inclusive("contains.cast") * per_op,
        "core.multicast_k": sum(ks) / len(ks) if ks else 0.0,
        "core.backward_share": backward / query_wall if query_wall else 0.0,
        "parallel.shards": len(by_name["shard"]) * per_op,
        "parallel.map_s": map_s * per_op,
        "parallel.speedup": shard_in_maps / map_s if map_s else 0.0,
        "perfmodel.point_sim_s": sim["contains-point"] * per_op,
        "perfmodel.contains_sim_s": sim["range-contains"] * per_op,
        "perfmodel.intersects_sim_s": sim["range-intersects"] * per_op,
        "perfmodel.wall_over_sim": query_wall / sum(sim.values()) if sum(sim.values()) else 0.0,
        "plan.decide_s": inclusive("QueryPlanner.plan") * per_op,
        "plan.rt_share": (
            sum(1 for sp in queries if "backend" not in sp.attrs) / len(queries)
            if queries else 0.0
        ),
        "plan.baseline_s": inclusive("execute_baseline") * per_op,
        "plan.baseline_builds": sum(
            1 for sp in by_name["execute_baseline"] if sp.attrs.get("built_now")
        ) * per_op,
        "serve.admit_us": (
            sum(sp.wall_time for sp in submits) / len(submits) * 1e6 if submits else 0.0
        ),
        "serve.queue_wait_ms": (
            sum(sp.attrs.get("queue_wait_s", 0.0) for sp in batches) / batched * 1e3
            if batched else 0.0
        ),
        "serve.exec_ms": (
            sum(sp.wall_time for sp in batches) / len(batches) * 1e3 if batches else 0.0
        ),
        "serve.scatter_s": inclusive("split_batch") * per_op,
        "serve.mean_batch": batched / len(batches) if batches else 0.0,
        "serve.publish_ms": (
            sum(sp.wall_time for sp in writes) / len(writes) * 1e3 if writes else 0.0
        ),
        "churn.compactions": len(by_name["ChurnIndex.compact"]) * per_op,
        "churn.compact_s": inclusive("ChurnIndex.compact") * per_op,
        "obs.spans": len(spans) * per_op,
        "obs.ops": float(ops),
    }
    self_s = attribute(roots, t0, t1)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0) * per_op
    out["obs.other_self_s"] = self_s.get("other", 0.0) * per_op
    out["obs.uncovered_s"] = self_s["uncovered"] * per_op
    out["obs.traced_wall_s"] = (t1 - t0) * per_op
    return out, self_s


def _span_json(sp, t0: float) -> dict:
    d = {
        "name": sp.name,
        "layer": LAYER_OF.get(sp.name, "other"),
        "start_ms": (sp.t_start - t0) * 1e3,
        "wall_ms": sp.wall_time * 1e3,
    }
    if sp.sim_time is not None:
        d["sim_s"] = sp.sim_time
    if sp.counters:
        d["counters"] = {k: int(v) for k, v in sp.counters.items()}
    if sp.attrs:
        d["attrs"] = {k: v for k, v in sp.attrs.items() if isinstance(v, (int, float, str, bool))}
    if sp.children:
        d["children"] = [_span_json(c, t0) for c in sp.children]
    return d


def export(path, workload: str, seed: int, roots, t0: float, t1: float,
           metrics: dict, self_s: dict) -> None:
    """Write the per-layer metrics, self times and the span forest."""
    doc = {
        "workload": workload,
        "seed": seed,
        "traced_wall_s": t1 - t0,
        "self_s": self_s,
        "metrics": metrics,
        "spans": [_span_json(r, t0) for r in roots],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
