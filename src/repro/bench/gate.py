"""The exact gate: every deterministic counter and simulated time the
repo commits, checked against one baseline.

LibRTS's evaluation (§6) stands on traversal counters and the simulated
times derived from them. For a fixed seed both are fully deterministic,
so a change in them is a semantic change: either intended (rewrite the
baseline in the same PR) or a regression (the gate fails the build).
``BENCH_gate.json`` holds one section per subsystem workload:

- ``obs`` — :func:`repro.obs.workload.run_fixed_workload` on the index
  directly; the same workload through the service, with and without
  two worker processes, must equal it too;
- ``plan`` — the planned-vs-static matrix of :mod:`repro.plan.bench`;
- ``churn`` — the staged churn loop of :mod:`repro.churn.bench`;
- ``serve`` — staged batching and process scaling of
  :mod:`repro.serve.bench`.

:func:`compare` diffs a run against the baseline: ints, strings, bools
and ``None`` must match exactly, floats within :data:`REL_TOL`, and a
missing or extra key is drift. Each section adds the claims a diff
cannot express (bounds and cross-run invariants). Wall-clock time is
never gated here; ``perfbench/run.py`` measures it.

Usage::

    PYTHONPATH=src python -m repro.bench.gate --check   # CI: fail on drift
    PYTHONPATH=src python -m repro.bench.gate --write   # rewrite the baseline
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from repro.churn.bench import DRIFT_ONLY, run_concurrent
from repro.churn.bench import run_staged as churn_staged
from repro.obs.workload import run_fixed_workload
from repro.plan.bench import run_matrix
from repro.serve.bench import run_process_scaling
from repro.serve.bench import run_staged as serve_staged

#: The committed baseline: the repository root (next to ROADMAP.md).
BASELINE = Path(__file__).resolve().parents[3] / "BENCH_gate.json"

SCHEMA = "repro.bench.gate/v1"

#: Relative tolerance on floats (simulated times and ratios derived from
#: them). They are deterministic arithmetic over the counters; the
#: tolerance only absorbs library-version differences in reduction order.
REL_TOL = 1e-9

#: A planned cell may cost at most this fraction more than static (the
#: amortized build charges of early exploratory decisions).
PLAN_WORSE_TOL = 0.02

#: The planner's geomean simulated speedup over static must reach this.
PLAN_TARGET_GEOMEAN = 1.3


def compare(baseline, current, path: str = "") -> list[str]:
    """All drift between two JSON documents, one line per difference."""
    where = path or "<root>"
    if isinstance(baseline, dict) and isinstance(current, dict):
        problems = []
        for key in sorted(set(baseline) | set(current)):
            sub = f"{path}.{key}" if path else key
            if key not in current:
                problems.append(f"{sub}: in baseline, missing from run")
            elif key not in baseline:
                problems.append(f"{sub}: new in run, not in baseline")
            else:
                problems += compare(baseline[key], current[key], sub)
        return problems
    if isinstance(baseline, list) and isinstance(current, list):
        if len(baseline) != len(current):
            return [f"{where}: length {len(baseline)} != {len(current)}"]
        return [
            p
            for i, (b, c) in enumerate(zip(baseline, current))
            for p in compare(b, c, f"{path}[{i}]")
        ]
    if type(baseline) is float and type(current) is float:
        if math.isclose(baseline, current, rel_tol=REL_TOL, abs_tol=0.0):
            return []
        return [f"{where}: float drift: baseline {baseline!r} != run {current!r}"]
    if type(baseline) is not type(current) or baseline != current:
        return [f"{where}: exact drift: baseline {baseline!r} != run {current!r}"]
    return []


def _json(doc):
    """``doc`` as it reads back from JSON (tuples to lists, numpy
    scalars to Python numbers, keys to strings)."""
    return json.loads(json.dumps(doc))


def plan_claims(plan: dict) -> list[str]:
    failures = [
        f"plan.{c['name']}: planned {c['auto_total_s']!r}s worse than "
        f"static {c['static_sim_s']!r}s beyond {PLAN_WORSE_TOL:.0%}"
        for c in plan["cells"]
        if c["auto_total_s"] > c["static_sim_s"] * (1.0 + PLAN_WORSE_TOL)
    ]
    if plan["geomean_speedup"] < PLAN_TARGET_GEOMEAN:
        failures.append(
            f"plan: geomean speedup {plan['geomean_speedup']:.3f} below "
            f"{PLAN_TARGET_GEOMEAN}"
        )
    return failures


def churn_claims(staged: dict, concurrent: dict) -> list[str]:
    failures = []
    if not any(c["reason"] == "counter-drift" for c in staged["compactions"]):
        failures.append("churn.staged: no counter-drift compaction in the trace")
    if not staged["write_sim_speedup"] > 1.0:
        failures.append(
            "churn.staged: writes not cheaper than the refit-path mirror "
            f"(speedup {staged['write_sim_speedup']:.3f})"
        )
    if not staged["delete_sim_s_churn"] < staged["delete_sim_s_mirror"]:
        failures.append("churn.staged: tombstone deletes not cheaper than refit deletes")
    if concurrent["compactions"] < 1:
        return failures + ["churn.concurrent: no compaction fired within the deadline"]
    trigger = concurrent["trigger"] or {}
    if trigger.get("reason") != "counter-drift":
        failures.append(
            f"churn.concurrent: compaction reason {trigger.get('reason')!r}, "
            "expected 'counter-drift' (safety caps are unreachable in this policy)"
        )
    if trigger.get("drift", 0.0) < DRIFT_ONLY["drift_threshold"]:
        failures.append(
            f"churn.concurrent: trigger drift {trigger.get('drift')} below threshold"
        )
    if trigger.get("excess_s", 0.0) <= trigger.get("rebuild_s", math.inf):
        failures.append("churn.concurrent: priced decision did not pay for the rebuild")
    if concurrent["reads_before_compaction"] < 2:
        failures.append("churn.concurrent: no reads proceeded while drift accumulated")
    if not concurrent["answers_stable_across_compaction"]:
        failures.append("churn.concurrent: answers changed across the compacted epoch")
    return failures


def serve_claims(serve: dict) -> list[str]:
    failures = []
    digests = {c["digest"] for c in serve["process_scaling"]["cells"].values()}
    if len(digests) != 1:
        failures.append(
            "serve.process_scaling: response digests differ across worker counts"
        )
    if not serve["staged_batching"]["sim_speedup_batched_vs_unbatched"] > 1.0:
        failures.append(
            "serve.staged_batching: batched sim throughput does not beat unbatched"
        )
    return failures


def run() -> tuple[dict, dict, list[str]]:
    """Run every section once.

    Returns ``(document, replays, claim failures)``: the document is what
    ``--write`` commits; each replay must equal the document's ``obs``
    section (the serving layer is transparent); the claim failures are
    the bounds :func:`compare` cannot express.
    """
    doc = _json(
        {
            "schema": SCHEMA,
            "obs": run_fixed_workload(),
            "plan": run_matrix(),
            "churn": {"staged": churn_staged()},
            "serve": {
                "staged_batching": serve_staged(),
                "process_scaling": run_process_scaling(),
            },
        }
    )
    replays = {
        "obs[service]": _json(run_fixed_workload(via_service=True)),
        "obs[service,workers=2]": _json(run_fixed_workload(via_service=True, workers=2)),
    }
    claims = (
        plan_claims(doc["plan"])
        + churn_claims(doc["churn"]["staged"], run_concurrent())
        + serve_claims(doc["serve"])
    )
    return doc, replays, claims


def _failures(reference: dict, doc: dict, replays: dict, claims: list[str]) -> list[str]:
    problems = compare(reference, doc)
    for label, replay in replays.items():
        problems += compare(reference.get("obs"), replay, label)
    return problems + claims


def check(path=BASELINE) -> list[str]:
    """Run every section and diff it against the baseline at ``path``;
    returns the failures (empty = pass)."""
    path = Path(path)
    if not path.exists():
        return [
            f"no baseline at {path}; run `PYTHONPATH=src python -m "
            "repro.bench.gate --write` and commit it"
        ]
    with open(path) as fh:
        baseline = json.load(fh)
    return _failures(baseline, *run())


def write(path=BASELINE) -> list[str]:
    """Run every section and write the baseline to ``path``, unless a
    replay or claim fails; returns those failures (empty = written)."""
    doc, replays, claims = run()
    failures = _failures(doc, doc, replays, claims)
    if not failures:
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.gate",
        description="Exact gate over the deterministic counters and "
        "simulated times in BENCH_gate.json.",
    )
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="rewrite the baseline")
    mode.add_argument("--check", action="store_true", help="exit 1 on any drift")
    args = parser.parse_args(argv)

    failures = write(BASELINE) if args.write else check(BASELINE)
    if failures:
        print("gate FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        if args.check:
            print(
                "\nIf the change is intentional, rewrite the baseline in the "
                "same PR:\n  PYTHONPATH=src python -m repro.bench.gate --write",
                file=sys.stderr,
            )
        return 1
    print(f"baseline written to {BASELINE}" if args.write else "gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
