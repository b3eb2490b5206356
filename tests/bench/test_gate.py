"""The exact gate agrees with its committed baseline.

This is the pytest face of ``python -m repro.bench.gate --check``: every
section is run once (module-scoped — it prices a few hundred queries)
and compared against BENCH_gate.json, and the comparator and each
section's claim checks are exercised on synthetic drift.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import gate


@pytest.fixture(scope="module")
def gate_run():
    return gate.run()


@pytest.fixture
def doc(gate_run):
    return copy.deepcopy(gate_run[0])


def test_committed_baseline_exists():
    assert gate.BASELINE.exists(), (
        "BENCH_gate.json missing; run `python -m repro.bench.gate --write`"
    )


def test_run_matches_committed_baseline(gate_run):
    with open(gate.BASELINE) as fh:
        baseline = json.load(fh)
    problems = gate._failures(baseline, *gate_run)
    assert problems == [], "\n".join(problems)


def test_run_has_one_section_per_subsystem(doc):
    assert set(doc) == {"schema", "obs", "plan", "churn", "serve"}
    assert doc["schema"] == gate.SCHEMA


def test_obs_covers_builders_dims_and_predicates(doc):
    cases = doc["obs"]["cases"]
    for tag in ("2d.fast_build", "3d.fast_build", "2d.fast_trace", "2d.mutated", "2d.rebuilt"):
        for pred in ("point", "contains", "intersects"):
            assert f"{tag}.{pred}" in cases
    assert "mutation.ops" in cases
    inter = cases["2d.fast_build.intersects"]
    assert "counters_forward" in inter and "counters_backward" in inter and "k" in inter


def test_serving_replay_matches_direct_workload(gate_run):
    """The serving layer is observably transparent: the same workload
    through SpatialQueryService produces the identical ``obs`` section."""
    doc, replays, _ = gate_run
    problems = gate.compare(doc["obs"], replays["obs[service]"], "obs[service]")
    assert problems == [], "\n".join(problems)


def test_counter_drift_detected(doc):
    drifted = copy.deepcopy(doc)
    drifted["obs"]["cases"]["2d.fast_build.point"]["counters"]["nodes_visited"] += 1
    problems = gate.compare(doc, drifted)
    assert len(problems) == 1
    assert "exact drift" in problems[0]
    assert "obs.cases.2d.fast_build.point.counters.nodes_visited" in problems[0]


def test_sim_time_drift_detected_beyond_tolerance(doc):
    drifted = copy.deepcopy(doc)
    drifted["obs"]["cases"]["2d.fast_build.intersects"]["phases"]["forward_cast"] *= 1.001
    problems = gate.compare(doc, drifted)
    assert any("float drift" in p for p in problems)


def test_sim_time_jitter_within_tolerance_passes(doc):
    drifted = copy.deepcopy(doc)
    drifted["obs"]["cases"]["2d.fast_build.intersects"]["phases"]["forward_cast"] *= 1.0 + 1e-12
    assert gate.compare(doc, drifted) == []


def test_missing_and_extra_keys_are_drift(doc):
    missing = copy.deepcopy(doc)
    del missing["obs"]["cases"]["2d.fast_trace.point"]
    assert any("missing from run" in p for p in gate.compare(doc, missing))
    assert any("not in baseline" in p for p in gate.compare(missing, doc))


def test_type_change_is_drift():
    assert gate.compare({"n": 1}, {"n": 1.0}) != []
    assert gate.compare({"ok": True}, {"ok": 1}) != []
    assert gate.compare({"xs": [1, 2]}, {"xs": [1, 2, 3]}) != []


def test_drifted_planner_decision_fails(doc):
    drifted = copy.deepcopy(doc)
    (i,) = [i for i, c in enumerate(drifted["plan"]["cells"])
            if c["name"] == "intersects-small"]
    cell = drifted["plan"]["cells"][i]
    assert cell["decisions"][0] == "lbvh"
    cell["decisions"][0] = "rt"
    problems = gate.compare(doc, drifted)
    assert len(problems) == 1
    assert f"plan.cells[{i}].decisions[0]" in problems[0]


def test_plan_claims_hold_on_the_run(doc):
    assert gate.plan_claims(doc["plan"]) == []


def test_geomean_below_target_fails(doc):
    doc["plan"]["geomean_speedup"] = 1.29
    failures = gate.plan_claims(doc["plan"])
    assert len(failures) == 1 and "geomean" in failures[0]


def test_cell_worse_than_static_beyond_tolerance_fails(doc):
    cell = doc["plan"]["cells"][0]
    cell["auto_total_s"] = cell["static_sim_s"] * 1.02
    assert gate.plan_claims(doc["plan"]) == []
    cell["auto_total_s"] = cell["static_sim_s"] * 1.021
    failures = gate.plan_claims(doc["plan"])
    assert len(failures) == 1 and cell["name"] in failures[0]


def test_changed_compaction_schedule_fails(doc):
    drifted = copy.deepcopy(doc)
    drifted["churn"]["staged"]["compactions"][0]["round"] += 1
    problems = gate.compare(doc, drifted)
    assert any("churn.staged.compactions[0].round" in p for p in problems)


def test_churn_claims_hold_on_the_run(doc):
    assert gate.churn_claims(doc["churn"]["staged"]) == []


def test_trace_without_compaction_fails(doc):
    staged = doc["churn"]["staged"]
    staged["compactions"] = []
    failures = gate.churn_claims(staged)
    assert len(failures) == 1 and "no compaction" in failures[0]


@pytest.mark.parametrize(
    "edit, needle",
    [
        (lambda s: s.update(write_sim_speedup=1.0), "writes not cheaper"),
        (lambda s: s.update(write_sim_speedup=0.5), "writes not cheaper"),
        (lambda s: s.update(write_sim_speedup=float("nan")), "writes not cheaper"),
        (
            lambda s: s.update(delete_sim_s_churn=s["delete_sim_s_mirror"]),
            "tombstone deletes",
        ),
        (lambda s: s.update(delete_sim_s_churn=float("nan")), "tombstone deletes"),
    ],
)
def test_staged_invariants_fail(doc, edit, needle):
    staged = doc["churn"]["staged"]
    edit(staged)
    failures = gate.churn_claims(staged)
    assert len(failures) == 1 and needle in failures[0]


def test_churn_write_and_delete_bounds_fail(doc):
    staged = doc["churn"]["staged"]
    staged["write_sim_speedup"] = 1.0
    staged["delete_sim_s_churn"] = staged["delete_sim_s_mirror"]
    failures = gate.churn_claims(staged)
    assert len(failures) == 2


def test_serve_claims_hold_on_the_run(doc):
    assert gate.serve_claims(doc["serve"]) == []


def test_batching_without_sim_win_fails(doc):
    doc["serve"]["staged_batching"]["sim_speedup_batched_vs_unbatched"] = 1.0
    failures = gate.serve_claims(doc["serve"])
    assert len(failures) == 1 and "batched" in failures[0]


def test_write_then_check_round_trip(tmp_path, gate_run, monkeypatch):
    path = tmp_path / "BENCH_gate.json"
    monkeypatch.setattr(gate, "run", lambda: copy.deepcopy(gate_run))
    assert gate.write(path) == []
    assert gate.check(path) == []
    monkeypatch.setattr(gate, "BASELINE", path)
    assert gate.main(["--check"]) == 0
    with open(path) as fh:
        baseline = json.load(fh)
    baseline["plan"]["geomean_speedup"] *= 2
    with open(path, "w") as fh:
        json.dump(baseline, fh)
    assert gate.main(["--check"]) == 1


def test_write_refuses_when_a_claim_fails(tmp_path, gate_run, monkeypatch):
    doc, replays, _ = copy.deepcopy(gate_run)
    monkeypatch.setattr(gate, "run", lambda: (doc, replays, ["serve: broken"]))
    path = tmp_path / "BENCH_gate.json"
    assert gate.write(path) == ["serve: broken"]
    assert not path.exists()


def test_check_fails_cleanly_without_baseline(tmp_path):
    problems = gate.check(tmp_path / "nope.json")
    assert len(problems) == 1
    assert "no baseline" in problems[0] and "--write" in problems[0]


@pytest.mark.parametrize("argv", [[], ["--check", "--write"], ["--check", "--serve"]])
def test_cli_takes_exactly_one_of_write_or_check(argv):
    with pytest.raises(SystemExit):
        gate.main(argv)
