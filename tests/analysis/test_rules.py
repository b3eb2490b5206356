"""Per-rule positive/negative fixtures: every rule fires on its bad
fixture and stays silent on its good twin."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import analyze

FIXTURES = Path(__file__).parent / "fixtures"
RULES = (
    "RTS001", "RTS002", "RTS003", "RTS004", "RTS005", "RTS006",
    "RTS007", "RTS008", "RTS009",
)


def _findings(name: str):
    path = FIXTURES / name
    assert path.exists(), path
    return analyze([path])


@pytest.mark.parametrize("rule", RULES)
def test_bad_fixture_fires(rule):
    findings = _findings(f"{rule.lower()}_bad.py")
    assert any(f.rule_id == rule for f in findings), [f.format() for f in findings]


@pytest.mark.parametrize("rule", RULES)
def test_good_fixture_is_clean(rule):
    findings = _findings(f"{rule.lower()}_good.py")
    assert findings == [], [f.format() for f in findings]


def test_rts001_catches_every_impurity_mode():
    messages = [f.message for f in _findings("rts001_bad.py") if f.rule_id == "RTS001"]
    assert any("self state" in m for m in messages)
    assert any("closure/global state" in m for m in messages)
    assert any("mutates non-local" in m for m in messages)
    assert any("declares global" in m for m in messages)
    assert any("RNG" in m for m in messages)
    assert any("I/O" in m for m in messages)


def test_rts004_catches_every_hygiene_mode():
    messages = [f.message for f in _findings("rts004_bad.py") if f.rule_id == "RTS004"]
    assert any("raw threading.Lock()" in m for m in messages)
    assert any("only descends" in m for m in messages), messages
    assert any("re-acquired while already held" in m for m in messages)
    assert any("lock-order cycle" in m for m in messages)
    assert any("shader callback" in m for m in messages)
    assert any("threading.Event() hides an unranked lock" in m for m in messages)
    assert any("Condition must wrap a make_lock-ranked lock" in m for m in messages)


def test_rts004_follows_typed_parameter_calls():
    # ``low: Low`` types the receiver, so ``low.grab()`` made while holding
    # obs.metrics (rank 40) contributes Low's serve.snapshot (rank 20).
    source = (FIXTURES / "rts004_bad.py").read_text().splitlines()
    line = next(i for i, ln in enumerate(source, 1) if "low.grab()" in ln)
    descending = [
        f for f in _findings("rts004_bad.py")
        if f.rule_id == "RTS004" and f.line == line
    ]
    assert [f.message for f in descending] == [
        "acquires 'serve.snapshot' (rank 20) while holding 'obs.metrics' "
        "(rank 40); the global order in repro.lockorder.RANKS only descends"
    ]


def test_rts005_accepts_each_pairing_form():
    # The good fixture holds one construction per accepted form; a single
    # miss in the heuristic would produce a finding and fail the clean test,
    # but make the inventory explicit here.
    source = (FIXTURES / "rts005_good.py").read_text()
    for form in ("with RTSIndex", "finally:", "# owner:", "adopt(RTSIndex",
                 "return RTSIndex", "self.idx = RTSIndex"):
        assert form in source


def test_rts007_catches_lockfree_read_and_disjoint_guards():
    messages = [f.message for f in _findings("rts007_bad.py") if f.rule_id == "RTS007"]
    assert any("read of Tally._done without lock" in m for m in messages), messages
    assert any("reachable from" in m and "main" in m for m in messages)
    assert any("disjoint" in m for m in messages), messages


def test_rts008_catches_every_escape_mode():
    messages = [f.message for f in _findings("rts008_bad.py") if f.rule_id == "RTS008"]
    assert any("subscript store" in m for m in messages)
    assert any(".flags.writeable flip" in m for m in messages)
    assert any("np.copyto() write" in m for m in messages)
    assert any("mutating its argument" in m for m in messages)
    assert any(".insert() in-place mutation" in m for m in messages)


def test_rts009_catches_reachability_and_unknown_labels():
    messages = [f.message for f in _findings("rts009_bad.py") if f.rule_id == "RTS009"]
    assert any("reachable from thread root(s): main" in m for m in messages), messages
    assert any("unknown thread root(s) ghost" in m for m in messages), messages


def test_findings_are_sorted_and_deduplicated():
    findings = _findings("rts006_bad.py")
    keys = [f.sort_key() for f in findings]
    assert keys == sorted(keys)
    assert len(set(findings)) == len(findings)


def test_noqa_waives_a_single_rule(tmp_path):
    bad = tmp_path / "waived.py"
    bad.write_text(
        "import time\n"
        "def stamp():\n"
        "    return time.time()  # noqa: RTS006 - wall clock wanted here\n"
    )
    assert analyze([bad]) == []


def test_noqa_for_other_rule_does_not_waive(tmp_path):
    bad = tmp_path / "unwaived.py"
    bad.write_text(
        "import time\n"
        "def stamp():\n"
        "    return time.time()  # noqa: RTS001\n"
    )
    findings = analyze([bad])
    assert [f.rule_id for f in findings] == ["RTS006"]


def test_syntax_error_reports_rts000(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    findings = analyze([bad])
    assert [f.rule_id for f in findings] == ["RTS000"]
    assert "unparseable" in findings[0].message
