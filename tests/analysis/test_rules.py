"""Per-rule positive/negative fixtures: every rule fires on its bad
fixture and stays silent on its good twin."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import analyze
from repro.analysis.findings import ALL_RULES, parse_noqa

FIXTURES = Path(__file__).parent / "fixtures"
RULES = ("RTS002", "RTS003", "RTS004", "RTS005", "RTS006")


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


def test_rts004_catches_every_hygiene_mode():
    # Every line the fixture marks ``# RTS004:`` is flagged, and no other.
    # The three modes are the whole replay record: seven raw Lock()s and a
    # Condition over one of them in the first serving layer, and the
    # compactor's first stop Event.
    source = (FIXTURES / "rts004_bad.py").read_text().splitlines()
    marked = {i for i, ln in enumerate(source, 1) if "# RTS004:" in ln}
    findings = [f for f in _findings("rts004_bad.py") if f.rule_id == "RTS004"]
    assert {f.line for f in findings} == marked
    messages = [f.message for f in findings]
    assert any("raw threading.Lock()" in m for m in messages)
    assert any("raw threading.Condition()" in m for m in messages)
    assert any("threading.Event() hides an unranked lock" in m for m in messages)
    assert any("Condition must wrap a make_lock-ranked lock" in m for m in messages)


def test_rts005_accepts_each_pairing_form():
    # The good fixture holds one construction per accepted form; a single
    # miss in the heuristic would produce a finding and fail the clean test,
    # but make the inventory explicit here.
    source = (FIXTURES / "rts005_good.py").read_text()
    for form in ("with RTSIndex", "finally:", "# owner:", "adopt(RTSIndex",
                 "return RTSIndex", "self.idx = RTSIndex"):
        assert form in source


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


@pytest.mark.parametrize("rule", RULES)
def test_noqa_waives_every_finding_of_its_rule(rule, tmp_path):
    # Inline waivers are the only suppression: a reasoned ``# noqa`` on
    # each flagged line of the bad fixture silences exactly that rule and
    # leaves every other rule's findings where they were.
    name = f"{rule.lower()}_bad.py"
    before = _findings(name)
    flagged = {f.line for f in before if f.rule_id == rule}
    assert flagged
    # "join" adds the rule to a line's existing noqa list; "append"
    # always adds a second ``# noqa`` comment (rts005_bad.py's lines
    # already carry ``# noqa: F821``).
    for style in ("join", "append"):
        lines = (FIXTURES / name).read_text().splitlines()
        for i in flagged:
            line = lines[i - 1]
            if style == "join" and "# noqa: " in line:
                lines[i - 1] = line.replace("# noqa: ", f"# noqa: {rule}, ", 1)
            else:
                lines[i - 1] = f"{line}  # noqa: {rule} - fixture waiver"
        (tmp_path / style).mkdir()
        waived_copy = tmp_path / style / name
        waived_copy.write_text("\n".join(lines) + "\n")
        after = analyze([waived_copy])
        assert all(f.rule_id != rule for f in after), [f.format() for f in after]
        assert [(f.line, f.rule_id, f.message) for f in after] == [
            (f.line, f.rule_id, f.message) for f in before if f.rule_id != rule
        ]


def test_bare_noqa_waives_every_rule(tmp_path):
    bad = tmp_path / "bare.py"
    bad.write_text(
        "import time\n"
        "import numpy as np\n"
        "def stamp(q, r):\n"
        "    return time.time(), np.lexsort((r, q))  # noqa\n"
    )
    assert analyze([bad]) == []


@pytest.mark.parametrize(
    "line, waived",
    [
        ("x = f()", None),
        ("x = f()  # a comment, not a waiver", None),
        ("x = f()  # noqa", {ALL_RULES}),
        ("x = f()  # noqa: RTS003", {"RTS003"}),
        ("x = f()  # NOQA: rts003 , RTS006 - reason", {"RTS003", "RTS006"}),
        ("x = f()  # noqa: F821  # noqa: RTS005 - reason", {"F821", "RTS005"}),
        ("x = f()  # noqa: RTS005  # noqa", {"RTS005", ALL_RULES}),
    ],
)
def test_parse_noqa_line(line, waived):
    """One line's waivers: every ``# noqa`` comment on it counts."""
    assert parse_noqa(["y = 1", line]) == ({} if waived is None else {2: waived})


def test_noqa_code_list_waives_only_listed_rules(tmp_path):
    src = (
        "import time\n"
        "import numpy as np\n"
        "def stamp(q, r):\n"
        "    return time.time(), np.lexsort((r, q))  # noqa: {codes}\n"
    )
    both = tmp_path / "both.py"
    both.write_text(src.format(codes="RTS003, rts006"))
    assert analyze([both]) == []
    one = tmp_path / "one.py"
    one.write_text(src.format(codes="RTS006"))
    assert [f.rule_id for f in analyze([one])] == ["RTS003"]
    # Every ``# noqa`` comment on a line counts: the union of their codes.
    split = tmp_path / "split.py"
    split.write_text(src.format(codes="RTS003  # noqa: RTS006 - reason"))
    assert analyze([split]) == []
    line = "x = f()  # noqa: F821  # noqa: RTS005 - reason"
    assert parse_noqa([line]) == {1: {"F821", "RTS005"}}


def test_noqa_for_other_rule_does_not_waive(tmp_path):
    bad = tmp_path / "unwaived.py"
    bad.write_text(
        "import time\n"
        "def stamp():\n"
        "    return time.time()  # noqa: RTS002\n"
    )
    findings = analyze([bad])
    assert [f.rule_id for f in findings] == ["RTS006"]


def test_syntax_error_reports_rts000(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    findings = analyze([bad])
    assert [f.rule_id for f in findings] == ["RTS000"]
    assert "unparseable" in findings[0].message
