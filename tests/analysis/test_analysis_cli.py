"""CLI surface: exit codes, baseline round-trip, explain/list output."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.cli import main
from repro.analysis.findings import BASELINE_VERSION

FIXTURES = Path(__file__).parent / "fixtures"
BAD = str(FIXTURES / "rts006_bad.py")
GOOD = str(FIXTURES / "rts006_good.py")


def test_check_nonzero_on_bad_fixture(tmp_path, capsys):
    assert main([BAD, "--check", "--baseline", str(tmp_path / "b.json")]) == 1
    out = capsys.readouterr().out
    assert "RTS006" in out
    assert "rts006_bad.py" in out


def test_check_zero_on_good_fixture(tmp_path, capsys):
    assert main([GOOD, "--check", "--baseline", str(tmp_path / "b.json")]) == 0
    assert capsys.readouterr().out == ""


def test_update_baseline_then_check_passes(tmp_path, capsys):
    baseline = tmp_path / "b.json"
    assert main([BAD, "--update-baseline", "--baseline", str(baseline)]) == 0
    doc = json.loads(baseline.read_text())
    assert doc["version"] == BASELINE_VERSION
    assert doc["suppressions"], "expected recorded suppressions"
    capsys.readouterr()
    assert main([BAD, "--check", "--baseline", str(baseline)]) == 0
    err = capsys.readouterr().err
    assert "baseline-suppressed" in err


def test_baseline_suppression_matches_message_not_line(tmp_path, capsys):
    src = tmp_path / "mod.py"
    src.write_text("import time\n\ndef stamp():\n    return time.time()\n")
    baseline = tmp_path / "b.json"
    assert main([str(src), "--update-baseline", "--baseline", str(baseline)]) == 0
    # Shift the finding to a different line: still suppressed.
    src.write_text("import time\n# pad\n# pad\n\ndef stamp():\n    return time.time()\n")
    capsys.readouterr()
    assert main([str(src), "--check", "--baseline", str(baseline)]) == 0


def test_json_output(tmp_path, capsys):
    main([BAD, "--json", "--baseline", str(tmp_path / "b.json")])
    records = json.loads(capsys.readouterr().out)
    assert records and all(r["rule"].startswith("RTS") for r in records)
    assert {"file", "line", "rule", "message"} <= set(records[0])


def test_explain_known_rule(capsys):
    assert main(["--explain", "rts004"]) == 0
    out = capsys.readouterr().out
    assert "RTS004" in out
    assert "scope:" in out
    assert "REPRO_TSAN=1" in out


def test_explain_unknown_rule(capsys):
    assert main(["--explain", "RTS999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [ln.split()[0] for ln in lines] == [
        "RTS001", "RTS002", "RTS003", "RTS004", "RTS005", "RTS006",
        "RTS007", "RTS008", "RTS009",
    ]


def test_stale_baseline_entry_fails_check(tmp_path, capsys):
    baseline = tmp_path / "b.json"
    assert main([BAD, "--update-baseline", "--baseline", str(baseline)]) == 0
    # The flagged code is fixed; its waiver must now be reported stale.
    fixed = tmp_path / "fixed.py"
    fixed.write_text("def stamp():\n    return 0\n")
    capsys.readouterr()
    assert main([str(fixed), "--check", "--baseline", str(baseline)]) == 1
    err = capsys.readouterr().err
    assert "stale baseline entry" in err
    assert "no longer fires" in err


def test_update_baseline_clears_stale_entries(tmp_path, capsys):
    baseline = tmp_path / "b.json"
    assert main([BAD, "--update-baseline", "--baseline", str(baseline)]) == 0
    fixed = tmp_path / "fixed.py"
    fixed.write_text("def stamp():\n    return 0\n")
    assert main([str(fixed), "--update-baseline", "--baseline", str(baseline)]) == 0
    capsys.readouterr()
    assert main([str(fixed), "--check", "--baseline", str(baseline)]) == 0


def test_sarif_output(tmp_path, capsys):
    out = tmp_path / "out.sarif"
    main([BAD, "--sarif", str(out), "--baseline", str(tmp_path / "b.json")])
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro.analysis"
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"RTS001", "RTS009"} <= rule_ids
    assert run["results"], "expected at least one result"
    first = run["results"][0]
    assert first["ruleId"].startswith("RTS")
    loc = first["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"].endswith("rts006_bad.py")
    assert loc["region"]["startLine"] >= 1


def test_sarif_suppressed_findings_are_omitted(tmp_path):
    baseline = tmp_path / "b.json"
    assert main([BAD, "--update-baseline", "--baseline", str(baseline)]) == 0
    out = tmp_path / "out.sarif"
    assert main([BAD, "--sarif", str(out), "--baseline", str(baseline)]) == 0
    doc = json.loads(out.read_text())
    assert doc["runs"][0]["results"] == []
