"""CLI surface: exit codes, inline waivers, explain/list output."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
BAD = str(FIXTURES / "rts006_bad.py")
GOOD = str(FIXTURES / "rts006_good.py")
RULE_IDS = ["RTS002", "RTS003", "RTS004", "RTS005", "RTS006"]


def test_check_nonzero_on_bad_fixture(capsys):
    assert main([BAD, "--check"]) == 1
    out = capsys.readouterr().out
    assert "RTS006" in out
    assert "rts006_bad.py" in out


def test_check_zero_on_good_fixture(capsys):
    assert main([GOOD, "--check"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag", ["--baseline=b.json", "--update-baseline"])
def test_baseline_flags_are_gone(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main([GOOD, flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_json_output(capsys):
    main([BAD, "--json"])
    records = json.loads(capsys.readouterr().out)
    assert records and all(r["rule"].startswith("RTS") for r in records)
    assert {"file", "line", "rule", "message"} <= set(records[0])


def test_explain_known_rule(capsys):
    assert main(["--explain", "rts004"]) == 0
    out = capsys.readouterr().out
    assert "RTS004" in out
    assert "scope:" in out
    assert "REPRO_TSAN=1" in out


@pytest.mark.parametrize("rule", RULE_IDS)
def test_explain_every_listed_rule(rule, capsys):
    assert main(["--explain", rule]) == 0
    head, scope, blank, *rationale = capsys.readouterr().out.splitlines()
    assert head.startswith(f"{rule}: ")
    assert scope.startswith("scope: ")
    assert blank == ""
    assert any(line.strip() for line in rationale)


@pytest.mark.parametrize("rule", ["RTS001", "RTS007", "RTS008", "RTS009"])
def test_retired_rules_are_unknown(rule, capsys):
    assert main(["--explain", rule]) == 2
    assert f"unknown rule {rule!r}" in capsys.readouterr().err


def test_explain_unknown_rule(capsys):
    assert main(["--explain", "RTS999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [ln.split()[0] for ln in lines] == RULE_IDS


def test_sarif_output(tmp_path, capsys):
    out = tmp_path / "out.sarif"
    main([BAD, "--sarif", str(out)])
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro.analysis"
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert rule_ids == RULE_IDS
    assert run["results"], "expected at least one result"
    first = run["results"][0]
    assert first["ruleId"].startswith("RTS")
    loc = first["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"].endswith("rts006_bad.py")
    assert loc["region"]["startLine"] >= 1


def test_sarif_suppressed_findings_are_omitted(tmp_path, capsys):
    src = tmp_path / "waived.py"
    src.write_text(
        "import time\n"
        "def stamp():\n"
        "    return time.time()  # noqa: RTS006 - wall clock wanted here\n"
        "def again():\n"
        "    return time.time()\n"
    )
    out = tmp_path / "out.sarif"
    assert main([str(src), "--sarif", str(out)]) == 1
    capsys.readouterr()
    results = json.loads(out.read_text())["runs"][0]["results"]
    lines = [
        r["locations"][0]["physicalLocation"]["region"]["startLine"]
        for r in results
    ]
    assert lines == [5]  # the unwaived call only
