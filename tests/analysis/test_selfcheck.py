"""The repo passes its own invariant checker.

This is the same gate CI runs (``python -m repro.analysis --check``):
every finding over ``src/repro`` is fixed at the source or waived inline
with a reviewed ``# noqa: RTSxxx - reason``; nothing is suppressed
anywhere else.
"""

from __future__ import annotations

from repro.analysis import analyze, default_paths
from repro.analysis.cli import main


def test_src_repro_is_clean():
    findings = analyze(default_paths())
    assert findings == [], "\n".join(f.format() for f in findings)


def test_cli_check_exits_zero_on_repo(capsys):
    assert main(["--check"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ""
