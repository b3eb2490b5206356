"""The repo passes its own invariant checker.

This is the same gate CI runs (``python -m repro.analysis --check``):
every finding over ``src/repro`` is fixed at the source or waived inline
with a reviewed ``# noqa: RTSxxx - reason``; nothing is suppressed
anywhere else.
"""

from __future__ import annotations

import gc
import weakref

from repro.analysis import analyze, dataflow, default_paths
from repro.analysis.cli import main


def test_src_repro_is_clean():
    findings = analyze(default_paths())
    assert findings == [], "\n".join(f.format() for f in findings)


def test_cli_check_exits_zero_on_repo(capsys):
    assert main(["--check"]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ""


def test_one_engine_per_run_and_none_outlives_it(monkeypatch):
    """RTS004 and RTS007 share one dataflow engine per ``analyze()`` run,
    and nothing keeps it alive after the run returns."""
    built = []

    class Recorded(dataflow.Engine):
        def __init__(self, files):
            super().__init__(files)
            built.append(weakref.ref(self))

    monkeypatch.setattr(dataflow, "Engine", Recorded)
    for _ in range(3):
        assert analyze(default_paths()) == []
    gc.collect()
    assert len(built) == 3
    assert all(ref() is None for ref in built)
