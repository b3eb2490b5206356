"""repro.analysis — AST-based invariant checker for the whole stack.

Six rules (RTS002–RTS007) encode the cross-cutting invariants the test
suite can't economically cover: dtype discipline, canonical pair order,
resource pairing, bench determinism, and — backed by the
interprocedural engine in :mod:`repro.analysis.dataflow` — lock hygiene
and guard consistency. Run ``python -m repro.analysis --check`` (CI
does); see ``docs/ANALYSIS.md`` for the rule catalog and ``REPRO_TSAN=1`` for the
matching runtime checks (lock-order assertions in :mod:`repro.lockorder`
and the race sanitizer in :mod:`repro.tsan`).
"""

from repro.analysis.checkers import ALL_CHECKERS, default_checkers
from repro.analysis.findings import Finding
from repro.analysis.framework import Analyzer, Checker, FileContext
from repro.analysis.project import default_paths, discover, repo_root


def analyze(paths=None, checkers=None):
    """Run the rule set over ``paths`` (default: ``src/repro``).

    Returns the sorted list of :class:`Finding` records, with inline
    ``# noqa: RTSxxx`` waivers already applied.
    """
    files = discover(paths if paths is not None else default_paths())
    analyzer = Analyzer(checkers if checkers is not None else default_checkers())
    return analyzer.run(files)


__all__ = [
    "ALL_CHECKERS",
    "Analyzer",
    "Checker",
    "FileContext",
    "Finding",
    "analyze",
    "default_checkers",
    "default_paths",
    "discover",
    "repo_root",
]
