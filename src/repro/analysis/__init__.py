"""repro.analysis — AST-based invariant checker for the whole stack.

Five per-file rules (RTS002–RTS006) encode the cross-cutting invariants
the test suite can't economically cover: dtype discipline, canonical
pair order, lock hygiene (every lock is a ranked ``make_lock`` lock),
resource pairing and bench determinism. Run
``python -m repro.analysis --check`` (CI does); see ``docs/ANALYSIS.md``
for the rule catalog. Lock order and guard consistency are checked at
runtime under ``REPRO_TSAN=1``, by :mod:`repro.lockorder` and the race
sanitizer in :mod:`repro.tsan`.
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
