"""Finding records and inline ``# noqa`` waivers.

A finding is one rule violation at one source line. The one suppression
mechanism is ``# noqa: RTS004`` on the offending line: a *permanent,
reviewed* waiver, placed next to the code it excuses (optionally
followed by a reason). Bare ``# noqa`` waives every rule on the line.
Anything else is fixed at the source; ``--check`` fails on it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class Finding:
    """One rule violation: ``file:line: rule_id message``."""

    file: str
    line: int
    rule_id: str
    message: str

    def format(self) -> str:
        return f"{self.file}:{self.line}: {self.rule_id} {self.message}"

    def sort_key(self) -> tuple:
        return (self.file, self.line, self.rule_id, self.message)


_NOQA_RE = re.compile(
    r"#\s*noqa(?::\s*(?P<codes>[A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*))?",
    re.IGNORECASE,
)

#: Sentinel meaning "every rule" in a per-line waiver set.
ALL_RULES = "*"


def parse_noqa(lines: Iterable[str]) -> dict[int, set[str]]:
    """Per-line waivers: 1-based line number -> waived rule ids.

    ``# noqa`` with no code list waives all rules (:data:`ALL_RULES`).
    A line with several ``# noqa`` comments waives the union of their
    codes.
    """
    waivers: dict[int, set[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        if "#" not in text:
            continue
        codes: set[str] = set()
        for m in _NOQA_RE.finditer(text):
            listed = m.group("codes")
            if listed is None:
                codes.add(ALL_RULES)
            else:
                codes.update(c.strip().upper() for c in listed.split(","))
        if codes:
            waivers[lineno] = codes
    return waivers


def waived(finding: Finding, waivers: dict[int, set[str]]) -> bool:
    codes = waivers.get(finding.line)
    if not codes:
        return False
    return ALL_RULES in codes or finding.rule_id in codes

