"""SARIF 2.1.0 export for the analysis CLI (``--sarif OUT.sarif``).

Emits the minimal static-analysis result format GitHub code scanning
ingests (``github/codeql-action/upload-sarif``), so findings surface as
PR annotations at the offending line. One run, one result per unwaived
finding; every registered rule is listed in the driver with its
``--explain`` text so the annotations link to real documentation.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from repro.analysis.checkers import ALL_CHECKERS
from repro.analysis.findings import Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def sarif_document(findings: Iterable[Finding]) -> dict:
    rules = [
        {
            "id": cls.rule_id,
            "name": cls.__name__,
            "shortDescription": {"text": cls.title},
            "fullDescription": {"text": cls.rationale},
            "defaultConfiguration": {"level": "error"},
        }
        for cls in ALL_CHECKERS
    ]
    results = [
        {
            "ruleId": f.rule_id,
            "level": "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.file,
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {"startLine": max(f.line, 1)},
                    }
                }
            ],
        }
        for f in findings
    ]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.analysis",
                        "informationUri": "docs/ANALYSIS.md",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }


def write_sarif(findings: Iterable[Finding], path: Path) -> None:
    Path(path).write_text(
        json.dumps(sarif_document(findings), indent=2, sort_keys=True) + "\n"
    )
