"""Finding reporters: text for humans and CI logs, SARIF for
code-scanning UIs.

Both formats are deterministic (findings arrive pre-sorted from the
engine; counters are emitted in sorted order) so two runs over the same
tree produce byte-identical reports — the analyzer holds itself to the
contract it enforces.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import List

from repro.analysis.engine import SEVERITIES, Finding


def render_text(findings: List[Finding]) -> str:
    """One line per finding plus a summary tail."""
    lines = []
    for finding in findings:
        lines.append(
            f"{finding.file}:{finding.line}:{finding.col}: "
            f"{finding.rule_id} [{finding.severity}] {finding.message}"
        )
        if finding.snippet:
            lines.append(f"    {finding.snippet}")
    if not findings:
        lines.append("clean: no findings")
    else:
        counts = Counter(finding.severity for finding in findings)
        summary = ", ".join(
            f"{counts[severity]} {severity}(s)"
            for severity in SEVERITIES
            if counts[severity]
        )
        lines.append(f"found {summary}")
    return "\n".join(lines)


#: Finding severity -> SARIF result level.
_SARIF_LEVELS = {"error": "error", "warning": "warning", "info": "note"}


def render_sarif(findings: List[Finding]) -> str:
    """SARIF 2.1.0, one run — the format code-scanning UIs ingest.

    Rules are deduplicated into the driver's rule table; each result
    carries the finding fingerprint as a partial fingerprint so SARIF
    consumers track a finding across commits and line-number churn.
    """
    rule_ids = sorted({finding.rule_id for finding in findings})
    rule_index = {rule_id: i for i, rule_id in enumerate(rule_ids)}
    results = []
    for finding in findings:
        results.append(
            {
                "ruleId": finding.rule_id,
                "ruleIndex": rule_index[finding.rule_id],
                "level": _SARIF_LEVELS.get(finding.severity, "note"),
                "message": {"text": finding.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": finding.file.replace("\\", "/"),
                            },
                            "region": {
                                "startLine": max(finding.line, 1),
                                "startColumn": finding.col + 1,
                            },
                        }
                    }
                ],
                "partialFingerprints": {
                    "reproFindingFingerprint/v1": finding.fingerprint
                },
            }
        )
    document = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://example.invalid/repro/docs/analysis"
                        ),
                        "rules": [
                            {"id": rule_id} for rule_id in rule_ids
                        ],
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
