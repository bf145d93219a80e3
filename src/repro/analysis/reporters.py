"""Finding reporters: text for humans, JSON and SARIF for CI.

All formats are deterministic (findings arrive pre-sorted from the
engine; counters are emitted in sorted order) so two runs over the same
tree produce byte-identical reports — the analyzer holds itself to the
contract it enforces.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List

from repro.analysis.engine import SEVERITIES, Finding


def severity_counts(findings: Iterable[Finding]) -> Dict[str, int]:
    counts = {severity: 0 for severity in SEVERITIES}
    for finding in findings:
        counts[finding.severity] = counts.get(finding.severity, 0) + 1
    return counts


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
    counts = severity_counts(findings)
    summary = ", ".join(
        f"{counts[severity]} {severity}(s)"
        for severity in SEVERITIES
        if counts.get(severity)
    )
    if not findings:
        lines.append("clean: no findings")
    else:
        lines.append(f"found {summary}")
    return "\n".join(lines)


def render_json(findings: List[Finding]) -> str:
    payload = {
        "version": 1,
        "counts": severity_counts(findings),
        "findings": [finding.to_dict() for finding in findings],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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
