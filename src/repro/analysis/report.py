"""Experiment reports.

The paper imagines communicating an experiment "to others (e.g., in a
reproducibility report)": all inputs, how they were obtained, and how they
were run.  :func:`experiment_report` renders exactly that from the
database — a markdown document listing every artifact with its hash and
provenance, the parameter space, and the outcome summary — suitable for
checking into a paper's artifact appendix.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.errors import NotFoundError
from repro.art.db import ArtifactDB
from repro.art.launch import Experiment
from repro.analysis.queries import group_by


def experiment_report(db: ArtifactDB) -> str:
    """Render a reproducibility report for the database's only
    experiment (what an exported archive holds)."""
    docs = db.database.collection("experiments").find()
    if len(docs) != 1:
        raise NotFoundError(
            f"a report needs a database holding exactly one experiment; "
            f"this one holds {sorted(d['name'] for d in docs)}"
        )
    experiment = docs[0]
    lines: List[str] = [f"# Reproducibility report: {experiment['name']}",
                        ""]
    lines += _artifact_section(db, experiment)
    lines += _parameter_section(experiment)
    lines += _outcome_section(db, experiment)
    return "\n".join(lines)


def _artifact_section(db: ArtifactDB, experiment: Dict) -> List[str]:
    lines = ["## Input artifacts", ""]
    lines.append("| stack | role | name | type | hash | provenance |")
    lines.append("|---|---|---|---|---|---|")
    for stack_name, roles in sorted(experiment["stacks"].items()):
        for role, artifact_id in sorted(roles.items()):
            doc = db.get_artifact(artifact_id)
            git = doc.get("git") or {}
            provenance = git.get("git_url", doc.get("command", ""))
            lines.append(
                f"| {stack_name} | {role} | {doc['name']} | "
                f"{doc['type']} | `{doc['hash'][:12]}` | {provenance} |"
            )
    lines.append("")
    return lines


def _parameter_section(experiment: Dict) -> List[str]:
    lines = ["## Parameter space", ""]
    for key, value in sorted(experiment.get("fixed", {}).items()):
        lines.append(f"- fixed `{key}` = `{value}`")
    for key, values in sorted(experiment.get("axes", {}).items()):
        rendered = ", ".join(f"`{v}`" for v in values)
        lines.append(f"- swept `{key}` over {rendered}")
    total = len(experiment.get("run_ids", []))
    lines += ["", f"Total runs: **{total}**", ""]
    return lines


def _outcome_section(db: ArtifactDB, experiment: Dict) -> List[str]:
    lines = ["## Outcomes", ""]
    records = Experiment.load(db, experiment["_id"]).records()
    counts = group_by(records, ["outcome"])
    finished = [r for r in records if r["status"] != "created"]
    sim_seconds = sum(r.get("sim_seconds", 0.0) for r in finished)
    lines.append("| outcome | runs |")
    lines.append("|---|---|")
    for (outcome,), group in sorted(counts.items()):
        lines.append(f"| {outcome} | {len(group)} |")
    lines += [
        "",
        f"Finished runs: {len(finished)}; total simulated time: "
        f"{sim_seconds:.4f} s.",
        "",
    ]
    return lines
