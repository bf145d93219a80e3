"""The lint driver and its whole-program passes.

:func:`lint_paths` is the one way in: it parses every file once into a
:class:`~repro.analysis.dataflow.graph.Project`, runs the determinism
rules (:mod:`~repro.analysis.rules_determinism`) over each parsed file,
and then the three whole-program passes over the project and its call
graph:

- :mod:`~repro.analysis.dataflow.layering` — the architecture layer DAG,
  machine-enforced (``ARCH-LAYER``);
- :mod:`~repro.analysis.dataflow.reach` — definitions no root reaches
  (``DEAD-REACH``);
- :mod:`~repro.analysis.dataflow.census` — defaulted parameters no
  non-test caller passes (``DEAD-PARAM``).

Everything emits ordinary :class:`~repro.analysis.engine.Finding`
objects and ``# repro: noqa[...]`` pragmas are applied here, once, for
all of them.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.analysis.dataflow.callgraph import CallGraph
from repro.analysis.dataflow.census import find_unpassed_parameters
from repro.analysis.dataflow.graph import Project
from repro.analysis.dataflow.layering import find_layering_violations
from repro.analysis.dataflow.reach import (
    ENTRY_MODULE,
    Liveness,
    find_unreachable,
)
from repro.analysis.engine import Finding, run_rules
from repro.analysis.rules_determinism import DETERMINISM_RULES


def lint_paths(paths: Iterable[str]) -> List[Finding]:
    """Every rule and pass over files/directories: sorted findings with
    ``# repro: noqa`` pragmas already applied."""
    project = Project.load(paths)
    rules = [cls() for cls in DETERMINISM_RULES]
    findings = list(project.parse_findings)
    for name in sorted(project.modules):
        findings.extend(run_rules(project.modules[name], rules))
    findings.extend(find_layering_violations(project))
    if ENTRY_MODULE in project.modules:
        liveness = Liveness(project, CallGraph(project))
        findings.extend(find_unreachable(liveness))
        findings.extend(find_unpassed_parameters(liveness))
    by_path = {module.path: module for module in project.modules.values()}
    kept = [
        finding
        for finding in findings
        if finding.file not in by_path
        or not by_path[finding.file].suppressed(
            finding.line, finding.rule_id
        )
    ]
    kept.sort(key=Finding.sort_key)
    return kept
