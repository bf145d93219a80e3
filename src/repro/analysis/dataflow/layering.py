"""Import-layering gate: the architecture DAG, machine-enforced.

``docs/architecture.md`` describes the package layering in prose
("strict, no cycles, ``common`` at the bottom").  This pass encodes
that DAG as data — :data:`ALLOWED_DEPENDENCIES` maps each top-level
package under ``repro`` to the set of packages it may import — and
reports every violation as an ``ARCH-LAYER`` finding:

- **upward imports** — an import edge to a package not in the
  importer's allowed set (e.g. ``gpu`` importing ``sim``);
- **module cycles** — a cycle among project modules, found by DFS over
  the resolved import graph (covers intra-package cycles the DAG check
  cannot see).

``if TYPE_CHECKING:`` imports are annotation-only and never create a
runtime dependency, so they are exempt from both checks.  A module may
always import within its own package and from ``repro`` itself (the
root ``__init__`` re-exports nothing heavy).
"""

from __future__ import annotations

import graphlib
from typing import Dict, FrozenSet, List, Set

from repro.analysis.engine import Finding
from repro.analysis.dataflow.graph import ImportEdge, Project, top_package

RULE_ID = "ARCH-LAYER"

#: Everything ``art`` — the paper's framework layer — is built on.
_BELOW_ART = frozenset(
    {
        "common",
        "telemetry",
        "chaos",
        "vfs",
        "guest",
        "gpu",
        "db",
        "scheduler",
        "packer",
        "sim",
        "resources",
    }
)

#: The layer DAG from ``docs/architecture.md``: package -> packages it
#: may import.  Own-package imports are always allowed and not listed.
ALLOWED_DEPENDENCIES: Dict[str, FrozenSet[str]] = {
    "common": frozenset(),
    "telemetry": frozenset({"common"}),
    "chaos": frozenset({"common"}),
    "vfs": frozenset({"common"}),
    "guest": frozenset({"common"}),
    "gpu": frozenset({"common", "telemetry"}),
    "db": frozenset({"common", "telemetry", "chaos"}),
    "scheduler": frozenset({"common", "telemetry", "chaos"}),
    "packer": frozenset({"common", "vfs", "guest"}),
    "sim": frozenset(
        {"common", "telemetry", "chaos", "vfs", "guest", "gpu"}
    ),
    "resources": frozenset(
        {"common", "vfs", "guest", "gpu", "packer", "sim"}
    ),
    "art": _BELOW_ART,
    "pipeline": _BELOW_ART | {"art"},
    "analysis": frozenset({"common", "art"}),
    "cli": _BELOW_ART | {"art", "pipeline", "analysis"},
    "__main__": frozenset({"cli"}),
}

#: Who may call *into* the package from outside it: directories, under
#: the repository root, whose files are callers for the reachability
#: pass and the surface census.  ``tests/`` is deliberately absent.
ROOT_DIRECTORIES = ("examples", "benchmarks")


# The encoded layering must itself be acyclic: a cycle is a programming
# error in the table above, raised (``graphlib.CycleError``) at import.
graphlib.TopologicalSorter(ALLOWED_DEPENDENCIES).prepare()


def _upward_findings(project: Project) -> List[Finding]:
    findings: List[Finding] = []
    for name in sorted(project.modules):
        module = project.modules[name]
        source_pkg = top_package(module.name)
        if source_pkg is None:
            # ``repro`` root / ``repro.cli`` / ``repro.__main__`` are
            # module-level entries: key them by their own name.
            tail = module.name.rpartition(".")[2]
            if tail in ALLOWED_DEPENDENCIES:
                source_pkg = tail
            else:
                continue
        allowed = ALLOWED_DEPENDENCIES.get(source_pkg)
        if allowed is None:
            continue  # unknown package (e.g. test fixtures): no gate
        reported: Set[tuple] = set()
        for edge in module.import_edges:
            if edge.type_checking:
                continue
            if (edge.lineno, edge.target) in reported:
                continue  # one finding per import statement + target
            target_pkg = top_package(edge.target)
            if target_pkg is None or target_pkg == source_pkg:
                continue
            if target_pkg not in ALLOWED_DEPENDENCIES:
                continue
            if target_pkg in allowed:
                continue
            reported.add((edge.lineno, edge.target))
            permitted = ", ".join(sorted(allowed)) or "(nothing)"
            findings.append(
                module.finding(
                    edge,
                    RULE_ID,
                    f"layering violation: {module.name} (layer "
                    f"'{source_pkg}') imports {edge.target} (layer "
                    f"'{target_pkg}'); '{source_pkg}' may only "
                    f"depend on: {permitted} — see the layer DAG "
                    "in docs/architecture.md",
                )
            )
    return findings


def _cycle_findings(project: Project) -> List[Finding]:
    """Report each import cycle among project modules once, at the
    back-edge import statement that closes it."""
    graph: Dict[str, List[ImportEdge]] = {}
    for name in sorted(project.modules):
        module = project.modules[name]
        edges = []
        for edge in module.import_edges:
            if edge.type_checking or not edge.toplevel:
                # Deferred (function-scope) imports cannot create an
                # import-time cycle; that is exactly why they exist.
                continue
            if edge.target in project.modules and edge.target != name:
                edges.append(edge)
        graph[name] = sorted(edges, key=lambda e: (e.target, e.lineno))

    findings: List[Finding] = []
    color: Dict[str, int] = {}  # 1 on stack, 2 done
    stack: List[str] = []

    def visit(name: str) -> None:
        color[name] = 1
        stack.append(name)
        for edge in graph.get(name, []):
            mark = color.get(edge.target)
            if mark == 2:
                continue
            if mark == 1:
                start = stack.index(edge.target)
                cycle = stack[start:] + [edge.target]
                findings.append(
                    project.modules[name].finding(
                        edge,
                        RULE_ID,
                        "import cycle: "
                        + " -> ".join(cycle)
                        + "; break the cycle (move the shared "
                        "piece down a layer or defer the import)",
                    )
                )
                continue
            visit(edge.target)
        stack.pop()
        color[name] = 2

    for name in sorted(graph):
        if name not in color:
            visit(name)
    return findings


def find_layering_violations(project: Project) -> List[Finding]:
    """Run the layering gate; sorted ``ARCH-LAYER`` findings."""
    findings = _upward_findings(project) + _cycle_findings(project)
    findings.sort(key=Finding.sort_key)
    return findings
