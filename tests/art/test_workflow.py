"""Tests for the artifact workflow graph (Fig 1)."""

import pytest

from repro.art import ArtifactDB, register_gem5_binary, register_repo
from repro.art.artifact import Artifact
from repro.art.workflow import (
    render_workflow,
    workflow_graph,
)
from repro.common.errors import ValidationError
from repro.sim import Gem5Build


@pytest.fixture
def db():
    return ArtifactDB()


def test_empty_graph(db):
    graph = workflow_graph(db)
    assert graph == {
        "nodes": [],
        "edges": [],
        "order": [],
        "warnings": [],
    }


def test_dependencies_become_edges(db):
    repo = register_repo(db, "gem5")
    binary = register_gem5_binary(db, Gem5Build(), inputs=[repo])
    graph = workflow_graph(db)
    assert (repo.id, binary.id) in graph["edges"]
    assert graph["order"].index(repo.id) < graph["order"].index(binary.id)


def test_diamond_dependency_order(db):
    base = Artifact.register_artifact(
        db, name="base", typ="t", path="p", content=b"base"
    )
    left = Artifact.register_artifact(
        db, name="left", typ="t", path="p", content=b"left", inputs=[base]
    )
    right = Artifact.register_artifact(
        db, name="right", typ="t", path="p", content=b"right", inputs=[base]
    )
    top = Artifact.register_artifact(
        db,
        name="top",
        typ="t",
        path="p",
        content=b"top",
        inputs=[left, right],
    )
    order = workflow_graph(db)["order"]
    assert order.index(base.id) < order.index(left.id) < order.index(top.id)
    assert order.index(base.id) < order.index(right.id) < order.index(top.id)


def test_dangling_input_detected(db):
    doc = {
        "_id": "x",
        "name": "orphan",
        "type": "t",
        "hash": "h1",
        "inputs": ["missing-input"],
    }
    db.put_artifact(doc)
    with pytest.raises(ValidationError):
        workflow_graph(db)


def test_cycle_detected(db):
    db.put_artifact(
        {"_id": "a", "name": "a", "type": "t", "hash": "ha", "inputs": ["b"]}
    )
    db.put_artifact(
        {"_id": "b", "name": "b", "type": "t", "hash": "hb", "inputs": ["a"]}
    )
    with pytest.raises(ValidationError):
        workflow_graph(db)


def test_render_workflow(db):
    repo = register_repo(db, "gem5")
    register_gem5_binary(db, Gem5Build(), inputs=[repo])
    text = render_workflow(db)
    assert "gem5 (git repo)" in text
    assert "<- gem5" in text


def test_duplicate_inputs_deduplicated_with_warning(db):
    base = Artifact.register_artifact(
        db, name="base", typ="t", path="p", content=b"base"
    )
    db.put_artifact(
        {
            "_id": "dup",
            "name": "dup",
            "type": "t",
            "hash": "hd",
            # The same input listed twice: must become ONE edge, not two
            # (two would double-count in-degree and wedge the topo sort
            # consumer that decrements it once per unique source).
            "inputs": [base.id, base.id],
        }
    )
    graph = workflow_graph(db)
    assert graph["edges"].count((base.id, "dup")) == 1
    assert graph["warnings"] == [
        {"artifact": "dup", "duplicate_inputs": [base.id]}
    ]
    assert graph["order"].index(base.id) < graph["order"].index("dup")


def test_topological_order_matches_sorted_reference(db):
    # The heap-based order must equal the old sort-per-step order:
    # lexicographically smallest ready node first, deterministically.
    import random

    rng = random.Random(42)
    nodes = [f"n{i:03d}" for i in range(120)]
    edges = []
    for i, node in enumerate(nodes):
        for _ in range(rng.randrange(0, 3)):
            j = rng.randrange(i + 1, len(nodes) + 1)
            if j < len(nodes):
                edges.append((node, nodes[j]))
    from repro.art.workflow import topological_order

    def reference(node_ids, edge_list):
        incoming = {n: 0 for n in node_ids}
        adjacency = {n: [] for n in node_ids}
        for source, target in edge_list:
            incoming[target] += 1
            adjacency[source].append(target)
        ready = sorted(n for n, c in incoming.items() if c == 0)
        order = []
        while ready:
            node = ready.pop(0)
            order.append(node)
            for neighbour in adjacency[node]:
                incoming[neighbour] -= 1
                if incoming[neighbour] == 0:
                    ready.append(neighbour)
            ready.sort()
        return order

    assert topological_order(nodes, edges) == reference(nodes, edges)
