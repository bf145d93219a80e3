"""What ``repro reproduce`` appends to its journal, as exact records.

A pipeline run is one pipeline document plus one stage document per
stage, written in execution order, and nothing else: an ``insert`` of
the pipeline document (``running``), one ``insert`` per stage, and one
``update`` when it finishes.  Counted on the ``pipeline_runs`` log a
cold and a warm ``repro reproduce examples/paper.yaml`` leave (the
``reproduce-warm`` command of ``benchmarks/perf``).  The stage cache is
an index on those stage documents, declared on open and never logged:
the log holds the documents alone, and no cache collection exists.
"""

import shutil
from pathlib import Path

import pytest

from repro.cli import main
from repro.db import connect
from repro.db.engine.wal import read_log

PAPER = str(Path(__file__).resolve().parents[2] / "examples" / "paper.yaml")
ORDER = ["artifacts", "sweep", "analyze", "render"]

#: Every key a stage document holds: its outputs live by blob id only.
STAGE_KEYS = {
    "_id", "doc_type", "pipeline_id", "pipeline", "stage", "kind", "seq",
    "fingerprint", "action", "outputs_blob", "verdicts", "gates_ok",
    "cache_source", "error", "recorded_at_wall",
}


def journal_records(root):
    records, _, tear = read_log(
        str(root / "engine" / "pipeline_runs" / "wal.log")
    )
    assert tear is None
    return records


def collection_names(root):
    with connect(f"file://{root}") as database:
        return set(database.storage_stats()["collections"])


@pytest.fixture(scope="module")
def primed(tmp_path_factory):
    """A database after a cold and a warm reproduce: its root, the
    journal records each of the two appended, and the collections
    after each."""
    root = tmp_path_factory.mktemp("paper") / "db"
    uri = f"file://{root}"
    assert main(["reproduce", PAPER, "--db", uri, "--quiet"]) == 0
    cold, after_cold = journal_records(root), collection_names(root)
    assert main(
        ["reproduce", PAPER, "--db", uri, "--quiet",
         "--expect-cache-hits", "100"]
    ) == 0
    warm = journal_records(root)[len(cold):]
    after_warm = collection_names(root)
    return root, cold, warm, {"cold": after_cold, "warm": after_warm}


@pytest.mark.parametrize("which", ["cold", "warm"])
def test_a_reproduce_journals_one_record_per_decision(primed, which):
    _, cold, warm, after = primed
    assert "stage_cache" not in after[which]
    records = {"cold": cold, "warm": warm}[which]
    assert [record["op"] for record in records] == (
        ["insert"] * (1 + len(ORDER)) + ["update"]
    )
    pipeline, *stages, finish = records
    assert pipeline["doc"]["doc_type"] == "pipeline"
    assert pipeline["doc"]["status"] == "running"
    assert [doc["doc"]["stage"] for doc in stages] == ORDER
    assert [doc["doc"]["seq"] for doc in stages] == list(range(len(ORDER)))
    action = {"cold": "executed", "warm": "cache_hit"}[which]
    for record in stages:
        assert set(record["doc"]) == STAGE_KEYS
        assert record["doc"]["action"] == action
        assert record["doc"]["pipeline_id"] == pipeline["doc"]["_id"]
    assert finish["id"] == pipeline["doc"]["_id"]
    assert set(finish["set"]) == {"status", "counts", "finished_at_wall"}


def test_explain_prints_each_stage_once_in_order(primed, capsys):
    root = primed[0]
    capsys.readouterr()
    assert main(["pipeline", "explain", "--db", f"file://{root}"]) == 0
    lines = capsys.readouterr().out.splitlines()
    decisions = [line.split() for line in lines if line.startswith("  [")]
    assert [(words[0], words[1]) for words in decisions] == [
        ("[cache_hit]", name) for name in ORDER
    ]
    gates = [line.strip() for line in lines if "gate " in line]
    assert gates == [
        "gate pass: every run reached a terminal status",
        "gate pass: run_count=8 == 8: pass",
        "gate pass: success_rate=1.0 >= 1.0: pass",
    ]


def run_outcomes(docs):
    return sorted(
        (
            doc["fingerprint"],
            doc["status"],
            doc["results"]["stats_file_id"],
        )
        for doc in docs
    )


def test_no_stage_cache_executes_every_stage_but_simulates_nothing(
    primed, tmp_path, capsys
):
    """``--no-stage-cache`` bypasses the stage cache only: the sweep
    stage re-executes, and each of its runs adopts from the run cache."""
    root = tmp_path / "db"
    shutil.copytree(primed[0], root)
    uri = f"file://{root}"
    with connect(uri) as database:
        before = database["runs"].find()
    capsys.readouterr()
    assert main(["reproduce", PAPER, "--db", uri, "--no-stage-cache"]) == 0
    assert "4 executed, 0 cache hits" in capsys.readouterr().out
    with connect(uri) as database:
        after = database["runs"].find()
    known = {doc["_id"] for doc in before}
    new = [doc for doc in after if doc["_id"] not in known]
    assert len(before) == len(new) == 8
    assert all(doc.get("cache_hit") is True for doc in new)
    assert run_outcomes(new) == run_outcomes(before)
