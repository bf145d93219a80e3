"""What a sweep appends to its database, as exact record counts.

A run document changes state three times (``created`` → ``running`` →
``done``): one ``insert`` and two ``update`` records that carry what
changed, not three versions of the document.  Counted on the logs
``repro boot-tests --db file://…`` leaves (the ``fig8-cold`` /
``fig8-warm`` commands of ``benchmarks/perf``); the read side of the
same budget is ``test_input_resolver.py``.
"""

import collections
import importlib
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.db import connect
from repro.db.engine.wal import encode_record, read_log

PERF = Path(__file__).resolve().parents[2] / "benchmarks" / "perf"


@pytest.fixture
def runs_digest(monkeypatch):
    """The benchmark oracle's own hash over the run documents."""
    monkeypatch.syspath_prepend(str(PERF))
    return importlib.import_module("inspect_sample").runs_digest


def logged(root, collection):
    """``{run id or None: [record, ...]}`` of a collection's WAL."""
    records, _, tear = read_log(
        str(root / "engine" / collection / "wal.log")
    )
    assert tear is None
    by_id = collections.defaultdict(list)
    for record in records:
        by_id[record.get("id") or record.get("doc", {}).get("_id")].append(
            record
        )
    return by_id


def ops(records):
    return [record["op"] for record in records]


def test_quick_fig8_logs_one_insert_and_two_updates_per_run(
    tmp_path, capsys
):
    root = tmp_path / "db"
    assert main(["boot-tests", "--quick", "--db", f"file://{root}"]) == 0
    cold = logged(root, "runs")
    assert len(cold) == 48
    for run_id, records in cold.items():
        assert ops(records) == ["insert", "update", "update"], run_id
        created, running, done = records
        # The inputs, the parameters, the fingerprint: logged once.
        assert set(created["doc"]) > {"artifacts", "params", "fingerprint"}
        assert set(running["set"]) == {"status", "started_at_wall"}
        assert set(done["set"]) == {"status", "results", "finished_at_wall"}
        assert running["unset"] == done["unset"] == []

    # A warm sweep files 48 new run documents and adopts each result.
    assert main(["boot-tests", "--quick", "--db", f"file://{root}"]) == 0
    warm = logged(root, "runs")
    assert len(warm) == 96
    for run_id in set(warm) - set(cold):
        assert ops(warm[run_id]) == ["insert", "update"], run_id
    for run_id in cold:
        assert warm[run_id] == cold[run_id]

    # The experiment document lists every run: it is logged once, and
    # each change of status says only that.
    experiments = logged(root, "experiments")
    assert len(experiments) == 2
    for records in experiments.values():
        assert ops(records)[0] == "insert"
        assert set(ops(records)[1:]) == {"update"}
        assert all(
            len(encode_record(record)) < 1024 for record in records[1:]
        )
    capsys.readouterr()


def test_fig8_digest_survives_reopen_and_compaction(
    tmp_path, capsys, runs_digest
):
    """The full grid, against the oracle of ``fig8-cold``: the run
    documents a reader finds are those the parent tree wrote — live,
    replayed from ``update`` records, and folded into a segment."""
    expected = json.loads((PERF / "expected.json").read_text())["fig8-cold"]
    uri = f"file://{tmp_path / 'db'}"
    assert main(["boot-tests", "--db", uri, "--workers", "2"]) == 0
    capsys.readouterr()
    with connect(uri) as database:
        assert runs_digest(database) == expected["digest"]
        documents = database["runs"].find()
    with connect(uri) as reopened:
        assert reopened["runs"].find() == documents
        assert runs_digest(reopened) == expected["digest"]
        reopened.compact()
        assert reopened.storage_stats()["collections"]["runs"][
            "wal_bytes"
        ] == 0
    with connect(uri) as compacted:
        assert compacted["runs"].find() == documents
        assert runs_digest(compacted) == expected["digest"]
