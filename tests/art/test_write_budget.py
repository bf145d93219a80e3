"""What a sweep appends to its database, as exact record counts.

A run's document is written once, by the step that gives it an
outcome: one ``insert`` holding its inputs, fingerprint, status and
results, and nothing before it.  A cold run adds one ``run_cache``
insert; a warm run (an adoption) adds nothing else.  Counted on the
logs ``repro boot-tests --db file://…`` leaves (the ``fig8-cold`` /
``fig8-warm`` commands of ``benchmarks/perf``); the read side of the
same budget is ``test_input_resolver.py``.
"""

import collections
import importlib
import json
from pathlib import Path

import pytest

from repro.art import ArtifactDB, run_jobs_scheduler
from repro.cli import main
from repro.db import connect
from repro.db.engine.wal import WalWriter, encode_record, read_log

from tests.art.test_launch_share import make_experiment
from tests.art.test_run_tasks import fs_artifacts, make_run  # noqa: F401
from tests.helpers import WEDGED_CPUS, wedge_simulations

PERF = Path(__file__).resolve().parents[2] / "benchmarks" / "perf"

#: What every run document holds: its inputs and its outcome.
CREATED_WITH = {
    "_id", "kind", "artifacts", "params", "timeout", "fingerprint",
    "spec", "status", "results",
}
#: The key set of a document by how its run ended — the same sets the
#: three-write lifecycle (``created`` → ``running`` → outcome) left.
EXECUTED_KEYS = CREATED_WITH | {"started_at_wall", "finished_at_wall"}
ADOPTED_KEYS = CREATED_WITH | {
    "cache_hit", "cached_from", "finished_at_wall",
}


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


def test_quick_fig8_logs_one_insert_per_run(tmp_path, capsys):
    root = tmp_path / "db"
    assert main(["boot-tests", "--quick", "--db", f"file://{root}"]) == 0
    cold = logged(root, "runs")
    assert len(cold) == 48
    # Every blob the sweep stored is a record in one pack file.
    assert [
        path.name for path in (root / "files").rglob("*")
    ] == ["pack"]
    for run_id, records in cold.items():
        # The inputs, the fingerprint and the outcome: logged once.
        assert ops(records) == ["insert"], run_id
        assert set(records[0]["doc"]) == EXECUTED_KEYS
        assert records[0]["doc"]["status"] == "done"
    # ... plus one cache entry per executed run (and the store's index).
    cache = logged(root, "run_cache")
    cache_ops = collections.Counter(
        op for records in cache.values() for op in ops(records)
    )
    assert cache_ops == {"insert": 48, "index": 1}

    # A warm sweep files 48 new run documents, each adopting a result,
    # and writes nothing to the cache.
    assert main(["boot-tests", "--quick", "--db", f"file://{root}"]) == 0
    warm = logged(root, "runs")
    assert len(warm) == 96
    for run_id in set(warm) - set(cold):
        assert ops(warm[run_id]) == ["insert"], run_id
        assert set(warm[run_id][0]["doc"]) == ADOPTED_KEYS
    for run_id in cold:
        assert warm[run_id] == cold[run_id]
    assert logged(root, "run_cache") == cache

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


@pytest.fixture
def db():
    return ArtifactDB()


def test_every_outcome_leaves_the_documented_key_set(
    db, fs_artifacts, monkeypatch
):
    """Done, failed, timed out and adopted: one insert each, with the
    keys the outcome calls for."""
    wedge_simulations(monkeypatch, 0.05)
    runs = {
        "done": make_run(db, fs_artifacts),
        "failed": make_run(db, fs_artifacts, benchmark="not-installed"),
        "timed_out": make_run(
            db, fs_artifacts, num_cpus=WEDGED_CPUS, timeout=0.01
        ),
        # The leader's duplicate: adopts its result.
        "adopted": make_run(db, fs_artifacts),
    }
    run_jobs_scheduler(list(runs.values()), worker_count=1)
    for outcome, run in runs.items():
        doc = db.get_run(run.run_id)
        assert doc["status"] == ("done" if outcome == "adopted" else outcome)
        expected = ADOPTED_KEYS if outcome == "adopted" else EXECUTED_KEYS
        assert set(doc) == expected, outcome


def test_nothing_reaches_the_runs_log_before_an_outcome(
    tmp_path, monkeypatch
):
    """Creating runs appends nothing to ``runs``; during the sweep each
    append is one run's insert, carrying its outcome."""
    appended = []
    real_append = WalWriter.append

    def append(writer, record):
        if writer.collection == "runs":
            appended.append(record)
        return real_append(writer, record)

    monkeypatch.setattr(WalWriter, "append", append)
    with connect(f"file://{tmp_path / 'db'}") as database:
        experiment = make_experiment(
            ArtifactDB(database), apps=("ferret", "vips", "dedup")
        )
        runs = experiment.create_runs()
        assert appended == []
        experiment.launch(workers=1)
    assert [record["op"] for record in appended] == ["insert"] * 6
    assert [record["doc"]["_id"] for record in appended] == [
        run.run_id for run in runs
    ]
    for record in appended:
        assert record["doc"]["status"] == "done"
        assert record["doc"]["results"]["stats_file_id"]
