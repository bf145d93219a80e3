"""What a sweep appends to its database, as exact record counts.

A run's document is written once, by the step that gives it an
outcome: one ``insert`` holding its inputs (an adopter's: its
producer's id), fingerprint, status and results, and nothing before it — nor after it: a ``done`` document is
its own run-cache entry, found through the ``runs`` index on
``fingerprint`` (declared by ``ArtifactDB`` on open, never logged), and
a warm run (an adoption) writes its own document and nothing else.
Counted on the logs ``repro boot-tests --db file://…`` leaves (the
``fig8-cold`` / ``fig8-warm`` commands of ``benchmarks/perf``); the
read side of the same budget is ``test_input_resolver.py``.
"""

import collections
import json
from pathlib import Path

import pytest

from repro.art import ArtifactDB, run_jobs_scheduler
from repro.cli import main
from repro.db import connect
from repro.db.engine import FORMAT
from repro.common.jsonutil import record_dumps
from repro.db.engine.wal import WalWriter, read_log
from repro.db.filestore import PACK_NAME, read_pack

from tests.art.test_launch_share import make_experiment
from tests.art.test_run_tasks import fs_artifacts, make_run  # noqa: F401
from tests.helpers import WEDGED_CPUS, wedge_simulations

PERF = Path(__file__).resolve().parents[2] / "benchmarks" / "perf"

#: A run's inputs: an adopter's document leaves them to its producer's.
INPUTS = {"kind", "artifacts", "params", "spec"}
#: What every run document holds: its inputs and its outcome.
CREATED_WITH = INPUTS | {
    "_id", "timeout", "fingerprint", "status", "results",
}
#: The key set of a document by how its run ended — the same sets the
#: three-write lifecycle (``created`` → ``running`` → outcome) left.
EXECUTED_KEYS = CREATED_WITH | {"started_at_wall", "finished_at_wall"}
ADOPTED_KEYS = CREATED_WITH - INPUTS | {
    "cache_hit", "cached_from", "finished_at_wall",
}


def logged(root, collection):
    """``{document id: [record, ...]}`` of a collection's WAL (none
    before the collection's first write)."""
    wal = root / "engine" / collection / "wal.log"
    records, _, tear = read_log(str(wal)) if wal.exists() else ([], 0, None)
    assert tear is None
    by_id = collections.defaultdict(list)
    for record in records:
        by_id[record.get("id") or record["doc"]["_id"]].append(record)
    return by_id


def collection_names(root):
    with connect(f"file://{root}") as database:
        return set(database.storage_stats()["collections"])


def ops(records):
    return [record["op"] for record in records]


def test_quick_fig8_logs_one_insert_per_run(tmp_path, capsys):
    root = tmp_path / "db"
    assert main(["boot-tests", "--quick", "--db", f"file://{root}"]) == 0
    cold = logged(root, "runs")
    assert len(cold) == 48
    # Every record is a run's: the run cache's index is not logged.
    runs_wal = root / "engine" / "runs" / "wal.log"
    runs_log = read_log(str(runs_wal))[0]
    assert "index" not in ops(runs_log)
    # One deflate stream: at most 0.25x the JSON of what it replays.
    text = sum(len(record_dumps(record).encode()) for record in runs_log)
    assert runs_wal.stat().st_size <= 0.25 * text
    # Every blob the sweep stored is a record in one pack file.
    assert [
        path.name for path in (root / "files").rglob("*")
    ] == ["pack"]
    for run_id, records in cold.items():
        # The inputs, the fingerprint and the outcome: logged once.
        assert ops(records) == ["insert"], run_id
        assert set(records[0]["doc"]) == EXECUTED_KEYS
        assert records[0]["doc"]["status"] == "done"
    # ... and no cache collection beside them.
    assert "run_cache" not in collection_names(root)

    # A warm sweep files 48 new run documents, each adopting a result,
    # and writes nothing else to ``runs``.
    assert main(["boot-tests", "--quick", "--db", f"file://{root}"]) == 0
    warm = logged(root, "runs")
    assert len(warm) == 96
    for run_id in set(warm) - set(cold):
        assert ops(warm[run_id]) == ["insert"], run_id
        assert set(warm[run_id][0]["doc"]) == ADOPTED_KEYS
    for run_id in cold:
        assert warm[run_id] == cold[run_id]
    assert "run_cache" not in collection_names(root)

    # The experiment document lists every run: it is logged once, and
    # each change of status says only that.
    experiments = logged(root, "experiments")
    assert len(experiments) == 2
    for records in experiments.values():
        assert ops(records)[0] == "insert"
        assert set(ops(records)[1:]) == {"update"}
        assert all(
            8 + len(record_dumps(record).encode()) < 1024
            for record in records[1:]
        )
    capsys.readouterr()


def test_fig8_digest_survives_reopen_and_compaction(
    tmp_path, capsys, runs_digest
):
    """The full grid, against the oracle of ``fig8-cold``: the run
    documents a reader finds are those the parent tree wrote — live,
    replayed from ``update`` records, and folded into a segment by
    ``repro db compact``, which like ``repro db scrub`` leaves the
    ``FORMAT`` stamp as it was."""
    expected = json.loads((PERF / "expected.json").read_text())["fig8-cold"]
    uri = f"file://{tmp_path / 'db'}"
    assert main(["boot-tests", "--db", uri, "--workers", "2"]) == 0
    with connect(uri) as database:
        assert runs_digest(database) == expected["digest"]
        documents = database["runs"].find()
    stamp = tmp_path / "db" / "FORMAT"
    written = (stamp.read_text(), stamp.stat().st_mtime_ns)
    assert written[0] == f"{FORMAT}\n"
    assert main(["db", "compact", "--db", uri]) == 0
    assert main(["db", "scrub", "--db", uri]) == 0
    assert (stamp.read_text(), stamp.stat().st_mtime_ns) == written
    capsys.readouterr()
    with connect(uri) as compacted:
        assert compacted.storage_stats()["collections"]["runs"][
            "wal_bytes"
        ] == 0
        assert compacted["runs"].find() == documents
        assert runs_digest(compacted) == expected["digest"]


def test_quick_fig8_stores_its_stats_blobs_deflated(tmp_path, capsys):
    """Every stats blob a sweep stores is deflated in the pack, and the
    pack's live payloads take at most 0.17× the blobs' own bytes."""
    uri = f"file://{tmp_path / 'db'}"
    assert main(["boot-tests", "--quick", "--db", uri]) == 0
    capsys.readouterr()
    with connect(uri) as database:
        files = database.files
        stats_ids = {
            document["results"]["stats_file_id"]
            for document in database["runs"].find()
            if document["results"].get("stats_file_id")
        }
        content = {
            digest: len(files.get_bytes(digest))
            for digest in files.list_ids()
        }
        stored = files.stats()["bytes"]
    with open(tmp_path / "db" / "files" / PACK_NAME, "rb") as handle:
        records, _ = read_pack(handle.fileno())
    # No blob was deleted: one record each, all live.
    extents = {digest: rest for digest, _, *rest in records}
    assert len(records) == len(extents) == len(content)
    assert len(stats_ids) > 20 and stats_ids <= set(extents)
    for digest in stats_ids:
        length, deflated = extents[digest]
        assert deflated and length < content[digest], digest
    assert stored == sum(length for length, _ in extents.values())
    assert stored <= 0.17 * sum(content.values())


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
        assert set(db.resolve_run(doc)) == expected | INPUTS


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
