"""The acceptance contract: telemetry never perturbs simulation, and
archived traces are rehydratable from the database alone."""

import ast
import json
import pathlib
import re

import pytest

import repro.scheduler
from repro import telemetry
from repro.art import (
    ArtifactDB,
    Experiment,
    Gem5Run,
    register_disk_image,
    register_gem5_binary,
    register_kernel_binary,
    register_repo,
    run_job,
)
from repro.db import connect
from repro.guest import get_kernel
from repro.packer import build
from repro.resources.templates import parsec_template
from repro.sim import Gem5Build
from repro.telemetry import (
    chrome_trace_json,
    rehydrate_telemetry,
)


def make_db(database=None):
    return ArtifactDB(database)


def make_artifacts(db):
    repo = register_repo(db, "gem5")
    script_repo = register_repo(
        db,
        "gem5-resources",
        url="https://gem5.googlesource.com/public/gem5-resources",
        version="c5f5c70",
    )
    binary = register_gem5_binary(db, Gem5Build(), inputs=[repo])
    kernel = register_kernel_binary(db, get_kernel("4.15.18"))
    image = build(parsec_template("ubuntu-18.04")).image
    disk = register_disk_image(db, image, inputs=[script_repo])
    return dict(
        gem5=binary,
        gem5_git=repo,
        script_git=script_repo,
        kernel=kernel,
        disk=disk,
    )


def make_run(db, a, **params):
    defaults = dict(cpu_type="timing", num_cpus=1, benchmark="ferret")
    defaults.update(params)
    return Gem5Run.create_fs_run(
        db,
        gem5_artifact=a["gem5"],
        gem5_git_artifact=a["gem5_git"],
        run_script_git_artifact=a["script_git"],
        linux_binary_artifact=a["kernel"],
        disk_image_artifact=a["disk"],
        **defaults,
    )


def _telemetry_owners(db):
    docs = db.database.collection("telemetry").find()
    return sorted({doc["owner"] for doc in docs})


def test_run_archives_span_subtree_next_to_stats():
    db = make_db()
    run = make_run(db, make_artifacts(db))
    with telemetry.session():
        run_job(run)
    assert _telemetry_owners(db) == [run.run_id]
    snap = rehydrate_telemetry(db, run.run_id)
    names = {span["name"] for span in snap["spans"]}
    assert "run" in names
    assert "phase.boot" in names
    assert "phase.benchmark" in names
    run_span = next(s for s in snap["spans"] if s["name"] == "run")
    for span in snap["spans"]:
        if span["name"].startswith("phase."):
            assert span["parent_id"] == run_span["span_id"]


def test_disabled_telemetry_archives_nothing():
    db = make_db()
    run = make_run(db, make_artifacts(db))
    run_job(run)
    assert _telemetry_owners(db) == []


def test_runs_total_counted_by_outcome():
    db = make_db()
    artifacts = make_artifacts(db)
    ok = make_run(db, artifacts)
    unsupported = make_run(
        db, artifacts, num_cpus=2, memory_system="classic", benchmark=None
    )
    with telemetry.session() as session:
        run_job(ok)
        run_job(unsupported)
        runs_total = session.metrics.counter("runs_total")
        assert runs_total.value(outcome="done") == 2
    # Both complete as "done": for boot tests even a failed simulation is
    # a successfully recorded run; the *simulation* outcome lives in the
    # results document.
    assert not unsupported.results["success"]


def test_run_document_records_wall_clock_window():
    db = make_db()
    run = make_run(db, make_artifacts(db))
    run_job(run)
    doc = db.get_run(run.run_id)
    assert doc["started_at_wall"].endswith("+00:00")
    assert doc["finished_at_wall"] >= doc["started_at_wall"]


def test_experiment_trace_rehydrates_from_database_alone(tmp_path):
    uri = f"file://{tmp_path}/expdb"
    db = make_db(connect(uri))
    artifacts = make_artifacts(db)
    experiment = Experiment(db, "mini")
    experiment.add_stack(
        "bionic",
        gem5=artifacts["gem5"],
        gem5_git=artifacts["gem5_git"],
        run_script_git=artifacts["script_git"],
        linux_binary=artifacts["kernel"],
        disk_image=artifacts["disk"],
    )
    experiment.fix(cpu_type="timing", num_cpus=1)
    experiment.sweep(benchmark=["ferret", "blackscholes"])
    with telemetry.session():
        experiment.launch(workers=2)
    db.save()

    # A brand-new process: fresh connection, no live telemetry session.
    assert not telemetry.enabled()
    reread = make_db(connect(uri))
    snap = rehydrate_telemetry(reread, experiment.experiment_id)

    spans = {s["span_id"]: s for s in snap["spans"]}
    roots = [s for s in snap["spans"] if s["name"] == "experiment"]
    assert len(roots) == 1
    runs = [s for s in snap["spans"] if s["name"] == "run"]
    assert len(runs) == 2
    # Nesting experiment -> run -> phase, via parent links: the planner
    # opens the run span and simulates inline under it.
    def chain(span):
        names = []
        while span["parent_id"]:
            span = spans[span["parent_id"]]
            names.append(span["name"])
        return names

    for run_span in runs:
        assert chain(run_span) == ["experiment"]
    phases = [s for s in snap["spans"] if s["name"].startswith("phase.")]
    assert phases
    for phase in phases:
        assert chain(phase) == ["run", "experiment"]
    # And the snapshot renders as valid Chrome-trace JSON.
    trace = json.loads(chrome_trace_json(snap["spans"]))
    assert {
        e["name"] for e in trace["traceEvents"] if e["ph"] == "X"
    } >= {"experiment", "run", "phase.boot"}


def test_rehydrate_missing_owner_raises():
    from repro.common.errors import NotFoundError

    db = make_db()
    with pytest.raises(NotFoundError):
        rehydrate_telemetry(db, "nope")


def test_every_scheduler_metric_and_event_is_documented():
    """docs/telemetry.md lists every metric and event name the
    scheduler package emits, and its ``scheduler/*`` rows list nothing
    else (the first slice of the inventory test)."""
    documented = (
        pathlib.Path(__file__).parents[2] / "docs" / "telemetry.md"
    ).read_text()
    emitted = set()
    for path in pathlib.Path(repro.scheduler.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr
                in ("counter", "gauge", "histogram", "emit")
                and node.args
                and isinstance(node.args[0], ast.Constant)
            ):
                emitted.add(node.args[0].value)
    assert "procpool_jobs_submitted_total" in emitted
    assert "procpool.worker_lost" in emitted
    missing = {
        name for name in emitted
        if f"`{name}`" not in documented and f"`{name}{{" not in documented
    }
    assert missing == set()

    # The other direction: every name in the metrics and events columns
    # of a scheduler row, parenthesised asides left out, is emitted.
    listed = set()
    for row in documented.splitlines():
        if not row.startswith("| `scheduler/"):
            continue
        for cell in row.split("|")[3:5]:
            while re.search(r"\([^()]*\)", cell):
                cell = re.sub(r"\([^()]*\)", "", cell)
            listed |= {
                name.split("{")[0] for name in re.findall(r"`([^`]+)`", cell)
            }
    assert "procpool.worker_lost" in listed
    assert listed - emitted == set()
