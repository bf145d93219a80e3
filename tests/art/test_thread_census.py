"""The package starts no thread; only simulations leave the planner's.

The quick Fig 8 grid on every substrate, with and without the staged
checkpoint pipeline, into a ``file://`` database: every database write
of the sweep — each ``run.status``, ``wal.append`` and ``filestore.put``
firing — happens on the thread that called ``Experiment.launch``, and
that thread has no companion on either substrate: the process pool is
driven from it too.  On ``processes`` it is also alone at every
``procpool.submit`` — where a seat is forked — so no worker is a copy
of a process with another thread in it (Python ≥ 3.12 warns on such a
fork).

Two guards keep it so.  A static one: no module of ``src/repro``
names a ``threading`` primitive, ``_thread`` or ``concurrent.futures``
(``threading.current_thread`` stays, for the archived ``thread`` field
of spans and events).  A runtime one: every entry point — a sweep,
the planner on ``processes``, a ``SchedulerApp`` task, a bare ``Gem5Run.run()``
and ``repro reproduce`` — leaves ``threading.enumerate()`` as it found
it.
"""

import ast
import os
import threading

import pytest

import repro
from repro import chaos
from repro.analysis.engine import iter_python_files
from repro.art import ArtifactDB, run_job, run_jobs_scheduler
from repro.art.studies import boot_tests
from repro.art.tasks import SUBSTRATES
from repro.cli import main
from repro.db import connect
from repro.scheduler import SchedulerApp

from tests.helpers import WRITE_POINTS, record_writes

#: Where the pool forks its seats.
SUBMIT = "procpool.submit"

PACKAGE = os.path.dirname(repro.__file__)
PAPER_MANIFEST = os.path.join(
    os.path.dirname(os.path.dirname(PACKAGE)), "examples", "paper.yaml"
)

#: What starts, synchronises or hands work to another thread.
THREADING_PRIMITIVES = frozenset(
    {
        "Thread", "Timer", "Lock", "RLock", "Condition", "Semaphore",
        "BoundedSemaphore", "Event", "Barrier", "local",
    }
)


def thread_primitives(source):
    """Each use of a thread primitive in ``source``: ``threading.X``
    for X in :data:`THREADING_PRIMITIVES` (however ``threading`` or X
    was imported), and any import of ``_thread`` or
    ``concurrent.futures``."""
    found = []
    aliases = set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "threading":
                    aliases.add(alias.asname or "threading")
                elif alias.name == "_thread" or alias.name.startswith(
                    "concurrent.futures"
                ):
                    found.append(f"import {alias.name}")
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = {alias.name for alias in node.names}
            if node.module == "threading":
                found.extend(
                    f"threading.{name}"
                    for name in sorted(names & THREADING_PRIMITIVES)
                )
            elif (
                node.module == "_thread"
                or node.module.startswith("concurrent.futures")
                or (node.module == "concurrent" and "futures" in names)
            ):
                found.append(f"from {node.module} import ...")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr in THREADING_PRIMITIVES
        ):
            found.append(f"threading.{node.attr}")
    return found


def test_the_package_names_no_thread_primitive():
    offenders = {}
    for path in iter_python_files([PACKAGE]):
        with open(path, encoding="utf-8") as handle:
            found = thread_primitives(handle.read())
        if found:
            offenders[os.path.relpath(path, PACKAGE)] = found
    assert offenders == {}


@pytest.mark.parametrize(
    "source",
    (
        "import threading\nLOCK = threading.Lock()\n",
        "import threading as t\nclass A:\n    local = t.local\n",
        "from threading import Thread\n",
        "import _thread\n",
        "from concurrent.futures import ThreadPoolExecutor\n",
        "from concurrent import futures\n",
    ),
)
def test_the_static_guard_sees_each_primitive(source):
    assert thread_primitives(source)


def test_the_static_guard_allows_naming_the_current_thread():
    source = "import threading\nNAME = threading.current_thread().name\n"
    assert thread_primitives(source) == []


@pytest.fixture
def firings():
    log = record_writes(WRITE_POINTS + (SUBMIT,))
    yield log
    chaos.uninstall()


@pytest.mark.parametrize("use_checkpoints", (False, True))
@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_every_write_of_a_sweep_is_on_the_calling_thread(
    tmp_path, firings, substrate, use_checkpoints
):
    experiment = boot_tests(
        ArtifactDB(connect(f"file://{tmp_path}/db")), quick=True
    )
    experiment.create_runs()
    del firings.firings[:]
    before = {thread.name for thread in threading.enumerate()}
    summaries = experiment.launch(
        workers=2, substrate=substrate, use_checkpoints=use_checkpoints
    )
    assert len(summaries) == 48
    me = threading.current_thread().name
    writes = [f for f in firings.firings if f[0] in WRITE_POINTS]
    assert {thread for _, thread, _ in writes} == {me}
    assert {point for point, _, _ in writes} == set(WRITE_POINTS)
    statuses = [p for p, _, _ in writes if p == "run.status"]
    assert len(statuses) == 48  # the outcome — nothing else
    companions = set().union(*(alive for _, _, alive in writes))
    # No app, no worker thread, no helper in front of the pipe write.
    assert companions - before == set()
    submits = [f for f in firings.firings if f[0] == SUBMIT]
    assert (len(submits) >= 48) is (substrate == "processes")
    # A single-threaded fork: the planner is alone at every submit.
    assert all(alive == {me} for _, _, alive in submits)


@pytest.fixture
def threads_unchanged():
    """Fails the test if it leaves a thread behind (or took one away)."""
    before = threading.enumerate()
    yield
    assert threading.enumerate() == before


def test_run_jobs_pool_starts_no_thread(firings, threads_unchanged):
    """The planner on ``processes``: alone at every fork."""
    runs = boot_tests(ArtifactDB(), quick=True).create_runs()[:6]
    del firings.firings[:]
    summaries = run_jobs_scheduler(runs, worker_count=2, substrate="processes")
    assert [summary["success"] for summary in summaries] == [
        run.results["success"] for run in runs
    ]
    submits = [f for f in firings.firings if f[0] == SUBMIT]
    assert len(submits) == 6
    me = threading.current_thread().name
    assert all(alive == {me} for _, _, alive in submits)


def test_a_scheduler_app_task_starts_no_thread(threads_unchanged):
    app = SchedulerApp(name="census")
    run_task = app.task(name="census.run_job")(run_job)
    (run,) = boot_tests(ArtifactDB(), quick=True).create_runs()[:1]
    assert run_task.apply_async(args=(run,)).get() == run.results


def test_a_bare_run_starts_no_thread(threads_unchanged):
    (run,) = boot_tests(ArtifactDB(), quick=True).create_runs()[:1]
    assert run.run()["success"] is True


def test_reproduce_starts_no_thread(tmp_path, capsys, threads_unchanged):
    db_uri = f"file://{tmp_path / 'db'}"
    assert main(["reproduce", PAPER_MANIFEST, "--db", db_uri]) == 0
