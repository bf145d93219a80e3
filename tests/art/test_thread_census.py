"""Only simulations leave the planner's thread.

The quick Fig 8 grid on every substrate, with and without the staged
checkpoint pipeline, into a ``file://`` database: every database write
of the sweep — each ``run.status``, ``wal.append`` and ``filestore.put``
firing — happens on the thread that called ``Experiment.launch``, and
that thread has no companion on either substrate: the process pool is
driven from it too.  On ``processes`` it is also alone at every
``procpool.submit`` — where a seat is forked — so no worker is a copy
of a process with another thread in it (Python ≥ 3.12 warns on such a
fork).
"""

import threading

import pytest

from repro import chaos
from repro.art import ArtifactDB
from repro.art.tasks import SUBSTRATES
from repro.db import connect

from tests.art.test_substrate_equivalence import quick_fig8
from tests.helpers import WRITE_POINTS, record_writes

#: Where the pool forks its seats.
SUBMIT = "procpool.submit"


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
    experiment = quick_fig8(ArtifactDB(connect(f"file://{tmp_path}/db")))
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
    assert len(statuses) == 2 * 48  # running, done — nothing else
    companions = set().union(*(alive for _, _, alive in writes))
    # No app, no worker thread, no helper in front of the pipe write.
    assert companions - before == set()
    submits = [f for f in firings.firings if f[0] == SUBMIT]
    assert (len(submits) >= 48) is (substrate == "processes")
    # A single-threaded fork: the planner is alone at every submit.
    assert all(alive == {me} for _, _, alive in submits)
