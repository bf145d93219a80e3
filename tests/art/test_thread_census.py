"""Only simulations leave the planner's thread.

The quick Fig 8 grid on every substrate, with and without the staged
checkpoint pipeline, into a ``file://`` database: every database write
of the sweep — each ``run.status``, ``wal.append`` and ``filestore.put``
firing — happens on the thread that called ``Experiment.launch``; inline that thread has no
companion, and on the process substrate exactly one, the pool's
reactor.
"""

import threading

import pytest

from repro.art import ArtifactDB
from repro.art.tasks import SUBSTRATES
from repro.db import connect

from tests.art.test_run_tasks import writes  # noqa: F401
from tests.art.test_substrate_equivalence import quick_fig8
from tests.helpers import WRITE_POINTS


@pytest.mark.parametrize("use_checkpoints", (False, True))
@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_every_write_of_a_sweep_is_on_the_calling_thread(
    tmp_path, writes, substrate, use_checkpoints
):
    experiment = quick_fig8(ArtifactDB(connect(f"file://{tmp_path}/db")))
    experiment.create_runs()
    del writes.firings[:]
    before = {thread.name for thread in threading.enumerate()}
    summaries = experiment.launch(
        workers=2, substrate=substrate, use_checkpoints=use_checkpoints
    )
    assert len(summaries) == 48
    me = threading.current_thread().name
    assert {thread for _, thread, _ in writes.firings} == {me}
    assert {point for point, _, _ in writes.firings} == set(WRITE_POINTS)
    statuses = [p for p, _, _ in writes.firings if p == "run.status"]
    assert len(statuses) == 2 * 48  # running, done — nothing else
    companions = set().union(*(alive for _, _, alive in writes.firings))
    # No app, no worker thread, no helper in front of the pipe write.
    assert companions - before == {
        "inline": set(), "processes": {"procpool-reactor"}
    }[substrate]
