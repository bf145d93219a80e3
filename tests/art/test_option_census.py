"""The option census of the run path.

Every independently settable value between the CLI and the worker
processes multiplies the configurations the substrate-equivalence and
chaos suites have to cover, so the lists are pinned here: a new knob is
a reviewed diff of this file, not drift.
"""

import inspect
import re

import pytest

from repro import cli
from repro.art import Experiment, run_jobs_scheduler
from repro.art.cache import MemoStore
from repro.art.procjobs import envelope_for_run
from repro.db import Database, connect
from repro.db.engine import CollectionStore
from repro.pipeline import EXECUTION_DEFAULTS
from repro.scheduler import JobEnvelope, ProcessPool, SchedulerApp
from repro.scheduler.app import RegisteredTask


@pytest.mark.parametrize(
    "function, options",
    [
        (
            run_jobs_scheduler,
            ["runs", "worker_count", "use_cache", "substrate",
             "use_checkpoints"],
        ),
        (
            Experiment.launch,
            ["self", "workers", "use_cache", "substrate", "use_checkpoints"],
        ),
        (
            Experiment.resume,
            ["self", "workers", "retry_failures", "use_cache", "substrate",
             "use_checkpoints"],
        ),
        (ProcessPool.__init__, ["self", "workers"]),
        (SchedulerApp.__init__, ["self", "name", "worker_count"]),
        (SchedulerApp.task, ["self", "name", "max_retries", "timeout"]),
        (RegisteredTask.apply_async, ["self", "args", "kwargs", "timeout"]),
        # What the surface census (`repro lint`, DEAD-PARAM) shrank: a
        # tuning value no non-test caller set is a module constant now.
        (envelope_for_run, ["run", "inputs", "restore"]),
        (connect, ["uri"]),
        (Database.__init__, ["self", "name", "root", "durability"]),
        (CollectionStore.__init__, ["self", "root", "name", "durability"]),
        (
            JobEnvelope.__init__,
            ["self", "target", "args", "kwargs", "task_id", "telemetry",
             "shared", "timeout"],
        ),
    ],
)
def test_run_path_options(function, options):
    assert list(inspect.signature(function).parameters) == options


def test_memo_store_surface_and_verb_count():
    """What a memo store spells: the five names the protocol reads and
    how ``repro cache ls`` lists it (hit tallies are derived, so nothing
    declares them); and the CLI's verbs, one for all three stores."""
    surface = [
        "noun", "collection_name", "key_field", "origin_field",
        "label_field", "listing",
    ]
    assert list(MemoStore.__annotations__) == surface
    for store in MemoStore.__subclasses__():
        for name, value in vars(store).items():
            assert name in surface or name[0] == "_" or callable(value), name
        assert set(surface) <= set(vars(store)), store
    handlers = re.findall(r'"[\w-]+": _cmd_\w+,', inspect.getsource(cli.main))
    assert len(handlers) == 14


def test_manifest_execution_settings_are_launch_keywords():
    """``stage_sweep`` passes the validated settings straight through."""
    defaults = {
        name: parameter.default
        for name, parameter in inspect.signature(
            Experiment.launch
        ).parameters.items()
        if name != "self"
    }
    assert EXECUTION_DEFAULTS == defaults
