"""The option census of the run path.

Every independently settable value between the CLI and the worker
processes multiplies the configurations the substrate-equivalence and
chaos suites have to cover, so the lists are pinned here: a new knob is
a reviewed diff of this file, not drift.
"""

import inspect

import pytest

from repro import cli
from repro.art import Experiment, run_jobs_scheduler
from repro.art.cache import MemoStore
from repro.art.procjobs import envelope_for_run
from repro.art.studies import (
    add_boot_stacks,
    boot_tests,
    gpu_regalloc_study,
    parsec_study,
    register_boot_artifacts,
)
from repro.art.tasks import SUBSTRATES
from repro.db import Database, connect
from repro.db.engine import CollectionStore
from repro.pipeline import EXECUTION_DEFAULTS, StageSpec, run_pipeline
from repro.pipeline.stages import StageContext
from repro.scheduler import (
    AsyncResult,
    JobEnvelope,
    ProcessPool,
    SchedulerApp,
)
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
        (SchedulerApp.__init__, ["self", "name"]),
        # The Celery surface the paper's launch script calls, no more:
        # no retry budget, no task time limit (``get`` below).
        (SchedulerApp.task, ["self", "name"]),
        (RegisteredTask.apply_async, ["self", "args", "kwargs"]),
        # What the surface census (`repro lint`, DEAD-PARAM) shrank: a
        # tuning value no non-test caller set is a module constant now.
        (envelope_for_run, ["run", "inputs", "restore"]),
        (connect, ["uri"]),
        (Database.__init__, ["self", "name", "root", "durability"]),
        (CollectionStore.__init__, ["self", "root", "name", "durability"]),
        (
            JobEnvelope.__init__,
            ["self", "target", "args", "task_id", "telemetry", "shared",
             "timeout"],
        ),
        # A pipeline walks its stages once: no retry policy, no attempt.
        (run_pipeline, ["db", "manifest", "journal", "use_cache"]),
        # Each paper study is one builder; what varies a study is its
        # size (``quick``, ``apps``) or, through a manifest, its stack.
        (boot_tests, ["db", "quick"]),
        (parsec_study, ["db", "apps"]),
        (gpu_regalloc_study, ["db"]),
        (
            register_boot_artifacts,
            ["db", "kernels", "gem5_version", "gem5_build",
             "resources_version", "resource"],
        ),
        (add_boot_stacks, ["experiment", "artifacts"]),
        # A task is settled inside ``apply_async``: no ``get(timeout=)``.
        (AsyncResult.get, ["self"]),
    ],
)
def test_run_path_options(function, options):
    assert list(inspect.signature(function).parameters) == options


def test_pipeline_stage_fields():
    """What a manifest stage declares and what its implementation sees:
    neither names an attempt or a backtrack policy."""
    assert StageSpec._fields == (
        "name", "kind", "inputs", "params", "gates",
    )
    assert StageContext._fields == (
        "db", "pipeline_id", "pipeline_name", "stage", "inputs",
        "execution",
    )


def test_two_substrates():
    """Where a sweep's simulations execute: on the planner's thread, or
    in worker processes — one loop drives both."""
    assert SUBSTRATES == ("inline", "processes")


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
    assert len(cli.VERBS) == 14
    assert len({name for name, _, _ in cli.VERBS}) == 14
    # Each family module defines exactly the verbs the table routes to it.
    routed = {}
    for name, _, family in cli.VERBS:
        routed.setdefault(family, set()).add(name)
    for family, names in routed.items():
        assert set(family()) == names, family


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
