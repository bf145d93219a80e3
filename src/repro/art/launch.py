"""Launch scripts as objects — the paper's Fig 5, generalized.

A gem5art launch script registers artifacts, then creates run objects for
"each combination P in [cpus, benchmarks, ...]" and launches them
asynchronously.  :class:`Experiment` captures that pattern declaratively:

- one or more *stacks* (named artifact sets — e.g. one per Ubuntu release),
- parameter *axes* to sweep,
- a substrate to execute on (inline / processes),

and it records the experiment itself as a document so the database tells
the whole story: which artifacts, which cross product, which outcomes.

The experiment document is the durable list of its points: a run gets a
document of its own only with its outcome, so a run id the experiment
names but the ``runs`` collection does not hold is a point still owed
(``created``), and :meth:`Experiment.load` rebuilds it from the stacks,
axes and fixed parameters recorded here.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence

from repro.common.errors import (
    NotFoundError,
    StateError,
    ValidationError,
)
from repro.common.ids import new_uuid
from repro.common.timeutil import iso_now
from repro import telemetry
from repro.art.artifact import Artifact
from repro.art.db import ArtifactDB
from repro.art.run import Gem5Run, RunStatus
from repro.art.tasks import run_jobs_scheduler

#: Artifact roles a full-system stack must provide.
FS_STACK_ROLES = (
    "gem5",
    "gem5_git",
    "run_script_git",
    "linux_binary",
    "disk_image",
)
#: ... and a GPU stack (a GCN3_X86 build and its repository).
GPU_STACK_ROLES = ("gem5", "gem5_git")

EXPERIMENTS = "experiments"


def find_experiment(db: ArtifactDB, name_or_id: str) -> Dict[str, Any]:
    """The experiment document a name or id addresses; of several
    experiments sharing a name (one per repeated sweep) the most
    recently created."""
    experiments = db.database.collection(EXPERIMENTS)
    doc = experiments.find_one(
        {"name": name_or_id}, sort=[("created_at_wall", -1)]
    )
    if doc is None:
        doc = experiments.find_one({"_id": name_or_id})
    if doc is None:
        raise NotFoundError(
            f"no experiment named (or with id) {name_or_id!r}"
        )
    return doc


class Experiment:
    """A declarative cross-product experiment over gem5art runs."""

    def __init__(
        self,
        db: ArtifactDB,
        name: str,
        metadata: Optional[Dict[str, Any]] = None,
    ):
        if not name:
            raise ValidationError("experiment needs a name")
        self.db = db
        self.name = name
        self.metadata: Dict[str, Any] = dict(metadata or {})
        self.experiment_id = new_uuid()
        self._stacks: Dict[str, Dict[str, Artifact]] = {}
        self._axes: Dict[str, List[Any]] = {}
        self._fixed: Dict[str, Any] = {}
        self._runs: Optional[List[Gem5Run]] = None
        self._stack_of_run: Dict[str, str] = {}
        self._loaded = False

    # -------------------------------------------------------------- stacks

    def add_stack(self, name: str, **artifacts: Artifact) -> None:
        """Register a named artifact set (e.g. one per OS release): the
        roles of a full-system stack, or of a GPU one."""
        if self._loaded:
            raise StateError(
                "experiments loaded from the database are frozen; "
                "declare stacks on a fresh Experiment"
            )
        if set(artifacts) not in (set(FS_STACK_ROLES), set(GPU_STACK_ROLES)):
            raise ValidationError(
                f"stack {name!r} has roles {sorted(artifacts)}; a stack "
                f"provides {list(FS_STACK_ROLES)} (full system) or "
                f"{list(GPU_STACK_ROLES)} (GPU)"
            )
        if name in self._stacks:
            raise ValidationError(f"stack {name!r} already added")
        self._stacks[name] = dict(artifacts)

    # ---------------------------------------------------------------- axes

    def sweep(self, **axes: Sequence[Any]) -> None:
        """Declare parameter axes; each keyword becomes one cross-product
        dimension (e.g. ``num_cpus=[1, 2, 8]``)."""
        for key, values in axes.items():
            values = list(values)
            if not values:
                raise ValidationError(f"axis {key!r} is empty")
            self._axes[key] = values

    def fix(self, **params: Any) -> None:
        """Set parameters common to every run."""
        self._fixed.update(params)

    # ---------------------------------------------------------------- runs

    def size(self) -> int:
        """Number of runs the current declaration implies."""
        if not self._stacks:
            return 0
        total = len(self._stacks)
        for values in self._axes.values():
            total *= len(values)
        return total

    def create_runs(self) -> List[Gem5Run]:
        """Materialize one run object per cross-product point."""
        if self._loaded:
            raise StateError(
                "runs of a loaded experiment already exist in the database"
            )
        if not self._stacks:
            raise StateError("add at least one stack before create_runs")
        if self._runs is not None:
            raise StateError("runs were already created")
        runs: List[Gem5Run] = []
        for stack_name, params in self._points():
            run = self._point_run(self._stacks[stack_name], params)
            runs.append(run)
            self._stack_of_run[run.run_id] = stack_name
        self._runs = runs
        self._record()
        return runs

    def _points(self):
        """``(stack name, params)`` of every cross-product point, in
        run order."""
        axis_names = list(self._axes)
        for stack_name in self._stacks:
            for combo in itertools.product(
                *(self._axes[name] for name in axis_names)
            ):
                params = dict(self._fixed)
                params.update(zip(axis_names, combo))
                yield stack_name, params

    def _point_run(
        self, artifacts: Dict[str, Artifact], params: Dict[str, Any]
    ) -> Gem5Run:
        if "disk_image" not in artifacts:
            return Gem5Run.create_gpu_run(
                self.db, artifacts["gem5"], artifacts["gem5_git"], **params
            )
        return Gem5Run.create_fs_run(
            self.db,
            gem5_artifact=artifacts["gem5"],
            gem5_git_artifact=artifacts["gem5_git"],
            run_script_git_artifact=artifacts["run_script_git"],
            linux_binary_artifact=artifacts["linux_binary"],
            disk_image_artifact=artifacts["disk_image"],
            **params,
        )

    def _record(self) -> None:
        self.db.database.collection(EXPERIMENTS).insert_one(
            {
                "_id": self.experiment_id,
                "name": self.name,
                "stacks": {
                    name: {
                        role: artifact.id
                        for role, artifact in artifacts.items()
                    }
                    for name, artifacts in self._stacks.items()
                },
                "axes": self._axes,
                # Replay sorts a document's keys; the cross product's
                # order (and so which point each run id is) is this.
                "axis_order": list(self._axes),
                "fixed": self._fixed,
                "run_ids": [run.run_id for run in self._runs],
                "stack_of_run": dict(self._stack_of_run),
                # Caller-supplied provenance (e.g. which pipeline stage
                # launched this campaign); empty for direct launches.
                "metadata": dict(self.metadata),
                "status": "created",
                "created_at_wall": iso_now(),
            }
        )

    def _journal(self, status: str, **extra: Any) -> None:
        """Record the experiment's own lifecycle in its document, so an
        interrupted campaign is visible in the database — not only in the
        memory of the crashed process."""
        update = {"status": status, "status_at_wall": iso_now()}
        update.update(extra)
        self.db.database.collection(EXPERIMENTS).update_one(
            {"_id": self.experiment_id}, {"$set": update}
        )

    # -------------------------------------------------------------- launch

    def launch(
        self,
        workers: int = 4,
        use_cache: bool = True,
        substrate: str = "inline",
        use_checkpoints: bool = False,
    ) -> List[Dict[str, Any]]:
        """Execute every run and return summaries, in creation order
        (:meth:`resume` is the idempotent re-launch that skips runs the
        database already marks done).  Each run's document is written
        with its outcome; the experiment document, written first, names
        every run.

        The keywords are :func:`~repro.art.tasks.run_jobs_scheduler`'s
        (and the CLI's ``--workers``, ``--[no-]cache``, ``--substrate``,
        ``--[no-]checkpoints``): ``use_cache`` adopts archived results
        and coalesces equal fingerprints, ``substrate`` picks where the
        simulations execute (``"inline"`` or ``"processes"``),
        ``use_checkpoints`` boots once per unique boot prefix and
        restores everywhere else.
        """
        if self._runs is None:
            self.create_runs()
        return self._execute_pending(
            self._runs,
            workers,
            "launch",
            use_cache,
            substrate,
            use_checkpoints,
        )

    def resume(
        self,
        workers: int = 4,
        retry_failures: bool = False,
        use_cache: bool = True,
        substrate: str = "inline",
        use_checkpoints: bool = False,
    ) -> List[Dict[str, Any]]:
        """Re-launch only the runs an interrupted campaign still owes.

        Idempotent by run_id: runs already ``done`` in the database are
        skipped; ``created`` runs — points with no document, never
        started or interrupted mid-flight — are re-queued;
        ``failed``/``timed_out`` runs are re-queued only with
        ``retry_failures=True`` (their documents are updated in place).
        Resuming a finished experiment executes nothing and just returns
        the summaries.
        """
        if self._runs is None:
            raise StateError(
                "no runs to resume; launch the experiment first or load "
                "it from the database with Experiment.load"
            )
        return self._execute_pending(
            self._pending(retry_failures),
            workers,
            "resume",
            use_cache,
            substrate,
            use_checkpoints,
        )

    def pending_runs(self, retry_failures: bool = False) -> List[str]:
        """Run ids a resume would execute, in creation order, judged by
        the *database's* current run statuses (not in-memory state)."""
        if self._runs is None:
            return []
        return [run.run_id for run in self._pending(retry_failures)]

    def _pending(self, retry_failures: bool) -> List[Gem5Run]:
        """The runs behind :meth:`pending_runs`.  A run with a document
        takes its status and results from there — it may have settled
        through another object or process — so what a sweep returns
        needs no second read, and a retried failure is updated in place.
        A run id with no document is a point without an outcome
        (``created``): never started, or its process died mid-flight."""
        resumable = {RunStatus.CREATED}
        if retry_failures:
            resumable.update((RunStatus.FAILED, RunStatus.TIMED_OUT))
        pending = []
        for run in self._runs:
            doc = self.db.find_run(run.run_id)
            if doc is not None:
                run.status = RunStatus(doc["status"])
                run.results = doc.get("results")
            if run.status in resumable:
                pending.append(run)
        return pending

    def _execute_pending(
        self,
        pending: List[Gem5Run],
        workers: int,
        phase: str,
        use_cache: bool,
        substrate: str,
        use_checkpoints: bool,
    ) -> List[Dict[str, Any]]:
        span = telemetry.get_tracer().span(
            "experiment",
            attributes={
                "name": self.name,
                "experiment_id": self.experiment_id,
                "phase": phase,
                "runs": len(pending),
                "use_cache": use_cache,
                "substrate": substrate,
                "use_checkpoints": use_checkpoints,
            },
        )
        telemetry.get_event_log().emit(
            f"experiment.{phase}",
            experiment_id=self.experiment_id,
            name=self.name,
            substrate=substrate,
            pending=len(pending),
            run_ids=[run.run_id for run in pending],
        )
        self._journal(
            "resuming" if phase == "resume" else "launching",
            substrate=substrate,
            workers=workers,
            pending=len(pending),
        )
        interrupted = True
        try:
            with span:
                run_jobs_scheduler(
                    pending,
                    worker_count=workers,
                    use_cache=use_cache,
                    substrate=substrate,
                    use_checkpoints=use_checkpoints,
                )
            interrupted = False
        finally:
            # The journal survives a crash here: a campaign killed
            # mid-flight leaves status="interrupted" behind, which is what
            # ``repro resume`` looks for.
            self._journal("interrupted" if interrupted else "finished")
            telemetry.get_event_log().emit(
                "experiment.finished",
                experiment_id=self.experiment_id,
                name=self.name,
                interrupted=interrupted,
            )
            self._archive_telemetry(span)
        return [run.results for run in self._runs]

    # ----------------------------------------------------------- loading

    @classmethod
    def load(cls, db: ArtifactDB, name_or_id: str) -> "Experiment":
        """Rehydrate an experiment (and its runs) from the database.

        Accepts the experiment's name or id (see
        :func:`find_experiment`).  The result is frozen — stacks and
        runs already exist — but fully resumable and reportable.  A run
        with a document is loaded from it; a point without one is
        rebuilt from the experiment document — the same run id, the same
        inputs, so the same fingerprint.
        """
        doc = find_experiment(db, name_or_id)
        experiment = cls(db, doc["name"], metadata=doc.get("metadata"))
        experiment.experiment_id = doc["_id"]
        experiment._loaded = True
        experiment._axes = {
            key: list(doc["axes"][key]) for key in doc["axis_order"]
        }
        experiment._fixed = dict(doc["fixed"])
        experiment._stack_of_run = dict(doc["stack_of_run"])
        # Stacks in run order, as they were declared.
        experiment._stacks = {
            name: dict(doc["stacks"][name])
            for name in dict.fromkeys(
                experiment._stack_of_run[run_id]
                for run_id in doc["run_ids"]
            )
        }
        inputs: Dict[str, Dict[str, Artifact]] = {}
        experiment._runs = []
        for run_id, (stack_name, params) in zip(
            doc["run_ids"], experiment._points()
        ):
            run_doc = db.find_run(run_id)
            if run_doc is not None:
                run = Gem5Run.from_document(db, run_doc)
            else:
                if stack_name not in inputs:
                    inputs[stack_name] = {
                        role: Artifact.load(db, artifact_id)
                        for role, artifact_id in experiment._stacks[
                            stack_name
                        ].items()
                    }
                run = experiment._point_run(inputs[stack_name], params)
                run.run_id = run_id
            experiment._runs.append(run)
        return experiment

    def _archive_telemetry(self, span) -> None:
        """Archive the whole experiment's trace (spans + metrics +
        events) keyed by the experiment id — ``repro trace`` reads it
        back from the database alone."""
        session = telemetry.current_session()
        if session is None or not span.span_id:
            return
        telemetry.archive_telemetry(
            self.db,
            self.experiment_id,
            session.snapshot(
                spans=session.tracer.subtree(span.span_id)
            ),
            kind="experiment",
        )

    # -------------------------------------------------------------- read

    def records(self) -> List[Dict[str, Any]]:
        """One flat dict per point, in run order: ``run_id``, ``stack``,
        ``status``, ``outcome`` (the simulation status, else ``status``),
        the params, then the results (``result_``-prefixed on a clash).
        The run objects hold what the database acknowledged (or
        :meth:`load` read), so this issues no query."""
        if self._runs is None:
            raise StateError("launch the experiment before reading it")
        records = []
        for run in self._runs:
            results = run.results or {}
            record: Dict[str, Any] = {
                "run_id": run.run_id,
                "stack": self._stack_of_run[run.run_id],
                "status": run.status.value,
                "outcome": results.get(
                    "simulation_status", run.status.value
                ),
            }
            record.update(run.params)
            for key, value in results.items():
                record[f"result_{key}" if key in record else key] = value
            records.append(record)
        return records

    def report(self) -> Dict[str, Any]:
        """Outcome summary: totals and per-outcome counts per stack."""
        records = self.records()
        by_stack: Dict[str, Dict[str, int]] = {
            name: {} for name in self._stacks
        }
        for record in records:
            counts = by_stack[record["stack"]]
            counts[record["outcome"]] = counts.get(record["outcome"], 0) + 1
        return {
            "experiment": self.name,
            "runs": len(records),
            "by_stack": by_stack,
        }
