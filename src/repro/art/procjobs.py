"""Pickle-safe job payloads: shipping a run to a worker process.

A :class:`~repro.art.run.Gem5Run` holds a live database handle, so the
run object itself can never cross a process boundary.  What *can* cross
is everything the simulation actually consumes — and the content-addressed
:class:`~repro.art.spec.RunSpec` (PR 4) already enumerates exactly that:
the input artifacts and the canonicalized parameters.  This module builds
a self-contained **payload** from those inputs in the parent (where the
database lives), and executes it in the worker (where no database
exists), returning plain data the parent archives.

Division of labor:

- parent (:func:`payload_for_run` / :func:`envelope_for_run`): wrap the
  run's resolved inputs in their picklable form
  (:meth:`~repro.art.run.InputResolver.wire`, built once per sweep);
  dedup, caching and all database writes stay here;
- worker (:func:`execute_run_payload`): rebuild the inputs from the
  payload, call the same :func:`repro.art.run.simulate` the in-process
  path calls, and return ``{"summary", "stats_txt",
  "stats_fingerprint"}`` — the parent uploads the stats blob and updates
  the run document.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro import telemetry
from repro.common.errors import ValidationError
from repro.common.hashing import sha256_text
from repro.art.run import boot_checkpoint, simulate
from repro.scheduler.procpool import JobEnvelope, intern_ref
from repro.sim.checkpoint import Checkpoint

#: The dotted-path target every run envelope resolves to in the worker.
RUN_TARGET = "repro.art.procjobs:execute_run_payload"

#: The dotted-path target for a boot-stage checkpoint job.
BOOT_TARGET = "repro.art.procjobs:execute_boot_payload"


def _live_inputs(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker side of :meth:`~repro.art.run.InputResolver.wire`."""
    if "disk_image" not in payload:
        return {}
    from repro.vfs.image import DiskImage

    return {
        "build": payload["build"],
        "kernel_version": payload["kernel_version"],
        "disk_image": DiskImage.from_dict(payload["disk_image"]),
    }


def _intern(
    payload: Dict[str, Any], key: str, content_hash: str,
    shared: Dict[str, Any],
) -> None:
    """Move ``payload[key]`` into ``shared`` behind an
    :func:`intern_ref`, so each worker receives it at most once."""
    shared[content_hash] = payload[key]
    payload[key] = intern_ref(content_hash)


def payload_for_run(
    run,
    inputs: Dict[str, Any],
    restore: Optional[Checkpoint] = None,
) -> Dict[str, Any]:
    """Build the self-contained, picklable payload for one run.

    ``inputs`` (:meth:`~repro.art.run.InputResolver.wire`) were
    resolved in the parent — the worker never sees the database.
    ``restore`` makes the worker restore a boot checkpoint instead of
    booting (the planner's variant-stage fan-out).
    """
    payload: Dict[str, Any] = {
        "kind": run.kind,
        "run_id": run.run_id,
        "fingerprint": run.fingerprint,
        "params": dict(run.params),
        **inputs,
    }
    if restore is not None:
        payload["restore_from"] = restore.to_dict()
    return payload


def envelope_for_run(
    run,
    inputs: Dict[str, Any],
    restore: Optional[Checkpoint] = None,
) -> JobEnvelope:
    """Wrap a run's payload in a process-pool envelope.

    The envelope's ``task_id`` is the run's instance id, so pool
    telemetry and redelivery events correlate with run documents
    without a join table.
    The worker records telemetry exactly when the parent currently
    does.  The bulk payload values — the disk image tree, which
    dominates an fs payload's pickled size and is identical across a
    sweep, and the checkpoint document, which repeats across every
    variant of a prefix — ship through the pool's content-hash intern
    cache, so each worker receives them at most once across the whole
    sweep.  Both are content-hashed already, which is what makes the
    intern key free.
    """
    payload = payload_for_run(run, inputs, restore)
    shared: Dict[str, Any] = {}
    if "disk_image" in payload:
        _intern(
            payload, "disk_image", run.spec.artifacts["disk_image"], shared
        )
    if restore is not None:
        _intern(payload, "restore_from", restore.checkpoint_id, shared)
    return JobEnvelope(
        target=RUN_TARGET,
        args=(payload,),
        task_id=run.run_id,
        telemetry=telemetry.enabled(),
        shared=shared,
    )


def envelope_for_boot(run, inputs: Dict[str, Any]) -> JobEnvelope:
    """Wrap a prefix cohort's boot job in a process-pool envelope.

    ``run`` is any representative of the prefix cohort and ``inputs``
    its :meth:`~repro.art.run.InputResolver.wire` form.
    """
    if run.kind != "fs":
        raise ValidationError("only fs runs have a boot stage")
    payload = {
        "run_id": run.run_id,
        "params": dict(run.params),
        **inputs,
    }
    shared: Dict[str, Any] = {}
    _intern(
        payload, "disk_image", run.spec.artifacts["disk_image"], shared
    )
    return JobEnvelope(
        target=BOOT_TARGET,
        args=(payload,),
        task_id=f"boot-{run.prefix}",
        telemetry=telemetry.enabled(),
        shared=shared,
    )


def execute_run_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side entry point: simulate a payload, return plain data.

    Imported by dotted path inside a spawned worker process.
    """
    restore = None
    if payload.get("restore_from") is not None:
        restore = Checkpoint.from_dict(payload["restore_from"])
    summary, result = simulate(
        payload["kind"], payload["params"], _live_inputs(payload), restore
    )
    stats_txt = result.stats_txt()
    return {
        "summary": summary,
        "stats_txt": stats_txt,
        "stats_fingerprint": sha256_text(stats_txt),
    }


def execute_boot_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-side boot stage: boot once, return the checkpoint.

    Imported by dotted path inside a spawned worker process.  Returns
    ``{"checkpoint": dict-or-None}``; a boot that fails the fault model
    yields no checkpoint and the cohort degrades to full boots —
    degradation, never escalation.
    """
    checkpoint, _ = boot_checkpoint(
        payload["params"], _live_inputs(payload)
    )
    return {
        "checkpoint": None if checkpoint is None else checkpoint.to_dict()
    }
