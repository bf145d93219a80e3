"""Pickle-safe job payloads: shipping a simulation to a worker process.

A :class:`~repro.art.run.Gem5Run` holds a live database handle, so the
run object itself can never cross a process boundary.  What *can* cross
is everything the simulation actually consumes — and the content-addressed
:class:`~repro.art.spec.RunSpec` already enumerates exactly that: the
input artifacts and the canonicalized parameters.

- parent (:func:`envelope_for_run` / :func:`envelope_for_boot`): wrap
  the run's parameters and its resolved inputs in their picklable form
  (:meth:`~repro.art.run.InputResolver.wire`, built once per sweep);
  dedup, caching and all database access stay here;
- worker (:func:`execute_run_payload` / :func:`execute_boot_payload`):
  rebuild the inputs and call the same pure functions the in-process
  substrates call (:func:`~repro.art.run.simulate_run`,
  :func:`~repro.art.run.boot_checkpoint`); what they return is what the
  parent's :meth:`~repro.art.run.Gem5Run.finish` (or the boot stage)
  archives.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro import telemetry
from repro.art.run import boot_checkpoint, simulate_run
from repro.scheduler.procpool import JobEnvelope, intern_ref
from repro.sim.checkpoint import Checkpoint
# Loaded before the pool forks, so no seat imports them at its first job.
import repro.sim.simulator
import repro.sim.workload.registry

#: The dotted-path target every run envelope resolves to in the worker.
RUN_TARGET = "repro.art.procjobs:execute_run_payload"

#: The dotted-path target for a boot-stage checkpoint job.
BOOT_TARGET = "repro.art.procjobs:execute_boot_payload"


def _envelope(
    target: str,
    task_id: str,
    run,
    inputs: Dict[str, Any],
    restore: Optional[Checkpoint] = None,
    timeout: Optional[float] = None,
) -> JobEnvelope:
    """One job as data: the run's parameters and its wire ``inputs``.

    The bulk values — the disk image tree, which dominates a payload's
    pickled size and is identical across a sweep, and the checkpoint,
    which repeats across a prefix's variants — ship through the pool's
    intern cache under the content hash they already have, so each
    worker receives them at most once.  The worker records telemetry
    exactly when the parent currently does.
    """
    payload = {
        "kind": run.kind,
        "params": dict(run.params),
        "restore": restore,
        **inputs,
    }
    shared: Dict[str, Any] = {}
    for key, content_hash in (
        ("disk_image", run.spec.artifacts.get("disk_image")),
        ("restore", restore and restore.checkpoint_id),
    ):
        if payload.get(key) is not None:
            shared[content_hash] = payload[key]
            payload[key] = intern_ref(content_hash)
    return JobEnvelope(
        target=target,
        args=(payload,),
        task_id=task_id,
        telemetry=telemetry.enabled(),
        shared=shared,
        timeout=timeout,
    )


def envelope_for_run(
    run,
    inputs: Dict[str, Any],
    restore: Optional[Checkpoint] = None,
) -> JobEnvelope:
    """Wrap one run's simulation in a process-pool envelope.

    ``inputs`` (:meth:`~repro.art.run.InputResolver.wire`) were resolved
    in the parent — the worker never sees the database; ``restore``
    makes it restore a boot checkpoint instead of booting.  The
    envelope's ``task_id`` is the run's instance id, so pool events
    correlate with run documents without a join table, and its
    ``timeout`` the run's: the pool kills the worker it wedges.
    """
    return _envelope(
        RUN_TARGET, run.run_id, run, inputs, restore, run.timeout
    )


def envelope_for_boot(run, inputs: Dict[str, Any]) -> JobEnvelope:
    """Wrap a prefix cohort's boot job in a process-pool envelope.

    ``run`` is any (fs) representative of the prefix cohort and
    ``inputs`` its :meth:`~repro.art.run.InputResolver.wire` form.
    """
    return _envelope(BOOT_TARGET, f"boot-{run.prefix}", run, inputs)


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


def execute_run_payload(payload: Dict[str, Any]):
    """Worker-side entry point (resolved by dotted path inside a forked
    worker process): :func:`~repro.art.run.simulate_run`'s outcome,
    unchanged, so a run's document does not depend on where it ran.
    Which worker ran it is the pool's to say: its ``procpool.dispatch``
    and ``procpool.result`` events name the worker by ``task_id``, the
    run id."""
    return simulate_run(
        payload["kind"],
        payload["params"],
        _live_inputs(payload),
        payload["restore"],
    )


def execute_boot_payload(payload: Dict[str, Any]) -> Optional[Checkpoint]:
    """Worker-side boot stage: boot once, return the checkpoint.  A boot
    that fails the fault model yields None and the cohort degrades to
    full boots — degradation, never escalation."""
    return boot_checkpoint(payload["params"], _live_inputs(payload))
