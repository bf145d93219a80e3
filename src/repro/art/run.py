"""Run objects — the paper's Fig 4.

A "gem5art run" is a special artifact that stores all the information about
one simulation (a single data point): references to the input artifacts
(gem5 binary, its repository, the run script, the kernel, the disk image),
the parameters handed to the run script, and — once executed — a pointer
to the results plus a summary (status, execution time).

This reproduction's run objects are *executable*: ``run()`` reconstructs
the simulator and guest objects from the referenced artifacts' payloads and
metadata, drives :class:`repro.sim.Gem5Simulator` (or the GPU device), and
archives everything in the database.

Run identity is two-layered.  The UUID (``run_id``) is the *instance* id:
it names one attempt, one document, one row in an experiment.  The
:class:`~repro.art.spec.RunSpec` **fingerprint** is the *identity* key:
a SHA-256 over the content hashes of every input artifact plus the
canonicalized parameters and simulator build.  Every run is constructed
from a spec, and ``run()`` consults the result cache
(:mod:`repro.art.cache`) by fingerprint before simulating — a hit adopts
the archived, hash-verified result at near-zero cost.
"""

from __future__ import annotations

import enum
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Optional

from repro.common.errors import ValidationError
from repro.common.ids import new_uuid
from repro.common.timeutil import iso_now
from repro import chaos, telemetry
from repro.art.artifact import Artifact, load_disk_image
from repro.art.cache import RunCache
from repro.art.db import ArtifactDB
from repro.art.spec import RunSpec
from repro.gpu.config import GPUConfig
from repro.gpu.device import GPUDevice
from repro.gpu.workloads import get_gpu_workload
from repro.sim.buildinfo import Gem5Build
from repro.sim.checkpoint import Checkpoint
from repro.sim.config import SystemConfig
from repro.sim.simulator import Gem5Simulator, SimulationStatus
from repro.vfs.image import DiskImage

#: The CPU model the boot stage executes under: the cheap one, which the
#: fault model supports on every platform shape.
BOOT_CPU = "kvm"


class RunStatus(str, enum.Enum):
    """Lifecycle of a run document in the database."""

    CREATED = "created"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    TIMED_OUT = "timed_out"


@dataclass
class Gem5Run:
    """One experiment data point, executable and archivable."""

    run_id: str
    kind: str  # "fs" or "gpu"
    artifacts: Dict[str, str]
    params: Dict[str, object]
    timeout: float
    db: ArtifactDB = field(repr=False)
    spec: RunSpec = field(repr=False)
    fingerprint: str
    status: RunStatus = RunStatus.CREATED
    results: Optional[Dict[str, object]] = None

    # -------------------------------------------------------- constructors

    @classmethod
    def create_fs_run(
        cls,
        db: ArtifactDB,
        gem5_artifact: Artifact,
        gem5_git_artifact: Artifact,
        run_script_git_artifact: Artifact,
        linux_binary_artifact: Artifact,
        disk_image_artifact: Artifact,
        cpu_type: str = "timing",
        num_cpus: int = 1,
        memory_system: str = "classic",
        memory_tech: str = "DDR3_1600_8x8",
        memory_channels: int = 1,
        benchmark: Optional[str] = None,
        input_size: Optional[str] = None,
        boot_type: str = "systemd",
        timeout: float = 60 * 15,
    ) -> "Gem5Run":
        """Create a full-system run object (the paper's ``createFSRun``).

        All five artifacts of Fig 4 are required; the remaining keyword
        parameters are what the run script would receive.
        """
        artifact_objects = {
            "gem5": gem5_artifact,
            "gem5_git": gem5_git_artifact,
            "run_script_git": run_script_git_artifact,
            "linux_binary": linux_binary_artifact,
            "disk_image": disk_image_artifact,
        }
        params = {
            "cpu_type": cpu_type,
            "num_cpus": num_cpus,
            "memory_system": memory_system,
            "memory_tech": memory_tech,
            "memory_channels": memory_channels,
            "benchmark": benchmark,
            "input_size": input_size,
            "boot_type": boot_type,
        }
        spec = RunSpec.from_artifacts("fs", artifact_objects, params)
        return cls._create(db, artifact_objects, params, timeout, spec)

    #: camelCase alias matching the paper's Fig 4.
    createFSRun = create_fs_run

    @classmethod
    def create_gpu_run(
        cls,
        db: ArtifactDB,
        gem5_artifact: Artifact,
        gem5_git_artifact: Artifact,
        workload: str,
        register_allocator: str = "simple",
        gpu_config: Optional[GPUConfig] = None,
    ) -> "Gem5Run":
        """Create a GPU (GCN3_X86) run for use-case 3 (same 15-minute
        timeout as :meth:`create_fs_run`'s default)."""
        build_meta = gem5_artifact.metadata
        if build_meta.get("isa") != "GCN3_X86":
            raise ValidationError(
                "GPU runs need a gem5 binary built for GCN3_X86 "
                f"(got {build_meta.get('isa')!r})"
            )
        artifact_objects = {
            "gem5": gem5_artifact,
            "gem5_git": gem5_git_artifact,
        }
        config = gpu_config or GPUConfig()
        params = {
            "workload": workload,
            "register_allocator": register_allocator,
            "gpu_config": {
                "num_cus": config.num_cus,
                "simds_per_cu": config.simds_per_cu,
                "max_wavefronts_per_simd": config.max_wavefronts_per_simd,
                "vector_registers_per_cu": config.vector_registers_per_cu,
                "lds_bytes_per_cu": config.lds_bytes_per_cu,
                "dependence_tracking_penalty": (
                    config.dependence_tracking_penalty
                ),
            },
        }
        spec = RunSpec.from_artifacts("gpu", artifact_objects, params)
        return cls._create(db, artifact_objects, params, 60 * 15, spec)

    createGPURun = create_gpu_run

    @classmethod
    def _create(
        cls, db, artifact_objects, params, timeout, spec: RunSpec
    ) -> "Gem5Run":
        """Materialize a run *from its spec* plus the artifact instances
        that realize it; the fingerprint is persisted in the document so
        loads and cache consultations never re-derive it."""
        artifacts = {
            role: artifact.id
            for role, artifact in artifact_objects.items()
        }
        fingerprint = spec.fingerprint()
        run = cls(
            run_id=new_uuid(),
            kind=spec.kind,
            artifacts=artifacts,
            params=params,
            timeout=timeout,
            db=db,
            spec=spec,
            fingerprint=fingerprint,
        )
        db.put_run(
            {
                "_id": run.run_id,
                "kind": spec.kind,
                "artifacts": artifacts,
                "params": params,
                "timeout": timeout,
                "status": RunStatus.CREATED.value,
                "results": None,
                "fingerprint": fingerprint,
                "spec": spec.to_document(),
            }
        )
        return run

    @classmethod
    def load(cls, db: ArtifactDB, run_id: str) -> "Gem5Run":
        doc = db.get_run(run_id)
        if not doc.get("spec") or not doc.get("fingerprint"):
            raise ValidationError(
                f"run document {run_id} carries no spec/fingerprint: every "
                "run written since the RunSpec IR does, so this one was "
                "hand-edited or comes from another tool"
            )
        return cls(
            run_id=doc["_id"],
            kind=doc["kind"],
            artifacts=dict(doc["artifacts"]),
            params=dict(doc["params"]),
            timeout=doc["timeout"],
            db=db,
            status=RunStatus(doc["status"]),
            results=doc.get("results"),
            spec=RunSpec.from_document(doc["spec"]),
            fingerprint=doc["fingerprint"],
        )

    # ------------------------------------------------------------ identity

    @property
    def prefix(self) -> Optional[str]:
        """The boot-prefix fingerprint of this run's spec (None for a
        run kind without a boot stage).

        All runs sharing a prefix may legally restore one boot
        checkpoint (see :meth:`repro.art.spec.RunSpec.prefix_fingerprint`).
        """
        return self.spec.prefix_fingerprint()

    # ----------------------------------------------------------- execution

    def run(
        self,
        use_cache: bool = True,
        checkpoint_store=None,
        resolver: Optional["InputResolver"] = None,
    ) -> Dict[str, object]:
        """Execute the simulation — or adopt its memoized result — and
        archive the outcome.

        Returns the results summary also stored in the database.  The
        gem5art timeout is enforced on host wall-clock time.

        With ``use_cache`` (the default) the run first consults the
        result cache by spec fingerprint: on a verified hit the archived
        results are adopted and **no simulation happens**; on a miss the
        run executes and, if it reaches ``DONE``, its outcome is stored
        for every future identical run.  ``use_cache=False`` forces a
        fresh execution and leaves the cache untouched.

        With ``checkpoint_store`` (a
        :class:`~repro.art.checkpoints.CheckpointStore`), an fs run
        consults the store by its prefix fingerprint and restores the
        archived boot instead of re-simulating it; a missing, corrupt
        or incompatible checkpoint degrades to a full boot.

        ``resolver`` (an :class:`InputResolver`) is the planner's memo
        of this sweep's input artifacts; a bare ``run()`` resolves
        through one of its own.

        With telemetry enabled, the run is wrapped in a ``run`` span
        (parenting the simulator's phase spans) and its span subtree is
        archived in the database next to the stats blob, so the timeline
        can be rehydrated from the database alone.
        """

        def in_process(resolver: "InputResolver", restore):
            started = time.monotonic()
            summary, result = simulate(
                self.kind, self.params, resolver.live(self), restore
            )
            stats_txt = result.stats_txt()
            return summary, stats_txt, time.monotonic() - started, {}

        return self._execute(
            in_process, use_cache, checkpoint_store, resolver
        )

    def run_in_pool(
        self,
        pool,
        use_cache: bool = True,
        checkpoint_store=None,
        resolver: Optional["InputResolver"] = None,
    ) -> Dict[str, object]:
        """Execute this run on a process-pool substrate.

        Everything but the simulation itself — cache consult, checkpoint
        consult, status transitions, stats-blob upload, cache store —
        is :meth:`run`'s, in the parent; the worker process only
        simulates (see :mod:`repro.art.procjobs`).  A worker failure
        marks the run FAILED and re-raises, and the gem5art timeout is
        enforced on the worker's host wall-clock seconds.
        """
        from repro.art.procjobs import envelope_for_run

        def in_worker(resolver: "InputResolver", restore):
            handle = pool.submit(
                envelope_for_run(self, resolver.wire(self), restore)
            )
            outcome = handle.result()
            return (
                outcome["summary"],
                outcome["stats_txt"],
                handle.host_seconds,
                {
                    "stats_fingerprint": outcome["stats_fingerprint"],
                    "worker": handle.worker,
                },
            )

        return self._execute(
            in_worker,
            use_cache,
            checkpoint_store,
            resolver,
            substrate="processes",
        )

    def _execute(
        self,
        simulate_on,
        use_cache: bool,
        checkpoint_store,
        resolver: Optional["InputResolver"],
        **attributes,
    ) -> Dict[str, object]:
        """The one run skeleton.  ``simulate_on(resolver, restore)`` is
        the only substrate-specific step: it takes from the resolver the
        form of the inputs its substrate consumes and turns them into
        ``(summary, stats_txt, host_seconds, extra_summary_fields)`` on
        this thread or in a worker process."""
        span = telemetry.get_tracer().span(
            "run",
            attributes={
                "run_id": self.run_id,
                "kind": self.kind,
                "fingerprint": self.fingerprint,
                **attributes,
            },
        )
        try:
            with span:
                summary = self._adopt_or_simulate(
                    simulate_on,
                    use_cache,
                    checkpoint_store,
                    resolver or InputResolver(),
                    span,
                )
                span.set_attribute("status", self.status.value)
                span.set_attribute(
                    "workload", summary.get("workload", "")
                )
                span.set_attribute(
                    "host_seconds", summary.get("host_seconds", 0.0)
                )
        finally:
            span.set_attribute("status", self.status.value)
            telemetry.get_metrics().counter(
                "runs_total", "gem5art runs by final status"
            ).inc(outcome=self.status.value)
            self._archive_telemetry(span)
        return summary

    def _adopt_or_simulate(
        self,
        simulate_on,
        use_cache: bool,
        checkpoint_store,
        resolver: "InputResolver",
        span,
    ) -> Dict[str, object]:
        cache = RunCache(self.db) if use_cache else None
        if cache is not None:
            entry = cache.consult(self.fingerprint)
            if entry is not None:
                span.set_attribute("cache", "hit")
                return self.adopt_cached(entry)
            span.set_attribute("cache", "miss")
        self._set_status(
            RunStatus.RUNNING, extra={"started_at_wall": iso_now()}
        )
        try:
            restore = self._consult_checkpoint(checkpoint_store, resolver)
            if restore is not None:
                span.set_attribute("boot", "restored")
            summary, stats_txt, host_seconds, extras = simulate_on(
                resolver, restore
            )
            summary = dict(
                summary,
                stats_file_id=self.db.upload_file(
                    stats_txt.encode("utf-8"),
                    filename=f"stats-{self.run_id}.txt",
                ),
                **extras,
                host_seconds=host_seconds,
            )
        except Exception as error:
            self._set_status(
                RunStatus.FAILED,
                {"error": str(error)},
                extra={"finished_at_wall": iso_now()},
            )
            raise
        timed_out = host_seconds > self.timeout
        if timed_out:
            summary["timed_out"] = True
        self._set_status(
            RunStatus.TIMED_OUT if timed_out else RunStatus.DONE,
            summary,
            extra={"finished_at_wall": iso_now()},
        )
        if cache is not None and not timed_out:
            # The fields of this run's document a cache entry is made
            # of, as just written — not read back.
            cache.store(
                self.fingerprint,
                {
                    "_id": self.run_id,
                    "kind": self.kind,
                    "status": self.status.value,
                    "spec": self.spec.to_document(),
                    "results": summary,
                },
            )
        return summary

    def adopt_cached(self, entry: Dict[str, object]) -> Dict[str, object]:
        """Take over an archived result: the run finishes without a
        single simulated tick, its document pointing at the same
        (hash-verified) stats blob the original execution produced."""
        results = dict(entry["results"])
        self._set_status(
            RunStatus(entry["status"]),
            results,
            extra={
                "cache_hit": True,
                "cached_from": entry.get("run_id"),
                "finished_at_wall": iso_now(),
            },
        )
        return results

    def _archive_telemetry(self, span) -> None:
        """Store this run's span subtree as a blob next to its stats."""
        if not telemetry.enabled() or not span.span_id:
            return
        spans = telemetry.get_tracer().subtree(span.span_id)
        if not spans:
            return
        telemetry.archive_telemetry(
            self.db,
            self.run_id,
            telemetry.snapshot(spans=spans),
            kind="run",
        )

    def _consult_checkpoint(
        self, store, resolver: "InputResolver"
    ) -> Optional[Checkpoint]:
        """Fetch this run's boot checkpoint, degrading on any doubt.

        The store's ``get`` already degrades on missing/corrupt entries;
        this layer additionally re-verifies restore compatibility and
        treats a mismatch as a miss (full boot) rather than a failure —
        a stale or hand-edited store must never wedge a sweep.  It runs
        before dispatch, so every substrate degrades the same way.
        """
        if store is None or self.kind != "fs":
            return None
        prefix = self.prefix
        if prefix is None:
            return None
        inputs = resolver.live(self)
        checkpoint = store.get(prefix)
        if checkpoint is None:
            return None
        try:
            checkpoint.check_compatible(
                kernel_version=inputs["kernel_version"],
                disk_image_hash=inputs["disk_image"].content_hash(),
                num_cpus=self.params["num_cpus"],
                memory_system=self.params["memory_system"],
            )
        except ValidationError as error:
            telemetry.get_event_log().emit(
                "checkpoint.incompatible",
                run_id=self.run_id,
                prefix=prefix,
                error=str(error),
            )
            return None
        return checkpoint

    def take_boot_checkpoint(
        self, resolver: Optional["InputResolver"] = None
    ) -> Optional[Checkpoint]:
        """Boot this run's prefix once and capture a checkpoint.

        The boot stage of the staged planner: executed under
        :data:`BOOT_CPU` on this run's platform shape and boot type.
        Returns None when the boot itself fails; the cohort then
        degrades to full boots.
        """
        if self.kind != "fs":
            return None
        checkpoint, _ = boot_checkpoint(
            self.params, (resolver or InputResolver()).live(self)
        )
        return checkpoint

    # ------------------------------------------------------------ storage

    def _set_status(
        self, status: RunStatus, results=None, extra=None
    ) -> None:
        chaos.fire(
            "run.status", run_id=self.run_id, status=status.value
        )
        self.status = status
        update = {"$set": {"status": status.value}}
        if results is not None:
            update["$set"]["results"] = results
        if extra:
            update["$set"].update(extra)
        self.db.update_run(self.run_id, update)
        if results is not None:
            # Only what the database acknowledged: ``results`` is what
            # a sweep returns in place of reading the document back.
            self.results = results
        telemetry.get_event_log().emit(
            "run.status", run_id=self.run_id, status=status.value
        )


# ----------------------------------------------------------------- inputs


class InputResolver:
    """A sweep's input artifacts, each resolved once.

    Artifacts are content-hashed and immutable, so what a run reads
    from one is a pure function of the hash its spec already carries.
    A resolver lives for one planner call (or one bare ``run()``),
    loads each distinct ``(role, content hash)`` at most once however
    many runs and worker threads ask — the blob's SHA-256 is verified
    on that one read — and hands every asker the same object.  A load
    that raises is not remembered: each dependent run fails with (and
    archives) its own error.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._resolved: Dict[Hashable, Any] = {}

    def live(self, run: Gem5Run) -> Dict[str, object]:
        """What :func:`simulate` consumes.

        For an fs run: the simulator ``build`` (a plain dict), the
        ``kernel_version`` and the live ``disk_image`` — shared, so
        read-only.  Other kinds are described by their params alone.
        """
        if run.kind != "fs":
            return {}
        return {
            "build": self._artifact(run, "gem5", _build_of),
            "kernel_version": self._artifact(
                run, "linux_binary", _kernel_version_of
            ),
            "disk_image": self._artifact(
                run, "disk_image", _published_disk_image
            ),
        }

    def wire(self, run: Gem5Run) -> Dict[str, Any]:
        """The picklable form of :meth:`live` a worker process rebuilds
        its inputs from (:mod:`repro.art.procjobs`)."""
        inputs = self.live(run)
        if inputs:
            inputs["disk_image"] = self._once(
                ("disk_image.wire", run.spec.artifacts["disk_image"]),
                inputs["disk_image"].to_dict,
            )
        return inputs

    def _artifact(
        self, run: Gem5Run, role: str, decode: Callable[[Artifact], Any]
    ) -> Any:
        return self._once(
            (role, run.spec.artifacts[role]),
            lambda: decode(Artifact.load(run.db, run.artifacts[role])),
        )

    def _once(self, key: Hashable, load: Callable[[], Any]) -> Any:
        # Single-flight: the lock is held across the load, so racing
        # threads wait for the first one's result instead of repeating
        # its database reads.
        with self._lock:
            if key not in self._resolved:
                self._resolved[key] = load()
            return self._resolved[key]


def _build_of(gem5_artifact: Artifact) -> Dict[str, object]:
    metadata = gem5_artifact.metadata
    return {
        "version": metadata.get("version", "20.1.0.4"),
        "isa": metadata.get("isa", "X86"),
        "variant": metadata.get("variant", "opt"),
    }


def _kernel_version_of(kernel_artifact: Artifact) -> str:
    return kernel_artifact.metadata["kernel_version"]


def _published_disk_image(disk_artifact: Artifact) -> DiskImage:
    image = load_disk_image(disk_artifact)
    # content_hash() fills the image's memo fields lazily and without a
    # lock; filling them here, before any other thread can see the
    # image, leaves the shared object read-only.
    image.content_hash()
    return image


# ------------------------------------------------------------- simulation
#
# The only code that drives the simulator for a run.  ``Gem5Run.run``
# calls it with live inputs; a process-pool worker calls it after
# deserializing its payload (:mod:`repro.art.procjobs`).  Both therefore
# produce the same summary by construction.


def simulate(kind: str, params, inputs, restore=None):
    """Simulate one run: ``(summary, result)``.

    ``inputs`` is :meth:`InputResolver.live` (or a worker's rebuild of
    it); the summary has every result field that does not need the
    database.
    """
    if kind == "fs":
        simulator = _fs_simulator(params, inputs, params["cpu_type"])
        return _simulate_fs(simulator, params, inputs, restore)
    if kind == "gpu":
        return _simulate_gpu(params)
    raise ValidationError(f"unknown run kind {kind!r}")


def boot_checkpoint(params, inputs):
    """Boot an fs run's platform shape under :data:`BOOT_CPU`:
    ``(checkpoint-or-None, result)``."""
    return _fs_simulator(params, inputs, BOOT_CPU).take_boot_checkpoint(
        kernel=inputs["kernel_version"],
        disk_image=inputs["disk_image"],
        boot_type=params.get("boot_type", "systemd"),
    )


def _fs_simulator(params, inputs, cpu_type: str) -> Gem5Simulator:
    config = SystemConfig(
        cpu_type=cpu_type,
        num_cpus=params["num_cpus"],
        memory_system=params["memory_system"],
        memory_tech=params["memory_tech"],
        memory_channels=params["memory_channels"],
    )
    return Gem5Simulator(Gem5Build(**inputs["build"]), config)


def _simulate_fs(simulator, params, inputs, restore):
    result = simulator.run_fs(
        kernel=inputs["kernel_version"],
        disk_image=inputs["disk_image"],
        benchmark=params.get("benchmark"),
        input_size=params.get("input_size"),
        boot_type=params.get("boot_type", "systemd"),
        restore_from=restore,
    )
    summary = {
        "simulation_status": result.status.value,
        "reason": result.reason,
        "sim_seconds": result.sim_seconds,
        "boot_seconds": result.boot_seconds,
        "workload_seconds": result.workload_seconds,
        "instructions": result.instructions,
        "config": result.config_summary,
        "workload": result.workload_name,
        "restored_boot": restore is not None,
        "success": result.status is SimulationStatus.OK,
    }
    return summary, result


def _simulate_gpu(params):
    workload = get_gpu_workload(params["workload"])
    device = GPUDevice(GPUConfig(**dict(params["gpu_config"])))
    result = device.execute(workload.kernel, params["register_allocator"])
    summary = {
        "simulation_status": "ok",
        "workload": workload.name,
        "suite": workload.suite,
        "register_allocator": result.allocator,
        "shader_ticks": result.shader_ticks,
        "occupancy_per_simd": result.occupancy_per_simd,
        "success": True,
    }
    return summary, result
