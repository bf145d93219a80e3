"""Run objects — the paper's Fig 4.

A "gem5art run" is a special artifact that stores all the information about
one simulation (a single data point): references to the input artifacts
(gem5 binary, its repository, the run script, the kernel, the disk image),
the parameters handed to the run script, and — once executed — a pointer
to the results plus a summary (status, execution time).

This reproduction's run objects are *executable*, in three steps:
*begin* (cache consult, ``RUNNING``, inputs), *simulate* — a pure
function over :class:`repro.sim.Gem5Simulator` or the GPU device, the
only step that may leave the thread that owns the database — and
*finish* (archive everything).  ``run()`` is the three in a row.

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
        archive the outcome: :meth:`begin`, :func:`simulate_run` and
        :meth:`finish`, all on the calling thread.  Returns the results
        summary also stored in the database.

        With ``use_cache`` (the default) a verified hit in the result
        cache is adopted and **no simulation happens**; a miss executes
        and, if it reaches ``DONE``, is stored for every future
        identical run.  ``use_cache=False`` forces a fresh execution and
        leaves the cache untouched.  With ``checkpoint_store`` (a
        :class:`~repro.art.checkpoints.CheckpointStore`) an fs run
        restores its prefix's archived boot instead of re-simulating
        it; a missing, corrupt or incompatible checkpoint degrades to a
        full boot.  ``resolver`` is the planner's memo of this sweep's
        input artifacts; a bare ``run()`` resolves through its own.

        With telemetry enabled, the ``run`` span parents the simulator's
        phase spans and its subtree is archived next to the stats blob:
        the timeline can be rehydrated from the database alone.
        """
        resolver = resolver or InputResolver()
        attempt = self.begin(use_cache, checkpoint_store, resolver)
        if attempt is None:
            return self.results
        try:
            inputs = resolver.live(self)
            with telemetry.get_tracer().activate(attempt.span):
                outcome = simulate_run(
                    self.kind, self.params, inputs, attempt.restore
                )
        except Exception as error:
            self.fail(attempt, str(error))
            raise
        return self.finish(attempt, outcome)

    def run_in_pool(self, pool) -> Dict[str, object]:
        """:meth:`run` with the middle step shipped to a process pool
        (:mod:`repro.art.procjobs`): :meth:`begin` and :meth:`finish`
        stay on the calling thread, and a worker failure marks the run
        FAILED and re-raises."""
        from repro.art.procjobs import envelope_for_run

        resolver = InputResolver()
        attempt = self.begin(True, None, resolver, substrate="processes")
        if attempt is None:
            return self.results
        try:
            outcome = pool.submit(
                envelope_for_run(self, resolver.wire(self), attempt.restore)
            ).result()
        except Exception as error:
            self.fail(attempt, str(error))
            raise
        return self.finish(attempt, outcome)

    # ---- the skeleton: three steps, the outer two always on the thread
    # ---- that owns the database (the caller's, or the planner's)

    def begin(
        self,
        use_cache: bool,
        checkpoint_store,
        resolver: "InputResolver",
        **attributes,
    ) -> Optional["Attempt"]:
        """Step 1: consult the run cache and adopt on a hit (``None``:
        ``results`` holds the summary, nothing is left to do); else
        write ``RUNNING``, consult the checkpoint store and resolve the
        inputs, and hand back the open :class:`Attempt`.  A failure
        past the ``RUNNING`` write is recorded before it is raised."""
        span = telemetry.get_tracer().span(
            "run",
            attributes={
                "run_id": self.run_id,
                "kind": self.kind,
                "fingerprint": self.fingerprint,
                **attributes,
            },
        )
        entry, running = None, False
        try:
            if use_cache:
                entry = RunCache(self.db).consult(self.fingerprint)
                span.set_attribute("cache", "hit" if entry else "miss")
            if entry is not None:
                self.adopt_cached(entry)
                return None
            self._set_status(
                RunStatus.RUNNING, extra={"started_at_wall": iso_now()}
            )
            running = True
        finally:
            if not running:
                self._close(span)
        attempt = Attempt(span, use_cache)
        try:
            attempt.restore = self._consult_checkpoint(
                checkpoint_store, resolver
            )
            resolver.live(self)
        except Exception as error:
            self.fail(attempt, str(error))
            raise
        if attempt.restore is not None:
            span.set_attribute("boot", "restored")
        return attempt

    def finish(self, attempt: "Attempt", outcome) -> Dict[str, object]:
        """Step 3, given the ``outcome`` :func:`simulate_run` made here
        or in a worker: upload the stats, write ``DONE`` (``TIMED_OUT``
        past the gem5art timeout) and store the cache entry."""
        summary, stats_txt, host_seconds, extras = outcome
        try:
            stats_file_id = self.db.upload_file(
                stats_txt.encode("utf-8"),
                filename=f"stats-{self.run_id}.txt",
            )
        except Exception as error:
            self.fail(attempt, str(error))
            raise
        try:
            summary = dict(
                summary,
                stats_file_id=stats_file_id,
                **extras,
                host_seconds=host_seconds,
            )
            timed_out = host_seconds > self.timeout
            if timed_out:
                summary["timed_out"] = True
            self._set_status(
                RunStatus.TIMED_OUT if timed_out else RunStatus.DONE,
                summary,
                extra={"finished_at_wall": iso_now()},
            )
            if attempt.use_cache and not timed_out:
                # The fields of this run's document a cache entry is
                # made of, as just written — not read back.
                RunCache(self.db).store(
                    self.fingerprint,
                    {
                        "_id": self.run_id,
                        "kind": self.kind,
                        "status": self.status.value,
                        "spec": self.spec.to_document(),
                        "results": summary,
                    },
                )
        finally:
            self._close(attempt.span)
        return summary

    def fail(
        self, attempt: "Attempt", error: str, timed_out: bool = False
    ) -> None:
        """Step 3 for a simulation that raised, was lost with its
        worker, or (``timed_out``) was stopped at its deadline: the
        error is the run's recorded result."""
        try:
            self._set_status(
                RunStatus.TIMED_OUT if timed_out else RunStatus.FAILED,
                {"error": error, **({"timed_out": True} if timed_out else {})},
                extra={"finished_at_wall": iso_now()},
            )
        finally:
            self._close(attempt.span)

    def _close(self, span) -> None:
        """End the detached ``run`` span with what the run came to and
        store its subtree as a blob next to the stats."""
        results = self.results or {}
        span.set_attribute("status", self.status.value)
        span.set_attribute("workload", results.get("workload", ""))
        span.set_attribute("host_seconds", results.get("host_seconds", 0.0))
        span.end()
        telemetry.get_metrics().counter(
            "runs_total", "gem5art runs by final status"
        ).inc(outcome=self.status.value)
        spans = telemetry.get_tracer().subtree(span.span_id)
        if spans:
            telemetry.archive_telemetry(
                self.db, self.run_id, telemetry.snapshot(spans=spans)
            )

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

    def _consult_checkpoint(
        self, store, resolver: "InputResolver"
    ) -> Optional[Checkpoint]:
        """Fetch this run's boot checkpoint, degrading on any doubt:
        the store's ``get`` degrades on missing/corrupt entries, and a
        restore-compatibility mismatch is a miss (full boot) too — a
        stale or hand-edited store must never wedge a sweep.  It runs
        in :meth:`begin`, so every substrate degrades the same way."""
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
        """Boot this run's prefix under :data:`BOOT_CPU` and capture a
        checkpoint (the planner's boot stage).  None when the boot
        itself fails; the cohort then degrades to full boots."""
        if self.kind != "fs":
            return None
        return boot_checkpoint(
            self.params, (resolver or InputResolver()).live(self)
        )

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


@dataclass
class Attempt:
    """What :meth:`Gem5Run.begin` leaves open for the other two steps:
    the detached ``run`` span (``finish``/``fail`` end it), whether a
    ``DONE`` result is cached, and the boot checkpoint to restore."""

    span: Any
    use_cache: bool
    restore: Optional[Checkpoint] = None


# ----------------------------------------------------------------- inputs


class InputResolver:
    """A sweep's input artifacts, each resolved once.

    Artifacts are content-hashed and immutable, so what a run reads
    from one is a pure function of the hash its spec already carries.
    A resolver lives for one planner call (or one bare ``run()``),
    loads each distinct ``(role, content hash)`` at most once however
    many runs (or threads) ask — the blob's SHA-256 is verified on
    that one read — and hands every asker the same object.  A load that
    raises is not remembered: each dependent run fails with its own.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._resolved: Dict[Hashable, Any] = {}

    def live(self, run: Gem5Run) -> Dict[str, object]:
        """What :func:`simulate_run` consumes.

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
# The only code that drives the simulator for a run, and the only part
# of a run that may leave the thread that owns the database: pure
# functions of their arguments.  ``Gem5Run.run`` and a scheduler task
# call them with live inputs; a process-pool worker calls them after
# deserializing its payload (:mod:`repro.art.procjobs`).  All three
# therefore produce the same summary by construction.


def simulate_run(kind: str, params, inputs, restore=None):
    """The middle step of a run: ``(summary, stats_txt, host_seconds,
    extra summary fields)``, what :meth:`Gem5Run.finish` takes.

    ``inputs`` is :meth:`InputResolver.live` (or a worker's rebuild of
    it); the summary has every result field that does not need the
    database.
    """
    started = time.monotonic()
    if kind == "fs":
        simulator = _fs_simulator(params, inputs, params["cpu_type"])
        summary, result = _simulate_fs(simulator, params, inputs, restore)
    elif kind == "gpu":
        summary, result = _simulate_gpu(params)
    else:
        raise ValidationError(f"unknown run kind {kind!r}")
    return summary, result.stats_txt(), time.monotonic() - started, {}


def boot_checkpoint(params, inputs) -> Optional[Checkpoint]:
    """Boot an fs run's platform shape under :data:`BOOT_CPU`; None
    when the boot itself fails."""
    return _fs_simulator(params, inputs, BOOT_CPU).take_boot_checkpoint(
        kernel=inputs["kernel_version"],
        disk_image=inputs["disk_image"],
        boot_type=params.get("boot_type", "systemd"),
    )[0]


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
