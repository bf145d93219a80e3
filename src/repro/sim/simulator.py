"""The simulator front end: gem5's command-line contract as an object.

:class:`Gem5Simulator` is what a gem5art run ultimately invokes — the
equivalent of ``gem5.opt run_script.py <params>``.  It ties together the
build (version + static configuration), the system configuration, the fault
model, the boot sequencer and the workload engine, and returns a
:class:`SimulationResult` carrying the status, statistics and provenance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.common.errors import NotFoundError, ValidationError
from repro.common.statsdb import StatsDB
from repro.guest.compilers import get_compiler
from repro.guest.kernels import LinuxKernel, get_kernel
from repro.sim.buildinfo import Gem5Build
from repro.sim.checkpoint import Checkpoint
from repro.sim.config import SystemConfig
from repro.sim.engine import ExecutionEngine, ExecutionModifiers
from repro.sim.events import EventQueue
from repro.sim.faults import FaultClass, check_run
from repro.sim.m5ops import (
    M5_CHECKPOINT,
    M5_DUMPSTATS,
    M5_EXIT,
    M5_RESETSTATS,
    M5OpLog,
)
from repro.sim.workload.boot import boot_workload
from repro.sim.workload.phases import Workload
from repro.telemetry import get_metrics, get_tracer
from repro.vfs.image import DiskImage


class SimulationStatus(enum.Enum):
    """Terminal status of one simulation, in Fig 8's vocabulary."""

    OK = "ok"
    UNSUPPORTED = "unsupported"
    KERNEL_PANIC = "kernel_panic"
    GEM5_SEGFAULT = "gem5_segfault"
    DEADLOCK = "deadlock"
    TIMEOUT = "timeout"
    WORKLOAD_ABORT = "workload_abort"


_FAULT_TO_STATUS = {
    FaultClass.OK: SimulationStatus.OK,
    FaultClass.UNSUPPORTED: SimulationStatus.UNSUPPORTED,
    FaultClass.KERNEL_PANIC: SimulationStatus.KERNEL_PANIC,
    FaultClass.SEGFAULT: SimulationStatus.GEM5_SEGFAULT,
    FaultClass.DEADLOCK: SimulationStatus.DEADLOCK,
    FaultClass.TIMEOUT: SimulationStatus.TIMEOUT,
}

#: Fraction of the boot completed before each failure class manifests
#: (used to report partial statistics the way a real crashed run would).
_FAILURE_PROGRESS = {
    SimulationStatus.KERNEL_PANIC: 0.60,
    SimulationStatus.GEM5_SEGFAULT: 0.45,
    SimulationStatus.DEADLOCK: 0.80,
    SimulationStatus.TIMEOUT: 0.35,
}


@dataclass
class SimulationResult:
    """Everything one gem5 invocation produces."""

    status: SimulationStatus
    reason: str = ""
    stats: Dict[str, float] = field(default_factory=dict)
    sim_seconds: float = 0.0
    boot_seconds: float = 0.0
    workload_seconds: float = 0.0
    instructions: int = 0
    config_summary: str = ""
    workload_name: str = ""
    m5ops: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status is SimulationStatus.OK

    def stats_txt(self) -> str:
        """Re-render the statistics in gem5 stats.txt form."""
        db = StatsDB()
        for name, value in self.stats.items():
            db.set(name, value)
        return db.dump()


class Gem5Simulator:
    """One built simulator binary plus one system configuration."""

    def __init__(self, build: Gem5Build, config: SystemConfig):
        self.build = build
        self.config = config

    # ------------------------------------------------------------ full-system

    def run_fs(
        self,
        kernel,
        disk_image: DiskImage,
        benchmark: Optional[str] = None,
        input_size: Optional[str] = None,
        boot_type: str = "systemd",
        restore_from: Optional[Checkpoint] = None,
    ) -> SimulationResult:
        """Run a full-system simulation.

        ``kernel`` may be a :class:`LinuxKernel` or a version string.  The
        boot sequence and, optionally, one benchmark from the disk image
        are executed.  The fault model is consulted first, reproducing the
        simulator release's support matrix and failure modes.

        Pass ``restore_from`` (a :class:`Checkpoint` taken by
        :meth:`take_boot_checkpoint`) to skip the boot: the checkpoint's
        recorded boot time is reported, the workload runs on this
        configuration's CPU model — the hack-back workflow.
        """
        kernel = self._resolve_kernel(kernel)
        verdict = check_run(
            self.build.version, self.config, kernel.version, boot_type
        )
        get_metrics().counter(
            "sim_fault_verdicts_total",
            "Fault-model classifications before simulation",
        ).inc(fault=verdict.fault.value)
        if not verdict.ok:
            return self._failed_result(kernel, boot_type, verdict)

        engine = self._make_engine(kernel, disk_image)
        if restore_from is not None:
            restore_from.check_compatible(
                kernel_version=kernel.version,
                disk_image_hash=disk_image.content_hash(),
                num_cpus=self.config.num_cpus,
                memory_system=self.config.memory_system,
            )
            boot_outcome = _RestoredBoot(
                sim_seconds=restore_from.boot_seconds,
                instructions=restore_from.boot_instructions,
            )
            workload_name = (
                f"restore.{restore_from.checkpoint_id[:8]}"
            )
        else:
            boot = boot_workload(
                kernel,
                boot_type=boot_type,
                init_instructions=disk_image.metadata.get(
                    "init_instructions", 250_000_000
                ),
            )
            with get_tracer().span(
                "phase.boot",
                attributes={
                    "kernel": kernel.version,
                    "boot_type": boot_type,
                },
            ) as span:
                boot_outcome = engine.execute(boot)
                span.set_attribute(
                    "sim_seconds", boot_outcome.sim_seconds
                )
                span.set_attribute(
                    "instructions", boot_outcome.instructions
                )
            workload_name = boot.name

        workload_outcome = None
        workload = None
        if benchmark is not None:
            workload = self._benchmark_workload(
                disk_image, benchmark, input_size
            )
            if isinstance(workload, SimulationResult):
                return workload  # benchmark itself is broken
            workload_name = workload.name
            with get_tracer().span(
                "phase.benchmark",
                attributes={"benchmark": workload.name},
            ) as span:
                workload_outcome = engine.execute(workload)
                span.set_attribute(
                    "sim_seconds", workload_outcome.sim_seconds
                )
                span.set_attribute(
                    "instructions", workload_outcome.instructions
                )

        op_log = self._fire_m5ops(
            engine, disk_image, workload, workload_outcome, restore_from
        )
        return self._ok_result(
            engine, boot_outcome, workload_outcome, workload_name, op_log
        )

    def take_boot_checkpoint(
        self,
        kernel,
        disk_image: DiskImage,
        boot_type: str = "systemd",
    ):
        """Boot the system and capture a checkpoint (``m5 checkpoint``).

        Returns ``(checkpoint, result)``; fails the same way a plain boot
        of this configuration would.  The usual pattern boots under a
        cheap CPU (kvm/atomic) and restores under a detailed one.
        """
        kernel = self._resolve_kernel(kernel)
        result = self.run_fs(kernel, disk_image, boot_type=boot_type)
        if not result.ok:
            return None, result
        checkpoint = Checkpoint(
            kernel_version=kernel.version,
            boot_type=boot_type,
            disk_image_hash=disk_image.content_hash(),
            num_cpus=self.config.num_cpus,
            memory_system=self.config.memory_system,
            boot_seconds=result.boot_seconds,
            boot_instructions=result.instructions,
        )
        return checkpoint, result

    # --------------------------------------------------------- syscall mode

    def run_se(self, workload: Workload) -> SimulationResult:
        """Syscall-emulation mode: run a workload with no OS boot."""
        engine = ExecutionEngine(self.config)
        outcome = engine.execute(workload)
        engine.stats.set("cpu_utilization", outcome.utilization)
        return SimulationResult(
            status=SimulationStatus.OK,
            stats=engine.stats.to_dict(),
            sim_seconds=outcome.sim_seconds,
            workload_seconds=outcome.sim_seconds,
            instructions=outcome.instructions,
            config_summary=self.config.describe(),
            workload_name=workload.name,
        )

    def run_se_rate(
        self, workload: Workload, copies: int = None
    ) -> SimulationResult:
        """SPEC-rate-style throughput run: N independent copies of a
        single-threaded workload, one per core.

        Copies do not share work — each core executes the whole workload
        — so the interesting output is *throughput* (copies per second of
        simulated time, reported as the ``rate`` statistic).  Memory-bound
        workloads stop scaling when the copies saturate DRAM bandwidth;
        cache-resident ones scale linearly.
        """
        if copies is None:
            copies = self.config.num_cpus
        if copies < 1:
            raise ValidationError("need at least one copy")
        if copies > self.config.num_cpus:
            raise ValidationError(
                f"{copies} copies need {copies} cores; system has "
                f"{self.config.num_cpus}"
            )
        from dataclasses import replace

        rate_workload = Workload(
            name=f"{workload.name}.rate{copies}",
            phases=tuple(
                replace(
                    phase,
                    instructions=phase.instructions * copies,
                    parallelism=copies,
                    # Copies are independent processes: no sharing.
                    shared_fraction=0.0,
                    sync_per_kinst=0.0,
                )
                for phase in workload.phases
            ),
        )
        result = self.run_se(rate_workload)
        if result.sim_seconds > 0:
            rate = copies / result.sim_seconds
            result.stats["rate"] = rate
            result.stats["copies"] = float(copies)
        return result

    # ------------------------------------------------------------- helpers

    @staticmethod
    def _resolve_kernel(kernel) -> LinuxKernel:
        if isinstance(kernel, LinuxKernel):
            return kernel
        return get_kernel(str(kernel))

    def _make_engine(self, kernel: LinuxKernel, disk_image: DiskImage):
        from repro.sim.buildinfo import timing_profile

        compiler_key = disk_image.metadata.get("compiler", "gcc-7.4")
        compiler = get_compiler(compiler_key)
        release = timing_profile(self.build.version)
        modifiers = ExecutionModifiers(
            instruction_scale=compiler.instruction_scale,
            memory_stall_scale=(
                compiler.memory_cpi_scale
                * release["memory_stall_scale"]
            ),
            scheduler_efficiency=kernel.scheduler_efficiency,
            syscall_cost_scale=kernel.syscall_cost_scale,
        )
        return ExecutionEngine(
            self.config, modifiers=modifiers, queue=EventQueue()
        )

    def _benchmark_workload(
        self, disk_image: DiskImage, benchmark: str, input_size: str
    ):
        from repro.sim.workload.registry import (
            DEFAULT_INPUTS,
            broken_reason,
            get_workload,
            installed_benchmarks,
        )

        built = installed_benchmarks(disk_image.metadata)
        if benchmark not in built:
            raise NotFoundError(
                f"benchmark {benchmark!r} is not installed on disk image "
                f"{disk_image.name!r} (built: {sorted(built)})"
            )
        suite = built[benchmark]
        size = input_size or DEFAULT_INPUTS.get(suite, "default")
        reason = broken_reason(suite, benchmark)
        if reason is not None:
            return SimulationResult(
                status=SimulationStatus.WORKLOAD_ABORT,
                reason=f"{benchmark}: {reason}",
                config_summary=self.config.describe(),
                workload_name=f"{suite}.{benchmark}.{size}",
            )
        return get_workload(suite, benchmark, size)

    def _failed_result(self, kernel, boot_type, verdict) -> SimulationResult:
        status = _FAULT_TO_STATUS[verdict.fault]
        result = SimulationResult(
            status=status,
            reason=verdict.reason,
            config_summary=self.config.describe(),
            workload_name=f"boot.linux-{kernel.version}.{boot_type}",
        )
        progress = _FAILURE_PROGRESS.get(status)
        if progress is not None:
            # Crashed runs still emit partial statistics: simulate the
            # fraction of the boot that completed before the failure.
            engine = ExecutionEngine(self.config)
            boot = boot_workload(kernel, boot_type=boot_type)
            partial = Workload(
                name=boot.name + ".partial",
                phases=tuple(
                    _scale_phase(phase, progress) for phase in boot.phases
                ),
            )
            outcome = engine.execute(partial)
            result.stats = engine.stats.to_dict()
            result.sim_seconds = outcome.sim_seconds
            result.boot_seconds = outcome.sim_seconds
            result.instructions = outcome.instructions
        return result

    #: Phase names that constitute a workload's region of interest —
    #: where the gem5-resources run scripts place resetstats/dumpstats.
    _ROI_PHASES = ("roi", "iterations", "kernel", "main")

    def _fire_m5ops(
        self, engine, disk_image, workload, workload_outcome, restore_from
    ) -> M5OpLog:
        """Reconstruct the m5 pseudo-op sequence the guest fired."""
        log = M5OpLog()
        end_tick = engine.queue.now
        if restore_from is not None:
            log.fire(0, M5_CHECKPOINT)  # the restore point itself
        if workload is not None and workload_outcome is not None:
            ticks_by_phase = engine.stats.vec_get(
                f"{workload.name}.phase_ticks"
            )
            start = end_tick - workload_outcome.ticks
            cursor = start
            for phase in workload.phases:
                duration = int(ticks_by_phase.get(phase.name, 0))
                if phase.name in self._ROI_PHASES:
                    log.fire(cursor, M5_RESETSTATS)
                    log.fire(cursor + duration, M5_DUMPSTATS)
                cursor += duration
            log.fire(end_tick, M5_EXIT)
        elif disk_image.exists("/home/gem5/exit.sh"):
            # boot-exit images terminate the simulation after boot.
            log.fire(end_tick, M5_EXIT)
        return log

    def _ok_result(
        self,
        engine,
        boot_outcome,
        workload_outcome,
        workload_name,
        op_log: Optional[M5OpLog] = None,
    ) -> SimulationResult:
        boot_seconds = boot_outcome.sim_seconds
        workload_seconds = (
            workload_outcome.sim_seconds if workload_outcome else 0.0
        )
        instructions = boot_outcome.instructions + (
            workload_outcome.instructions if workload_outcome else 0
        )
        utilization = (
            workload_outcome.utilization
            if workload_outcome
            else boot_outcome.utilization
        )
        engine.stats.set("cpu_utilization", utilization)
        engine.stats.set("boot_seconds", boot_seconds)
        engine.stats.set("workload_seconds", workload_seconds)
        m5ops = []
        if op_log is not None:
            m5ops = op_log.to_list()
            roi = op_log.roi_seconds()
            if roi is not None:
                engine.stats.set("roi_seconds", roi)
        return SimulationResult(
            status=SimulationStatus.OK,
            stats=engine.stats.to_dict(),
            sim_seconds=boot_seconds + workload_seconds,
            boot_seconds=boot_seconds,
            workload_seconds=workload_seconds,
            instructions=instructions,
            config_summary=self.config.describe(),
            workload_name=workload_name,
            m5ops=m5ops,
        )


class _RestoredBoot:
    """Boot accounting for a checkpoint-restored run (no re-simulation)."""

    def __init__(self, sim_seconds: float, instructions: int):
        self.sim_seconds = sim_seconds
        self.instructions = instructions
        self.utilization = 0.0


def _scale_phase(phase, fraction: float):
    from dataclasses import replace

    if not 0.0 < fraction <= 1.0:
        raise ValidationError("fraction must be in (0, 1]")
    return replace(
        phase, instructions=int(phase.instructions * fraction)
    )
