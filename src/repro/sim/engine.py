"""The workload execution engine.

Drives a :class:`~repro.sim.workload.phases.Workload` through the event
queue on a configured system: each phase fans out per-CPU completion events,
a barrier collects them, and the next phase starts.  All timing comes from
the CPU model (CPI), the memory-system model (AMAT, bandwidth) and the
modifier set (compiler codegen, kernel scheduler quality) — this is where
every causal chain behind Figs 6–8 is actually computed.
"""

from __future__ import annotations

from repro.common.errors import ValidationError
from repro.common.records import Frozen, Record
from repro.common.statsdb import StatsDB
from repro.common.units import TICKS_PER_SECOND
from repro.sim.config import SystemConfig
from repro.sim.cpu.models import KVM_HOST_RATE, build_cpu_model
from repro.sim.events import EventQueue
from repro.sim.mem.hierarchy import MemoryTimings, build_memory_system
from repro.sim.workload.phases import Phase, Workload
from repro.telemetry import get_metrics

#: Cycles for one synchronization event on one core, before contention.
_SYNC_BASE_CYCLES = 40.0
#: Additional contention cost per extra participating core.
_SYNC_CONTENTION = 0.5
#: Cache-line size used for DRAM bandwidth accounting.
_LINE_BYTES = 64


class ExecutionModifiers(Frozen):
    """Cross-stack knobs that scale the timing model.

    These carry the guest-stack properties into the engine: the compiler
    that built the binary (instruction count and memory-stall scaling) and
    the kernel managing the run (thread placement quality, syscall cost).
    """

    _fields = (
        "instruction_scale", "memory_stall_scale", "scheduler_efficiency",
        "syscall_cost_scale",
    )

    def __init__(
        self, instruction_scale: float = 1.0, memory_stall_scale: float = 1.0,
        scheduler_efficiency: float = 0.90, syscall_cost_scale: float = 1.0,
    ):
        if instruction_scale <= 0 or memory_stall_scale <= 0:
            raise ValidationError("scales must be positive")
        if not 0.0 < scheduler_efficiency <= 1.0:
            raise ValidationError(
                "scheduler_efficiency must be in (0, 1]"
            )
        vars(self).update(
            instruction_scale=instruction_scale,
            memory_stall_scale=memory_stall_scale,
            scheduler_efficiency=scheduler_efficiency,
            syscall_cost_scale=syscall_cost_scale,
        )


class ExecutionOutcome(Record):
    """Aggregate result of executing one workload."""

    _fields = ("ticks", "instructions", "busy_cycles", "total_cycles")

    def __init__(
        self, ticks: int, instructions: int, busy_cycles: float,
        total_cycles: float,
    ):
        vars(self).update(
            ticks=ticks, instructions=instructions, busy_cycles=busy_cycles,
            total_cycles=total_cycles,
        )

    @property
    def sim_seconds(self) -> float:
        return self.ticks / TICKS_PER_SECOND

    @property
    def utilization(self) -> float:
        """Mean fraction of CPU cycles doing work (vs stalled/imbalanced)."""
        if self.total_cycles == 0:
            return 0.0
        return min(1.0, self.busy_cycles / self.total_cycles)


class ExecutionEngine:
    """Executes workloads on one configured system via an event queue."""

    def __init__(
        self,
        config: SystemConfig,
        modifiers: ExecutionModifiers = None,
        queue: EventQueue = None,
    ):
        self.config = config
        self.modifiers = modifiers or ExecutionModifiers()
        self.queue = queue or EventQueue()
        self.stats = StatsDB()
        self.cpu = build_cpu_model(config.cpu_type)
        self.memory = build_memory_system(config)

    # ----------------------------------------------------------- execution

    def execute(self, workload: Workload) -> ExecutionOutcome:
        """Run every phase of the workload to completion."""
        start_tick = self.queue.now
        start_events = self.queue.executed_events
        total_instructions = 0
        busy_cycles = 0.0
        total_cycles = 0.0
        names = (f"{workload.name}.phase_ticks",
                 f"{workload.name}.phase_insts")
        for phase in workload.phases:
            if phase.instructions == 0:
                continue
            duration_ticks, stats = self._phase_timing(phase)
            self._run_phase_events(phase, duration_ticks)
            total_instructions += stats["instructions"]
            busy_cycles += stats["busy_cycles"]
            total_cycles += stats["total_cycles"]
            self._record_phase(names, phase, duration_ticks, stats)
        if self.stats.get("system.l1d.accesses", default=0.0) > 0:
            self.stats.set(
                "system.l1d.miss_rate",
                self.stats.ratio("system.l1d.misses", "system.l1d.accesses"),
            )
        ticks = self.queue.now - start_tick
        self._record_workload(workload, ticks, total_instructions)
        self._record_cpi_stack(total_instructions, busy_cycles,
                               total_cycles)
        self._record_telemetry(workload, start_events)
        return ExecutionOutcome(
            ticks=ticks,
            instructions=total_instructions,
            busy_cycles=busy_cycles,
            total_cycles=total_cycles,
        )

    def _record_telemetry(self, workload, start_events: int) -> None:
        """Surface engine activity to the (no-op by default) telemetry
        layer.  Strictly read-only with respect to simulated state: the
        same stats and sim_seconds come out with telemetry on or off."""
        metrics = get_metrics()
        metrics.counter(
            "engine_events_processed_total",
            "Discrete events executed by the event queue",
        ).inc(self.queue.executed_events - start_events)
        metrics.counter(
            "engine_workloads_total", "Workloads executed"
        ).inc(cpu=self.config.cpu_type)
        accesses = self.stats.get("system.l1d.accesses", default=0.0)
        if accesses > 0:
            metrics.gauge(
                "sim_l1d_miss_rate",
                "L1D miss rate of the most recent workload",
            ).set(
                self.stats.ratio("system.l1d.misses",
                                 "system.l1d.accesses")
            )
            metrics.gauge(
                "sim_dram_access_ratio",
                "DRAM accesses per L1D access, most recent workload",
            ).set(
                self.stats.ratio("system.mem_ctrl.accesses",
                                 "system.l1d.accesses")
            )

    def _record_cpi_stack(self, instructions, busy, total) -> None:
        """CPI breakdown: base (issue) vs everything else (memory stalls,
        sync, imbalance) — the first question anyone asks of a run."""
        if instructions <= 0 or not self.cpu.models_timing:
            return
        cpi_total = total / instructions
        cpi_base = busy / instructions
        self.stats.set("system.cpu.cpi", cpi_total)
        self.stats.set("system.cpu.cpi_base", cpi_base)
        self.stats.set(
            "system.cpu.cpi_stall", max(0.0, cpi_total - cpi_base)
        )

    def _run_phase_events(self, phase: Phase, duration_ticks: int) -> None:
        """Fan out one completion event per participating CPU, then
        barrier; the event queue advances ``now`` to the phase end."""
        cpus = self._phase_cpus(phase)
        remaining = {"count": cpus}

        def cpu_done():
            remaining["count"] -= 1

        for _cpu_index in range(cpus):
            self.queue.schedule(duration_ticks, cpu_done)
        self.queue.run()
        if remaining["count"] != 0:
            raise ValidationError("phase barrier failed to drain")

    # -------------------------------------------------------------- timing

    def _phase_cpus(self, phase: Phase) -> int:
        return max(1, min(self.config.num_cpus, phase.parallelism))

    def _phase_timing(self, phase: Phase):
        """Compute the phase's duration in ticks plus accounting detail."""
        mods = self.modifiers
        instructions = phase.instructions * mods.instruction_scale
        cpus = self._phase_cpus(phase)
        per_cpu_instructions = instructions / cpus

        if not self.cpu.models_timing:
            # kvm: guest executes at an assumed host rate; microarchitecture
            # is not modelled (serial execution of the instruction stream).
            seconds = instructions / KVM_HOST_RATE
            ticks = int(seconds * TICKS_PER_SECOND)
            return max(1, ticks), {
                "instructions": int(instructions),
                "busy_cycles": 0.0,
                "total_cycles": 0.0,
                "l1_miss_ratio": 0.0,
            }

        timings = self.memory.phase_timings(
            working_set_bytes=phase.working_set_bytes,
            locality=phase.locality,
            shared_fraction=phase.shared_fraction,
            write_fraction=phase.write_fraction,
            num_cpus=cpus,
        )
        timings = _scale_stalls(timings, mods.memory_stall_scale)
        prefetch_traffic = 1.0
        if self.config.prefetcher:
            timings, prefetch_traffic = _apply_prefetcher(
                timings,
                regularity=phase.access_regularity,
                effectiveness=self.config.prefetcher_effectiveness,
                stall_scale=mods.memory_stall_scale,
            )

        accesses_per_instruction = phase.mem_accesses_per_kinst / 1000.0
        cpi = self.cpu.cycles_per_instruction(
            accesses_per_instruction, timings
        )
        compute_cycles = per_cpu_instructions * cpi

        sync_events = phase.sync_per_kinst * per_cpu_instructions / 1000.0
        sync_cycles = (
            sync_events
            * _SYNC_BASE_CYCLES
            * (1.0 + _SYNC_CONTENTION * (cpus - 1))
            * mods.syscall_cost_scale
        )

        imbalance = 1.0
        if cpus > 1:
            imbalance += (
                (1.0 - mods.scheduler_efficiency)
                * (cpus - 1)
                * phase.imbalance_sensitivity
            )

        cycles = (compute_cycles + sync_cycles) * imbalance
        ticks = int(cycles * self.config.clock_period_ticks)

        # DRAM bandwidth ceiling: a phase cannot finish faster than its
        # DRAM traffic can be moved.  (A latency-queueing model was
        # evaluated and rejected: with this abstraction level's traffic
        # estimates it over-penalizes the multi-core PARSEC points the
        # paper's Fig 7 calibrates against; the ceiling captures the
        # first-order saturation effect, e.g. SPECrate's memory-bound
        # plateau.)
        dram_bytes = (
            instructions
            * accesses_per_instruction
            * timings.dram_access_ratio
            * _LINE_BYTES
            * prefetch_traffic
        )
        bandwidth = self.memory.bandwidth_bytes_per_second()
        min_seconds = dram_bytes / bandwidth if bandwidth > 0 else 0.0
        ticks = max(ticks, int(min_seconds * TICKS_PER_SECOND))

        busy = per_cpu_instructions * self.cpu.base_cpi * cpus
        total = cycles * cpus
        accesses = instructions * accesses_per_instruction
        return max(1, ticks), {
            "instructions": int(instructions),
            "busy_cycles": busy,
            "total_cycles": total,
            "l1_miss_ratio": timings.l1_miss_ratio,
            "mem_accesses": accesses,
            "l1_misses": accesses * timings.l1_miss_ratio,
            "dram_accesses": accesses * timings.dram_access_ratio,
            "dram_bytes": dram_bytes,
        }

    # --------------------------------------------------------------- stats

    def _record_phase(self, names, phase, ticks, detail) -> None:
        """``names``: the workload's phase-ticks and phase-insts vector
        names, formatted once per workload."""
        ticks_name, insts_name = names
        self.stats.vec_inc(ticks_name, phase.name, ticks)
        self.stats.vec_inc(insts_name, phase.name, detail["instructions"])
        # Memory-hierarchy counters (gem5's cache/memctrl stats).
        self.stats.inc(
            "system.l1d.accesses", detail.get("mem_accesses", 0.0)
        )
        self.stats.inc("system.l1d.misses", detail.get("l1_misses", 0.0))
        self.stats.inc(
            "system.mem_ctrl.accesses", detail.get("dram_accesses", 0.0)
        )
        self.stats.inc(
            "system.mem_ctrl.bytes_read", detail.get("dram_bytes", 0.0)
        )

    def _record_workload(self, workload, ticks, instructions) -> None:
        self.stats.inc("sim_ticks", ticks)
        self.stats.set(
            "sim_seconds", self.stats.get("sim_ticks") / TICKS_PER_SECOND
        )
        self.stats.inc("sim_insts", instructions)
        per_cpu = instructions // max(1, self.config.num_cpus)
        for index in range(self.config.num_cpus):
            self.stats.inc(f"system.cpu{index}.committedInsts", per_cpu)


#: Extra (useless) DRAM traffic a stride prefetcher generates per unit of
#: regular traffic it prefetches.
_PREFETCH_OVERFETCH = 0.15


def _apply_prefetcher(
    timings: MemoryTimings,
    regularity: float,
    effectiveness: float,
    stall_scale: float,
):
    """Hide the predictable slice of DRAM stall time, at the cost of
    extra bandwidth (over-fetch).  Returns (new timings, traffic factor).

    A stride prefetcher only helps regular streams: the hidden stall is
    ``effectiveness x regularity`` of the DRAM component; pointer chasing
    (regularity 0) gains nothing but still pays no over-fetch.
    """
    hidden = (
        timings.dram_stall_cycles
        * stall_scale
        * effectiveness
        * regularity
    )
    if hidden <= 0:
        return timings, 1.0
    new_amat = max(1.0, timings.amat_cycles - hidden)
    traffic = 1.0 + _PREFETCH_OVERFETCH * regularity
    return (
        MemoryTimings(
            amat_cycles=new_amat,
            dram_access_ratio=timings.dram_access_ratio,
            l1_miss_ratio=timings.l1_miss_ratio,
            dram_stall_cycles=timings.dram_stall_cycles * (
                1.0 - effectiveness * regularity
            ),
        ),
        traffic,
    )


def _scale_stalls(timings: MemoryTimings, scale: float) -> MemoryTimings:
    """Scale the stall component (AMAT beyond the one-cycle hit)."""
    if scale == 1.0:
        return timings
    stall = max(0.0, timings.amat_cycles - 1.0) * scale
    return MemoryTimings(
        amat_cycles=1.0 + stall,
        dram_access_ratio=timings.dram_access_ratio,
        l1_miss_ratio=timings.l1_miss_ratio,
        dram_stall_cycles=timings.dram_stall_cycles,
    )
