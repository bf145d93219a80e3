"""The GPU device timing model.

Executes one kernel under one register-allocation policy and returns the
time in *shader ticks* (GPU cycles), the unit Fig 9 reports.

The model per SIMD16 pipe:

- Wavefronts are distributed round-robin over ``num_cus × simds_per_cu``
  pipes; the allocator bounds how many are *resident* per pipe at once.
- Issuing one wavefront instruction occupies the pipe for 4 cycles (64
  work-items over a 16-lane SIMD), inflated by the dependence-tracking
  penalty for every extra resident wavefront — the GCN3 model's simplistic
  scoreboard re-checks every resident wave.
- A wavefront alone on a pipe exposes ``memory_intensity ×
  dependency_density × memory_latency`` stall cycles per instruction;
  resident peers hide that latency, but the hiding is capped by the memory
  pipe's outstanding-miss capacity (an MSHR-style limit), so occupancy
  beyond a couple of waves buys nothing for memory-bound code.
- Critical-section synchronization serializes globally (or per-CU for the
  "Uniq" HeteroSync variants); the cost of one entry grows with the number
  of concurrently contending wavefronts, so higher occupancy makes
  contention strictly worse.

These are exactly the paper's stated mechanisms for the Fig 9 surprise.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.common.errors import ValidationError
from repro.common.records import Record
from repro.gpu.config import GPUConfig
from repro.gpu.kernels import GPUKernel
from repro.gpu.regalloc import build_register_allocator
from repro.common.statsdb import render_stats

#: Cycles to issue one 64-lane wavefront instruction on a SIMD16.
_ISSUE_CYCLES = 4.0
#: MSHR-style cap: resident waves beyond this no longer add memory-level
#: parallelism on one SIMD's memory path.
_MEMORY_HIDING_CAP = 1
#: Cycles of launch overhead per workgroup dispatch (per CU dispatcher).
_DISPATCH_CYCLES = 64.0


class GPURunResult(Record):
    """Outcome of one kernel execution."""

    _fields = (
        "kernel_name", "allocator", "shader_ticks", "compute_ticks",
        "sync_ticks", "dispatch_ticks", "occupancy_per_simd", "stats",
    )

    def __init__(
        self, kernel_name: str, allocator: str, shader_ticks: float,
        compute_ticks: float, sync_ticks: float, dispatch_ticks: float,
        occupancy_per_simd: int, stats: Dict[str, float],
    ):
        vars(self).update(
            kernel_name=kernel_name, allocator=allocator,
            shader_ticks=shader_ticks, compute_ticks=compute_ticks,
            sync_ticks=sync_ticks, dispatch_ticks=dispatch_ticks,
            occupancy_per_simd=occupancy_per_simd, stats=stats,
        )

    @property
    def sim_seconds(self) -> float:
        return self.shader_ticks  # 1 GHz reference; ticks == ns

    def describe(self) -> str:
        return (
            f"{self.kernel_name} [{self.allocator}]: "
            f"{self.shader_ticks:.0f} shader ticks "
            f"(occupancy {self.occupancy_per_simd} wf/SIMD)"
        )

    def stats_txt(self) -> str:
        """Render the run's statistics in gem5 stats.txt form."""
        return render_stats(self.stats)


class GPUDevice:
    """A configured GPU that can execute kernels under either allocator."""

    def __init__(self, config: GPUConfig = None):
        self.config = config or GPUConfig()

    def execute(
        self, kernel: GPUKernel, allocator: str = "simple"
    ) -> GPURunResult:
        """Run one kernel to completion; returns timing and occupancy."""
        policy = build_register_allocator(allocator, self.config)
        slots = policy.wavefront_slots_per_simd(kernel)

        pipes = self.config.total_simds
        waves_per_pipe = math.ceil(kernel.total_wavefronts / pipes)
        resident = max(1, min(slots, waves_per_pipe))

        compute = self._pipe_time(kernel, waves_per_pipe, resident)
        sync = self._sync_time(kernel, resident)
        dispatch = (
            _DISPATCH_CYCLES
            * kernel.num_workgroups
            / self.config.num_cus
        )
        total = compute + sync + dispatch
        stats = {
            "shader_ticks": total,
            "compute_ticks": compute,
            "sync_ticks": sync,
            "dispatch_ticks": dispatch,
            "occupancy_per_simd": resident,
            "total_wavefronts": kernel.total_wavefronts,
            "instructions": kernel.total_instructions,
            "vregs_per_wavefront": kernel.vregs_per_wavefront,
            "issue_cycles_per_inst": (
                self._issue_cycles_per_instruction(resident)
            ),
            "cu_wavefronts": self._wavefronts_per_cu(kernel),
        }
        return GPURunResult(
            kernel_name=kernel.name,
            allocator=allocator,
            shader_ticks=total,
            compute_ticks=compute,
            sync_ticks=sync,
            dispatch_ticks=dispatch,
            occupancy_per_simd=resident,
            stats=stats,
        )

    # ------------------------------------------------------------- pieces

    def _wavefronts_per_cu(self, kernel: GPUKernel) -> Dict[str, float]:
        """Round-robin workgroup dispatch: wavefront count per CU.  Each
        CU takes every ``num_cus``-th workgroup, so the first ``extra``
        CUs take one more than the rest."""
        rounds, extra = divmod(kernel.num_workgroups, self.config.num_cus)
        return {
            f"cu{i}": float(
                (rounds + (i < extra)) * kernel.wavefronts_per_workgroup
            )
            for i in range(self.config.num_cus)
        }

    def _issue_cycles_per_instruction(self, resident: int) -> float:
        """Issue cost including the dependence-tracking inflation."""
        penalty = self.config.dependence_tracking_penalty
        return _ISSUE_CYCLES * (1.0 + penalty * (resident - 1))

    def _pipe_time(
        self, kernel: GPUKernel, waves_per_pipe: int, resident: int
    ) -> float:
        issue = self._issue_cycles_per_instruction(resident)
        work_per_wave = kernel.instructions_per_wavefront * issue
        stall_per_wave = (
            kernel.instructions_per_wavefront
            * kernel.memory_intensity
            * kernel.dependency_density
            * self.config.memory_latency_cycles
        )
        duty = work_per_wave / (work_per_wave + stall_per_wave)
        hiding_waves = min(resident, 1 + _MEMORY_HIDING_CAP)
        utilization = min(1.0, hiding_waves * duty)
        if utilization <= 0:
            raise ValidationError("pipe utilization collapsed to zero")
        return waves_per_pipe * work_per_wave / utilization

    def _sync_time(self, kernel: GPUKernel, resident: int) -> float:
        if kernel.sync_ops_per_wavefront == 0:
            return 0.0
        resident_device_wide = min(
            kernel.total_wavefronts,
            resident * self.config.total_simds,
        )
        per_scope = self._sync_scope_size(kernel, resident_device_wide)
        contention = 1.0 + self._contention_coefficient(kernel) * (
            per_scope - 1
        )
        entries = (
            kernel.total_wavefronts * kernel.sync_ops_per_wavefront
        )
        serial_scopes = self._sync_scopes(kernel)
        return (
            entries
            * kernel.critical_section_cycles
            * contention
            / serial_scopes
        )

    @staticmethod
    def _contention_coefficient(kernel: GPUKernel) -> float:
        return kernel.contention_coefficient

    def _sync_scope_size(self, kernel, resident_device_wide) -> int:
        scopes = self._sync_scopes(kernel)
        return max(1, resident_device_wide // scopes)

    def _sync_scopes(self, kernel: GPUKernel) -> int:
        # "Uniq" HeteroSync variants use one lock per CU rather than one
        # global lock: contention splits across CUs.
        if kernel.per_cu_sync:
            return self.config.num_cus
        return 1
