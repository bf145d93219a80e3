"""The four CPU models of the paper's Fig 8 caption:

- **kvmCPU** — "simulates code using hosts' hardware": no timing model at
  all; the guest executes at an assumed host rate and microarchitectural
  statistics are meaningless.
- **AtomicSimpleCPU** — "uses atomic memory accesses and no timing
  simulation": one instruction per cycle, memory latency invisible.
- **TimingSimpleCPU** — "uses timing simulation only for memory accesses":
  in-order, one instruction per cycle, but every memory access pays full
  AMAT (no overlap).
- **O3CPU** — "an out-of-order CPU, uses timing for both CPU and memory":
  superscalar base CPI with substantial memory-latency overlap.

Each model converts a phase's per-instruction profile into cycles per
instruction; the execution engine multiplies by instruction counts and the
clock to get ticks.
"""

from __future__ import annotations

from repro.common.errors import ValidationError
from repro.common.records import Frozen
from repro.sim.mem.hierarchy import MemoryTimings

#: Assumed host execution rate for the KVM CPU (instructions/second).
#: KVM executes guest code natively on a superscalar host core, so the
#: effective rate is several instructions per host cycle.
KVM_HOST_RATE = 8.0e9


class CpuModel(Frozen):
    """A CPU timing model as (base CPI, memory exposure) coefficients.

    ``memory_exposure`` is the fraction of AMAT that actually stalls the
    pipeline: 1.0 for a blocking in-order CPU, < 1 for an out-of-order core
    that overlaps misses, 0 for models that do not time memory at all.
    """

    _fields = ("name", "base_cpi", "memory_exposure", "models_timing")

    def __init__(
        self, name: str, base_cpi: float, memory_exposure: float,
        models_timing: bool = True,  # are its microarchitectural stats real?
    ):
        vars(self).update(
            name=name, base_cpi=base_cpi, memory_exposure=memory_exposure,
            models_timing=models_timing,
        )

    def cycles_per_instruction(
        self,
        accesses_per_instruction: float,
        timings: MemoryTimings,
    ) -> float:
        """Effective CPI for a phase with the given memory behaviour."""
        if accesses_per_instruction < 0:
            raise ValidationError("accesses/instruction must be >= 0")
        # The L1 hit latency is part of base CPI (pipelined); only the
        # miss-side AMAT beyond the hit cost stalls.
        stall_cycles_per_access = max(
            0.0, timings.amat_cycles - 1.0
        ) * self.memory_exposure
        return self.base_cpi + (
            accesses_per_instruction * stall_cycles_per_access
        )


KvmCPU = CpuModel(
    name="kvm", base_cpi=0.0, memory_exposure=0.0, models_timing=False
)
AtomicSimpleCPU = CpuModel(
    name="atomic", base_cpi=1.0, memory_exposure=0.0
)
TimingSimpleCPU = CpuModel(
    name="timing", base_cpi=1.0, memory_exposure=1.0
)
O3CPU = CpuModel(name="o3", base_cpi=0.30, memory_exposure=0.35)

_MODELS = {
    "kvm": KvmCPU,
    "atomic": AtomicSimpleCPU,
    "timing": TimingSimpleCPU,
    "o3": O3CPU,
}


def build_cpu_model(cpu_type: str) -> CpuModel:
    if cpu_type not in _MODELS:
        raise ValidationError(
            f"unknown cpu type {cpu_type!r}; one of {sorted(_MODELS)}"
        )
    return _MODELS[cpu_type]
