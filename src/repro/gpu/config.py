"""GPU configuration — defaults are the paper's Table III.

| Component               | Value                              |
|-------------------------|------------------------------------|
| Number of CUs           | 4                                  |
| SIMD16s (vector ALUs)   | 4 per CU                           |
| GPU frequency           | 1 GHz                              |
| Max wavefronts          | 10 per SIMD16 (40 per CU)          |
| Vector registers        | 8K per CU                          |
| Scalar registers        | 8K per CU                          |
| LDS                     | 64 KB per CU                       |
| L1 instruction cache    | 32 KB shared between every 4 CUs   |
| L1 data caches          | 16 KB per CU                       |
| Unified L2 cache        | 256 KB                             |
| Main memory             | 1 channel, DDR3_1600_8x8           |
"""

from __future__ import annotations

from repro.common.errors import ValidationError
from repro.common.records import Frozen


class GPUConfig(Frozen):
    """The simulated GPU's geometry and timing parameters."""

    _fields = (
        "num_cus", "simds_per_cu", "gpu_clock_ghz", "max_wavefronts_per_simd",
        "vector_registers_per_cu", "scalar_registers_per_cu",
        "lds_bytes_per_cu", "l1i_bytes_per_4cu", "l1d_bytes_per_cu",
        "l2_bytes", "memory_tech", "memory_channels", "memory_latency_cycles",
        "dependence_tracking_penalty",
    )

    def __init__(
        self, num_cus: int = 4, simds_per_cu: int = 4,
        gpu_clock_ghz: float = 1.0, max_wavefronts_per_simd: int = 10,
        vector_registers_per_cu: int = 8192,
        scalar_registers_per_cu: int = 8192, lds_bytes_per_cu: int = 64 * 1024,
        l1i_bytes_per_4cu: int = 32 * 1024, l1d_bytes_per_cu: int = 16 * 1024,
        l2_bytes: int = 256 * 1024, memory_tech: str = "DDR3_1600_8x8",
        memory_channels: int = 1,
        memory_latency_cycles: int = 350,  # a wavefront's mean, GPU cycles
        # Issue-stall cycles each *extra* resident wavefront adds per
        # instruction — the GCN3 model's simplistic dependence tracking
        # (the paper's own diagnosis of the Fig 9 result).
        dependence_tracking_penalty: float = 0.08,
    ):
        vars(self).update(
            num_cus=num_cus, simds_per_cu=simds_per_cu,
            gpu_clock_ghz=gpu_clock_ghz,
            max_wavefronts_per_simd=max_wavefronts_per_simd,
            vector_registers_per_cu=vector_registers_per_cu,
            scalar_registers_per_cu=scalar_registers_per_cu,
            lds_bytes_per_cu=lds_bytes_per_cu,
            l1i_bytes_per_4cu=l1i_bytes_per_4cu,
            l1d_bytes_per_cu=l1d_bytes_per_cu, l2_bytes=l2_bytes,
            memory_tech=memory_tech, memory_channels=memory_channels,
            memory_latency_cycles=memory_latency_cycles,
            dependence_tracking_penalty=dependence_tracking_penalty,
        )
        for name in (
            "num_cus", "simds_per_cu", "gpu_clock_ghz",
            "max_wavefronts_per_simd", "vector_registers_per_cu",
            "scalar_registers_per_cu", "lds_bytes_per_cu", "l2_bytes",
            "memory_latency_cycles",
        ):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if dependence_tracking_penalty < 0:
            raise ValidationError(
                "dependence_tracking_penalty must be >= 0"
            )

    @property
    def max_wavefronts_per_cu(self) -> int:
        return self.max_wavefronts_per_simd * self.simds_per_cu

    @property
    def total_simds(self) -> int:
        return self.num_cus * self.simds_per_cu

    @property
    def vector_registers_per_simd(self) -> int:
        return self.vector_registers_per_cu // self.simds_per_cu

    def describe(self) -> str:
        return (
            f"{self.num_cus} CUs x {self.simds_per_cu} SIMD16 @ "
            f"{self.gpu_clock_ghz} GHz, {self.max_wavefronts_per_simd} "
            f"wf/SIMD, {self.vector_registers_per_cu} vregs/CU, "
            f"{self.lds_bytes_per_cu // 1024} KB LDS/CU"
        )
