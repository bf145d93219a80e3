"""Tests for GPU configuration (Table III) and kernel descriptors."""

import pytest

from repro.common.errors import ValidationError
from repro.gpu import GPUConfig, GPUKernel


def test_table3_defaults():
    config = GPUConfig()
    assert config.num_cus == 4
    assert config.simds_per_cu == 4
    assert config.gpu_clock_ghz == 1.0
    assert config.max_wavefronts_per_simd == 10
    assert config.max_wavefronts_per_cu == 40
    assert config.vector_registers_per_cu == 8192
    assert config.scalar_registers_per_cu == 8192
    assert config.lds_bytes_per_cu == 64 * 1024
    assert config.l1i_bytes_per_4cu == 32 * 1024
    assert config.l1d_bytes_per_cu == 16 * 1024
    assert config.l2_bytes == 256 * 1024
    assert config.memory_tech == "DDR3_1600_8x8"
    assert config.memory_channels == 1


def test_derived_geometry():
    config = GPUConfig()
    assert config.total_simds == 16
    assert config.vector_registers_per_simd == 2048
    assert "4 CUs" in config.describe()


def test_config_validation():
    with pytest.raises(ValidationError):
        GPUConfig(num_cus=0)
    with pytest.raises(ValidationError):
        GPUConfig(gpu_clock_ghz=-1)
    with pytest.raises(ValidationError):
        GPUConfig(dependence_tracking_penalty=-0.1)


def test_kernel_totals():
    kernel = GPUKernel(
        name="k",
        num_workgroups=8,
        wavefronts_per_workgroup=4,
        instructions_per_wavefront=100,
    )
    assert kernel.total_wavefronts == 32
    assert kernel.total_instructions == 3200


def test_kernel_validation():
    with pytest.raises(ValidationError):
        GPUKernel(name="", num_workgroups=1)
    for field in ("num_workgroups", "wavefronts_per_workgroup",
                  "vregs_per_wavefront", "instructions_per_wavefront"):
        for bad in (0, 2.5, True, "4"):
            with pytest.raises(ValidationError):
                GPUKernel(**{"name": "k", "num_workgroups": 1, field: bad})
    with pytest.raises(ValidationError):
        GPUKernel(name="k", num_workgroups=1, memory_intensity=1.5)
    with pytest.raises(ValidationError):
        GPUKernel(name="k", num_workgroups=1, sync_ops_per_wavefront=-1)
    with pytest.raises(ValidationError):
        GPUKernel(name="k", num_workgroups=1, contention_coefficient=-1)
    with pytest.raises(ValidationError):
        GPUKernel(name="k", num_workgroups=1, lds_bytes_per_workgroup=-1)
