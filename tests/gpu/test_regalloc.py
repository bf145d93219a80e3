"""Tests for the register file and the two allocation policies."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ValidationError
from repro.gpu import (
    DynamicRegisterAllocator,
    GPUConfig,
    GPUKernel,
    SimpleRegisterAllocator,
    build_register_allocator,
)


def kernel(**overrides):
    params = dict(name="k", num_workgroups=64, vregs_per_wavefront=64)
    params.update(overrides)
    return GPUKernel(**params)


def test_simple_always_one_slot():
    allocator = SimpleRegisterAllocator(GPUConfig())
    assert allocator.wavefront_slots_per_simd(kernel()) == 1
    assert (
        allocator.wavefront_slots_per_simd(
            kernel(vregs_per_wavefront=2048)
        )
        == 1
    )


def test_dynamic_caps_at_hardware_max():
    allocator = DynamicRegisterAllocator(GPUConfig())
    # 2048 vregs per SIMD / 64 per wavefront = 32, capped at 10.
    assert allocator.wavefront_slots_per_simd(kernel()) == 10


def test_dynamic_register_bound():
    allocator = DynamicRegisterAllocator(GPUConfig())
    # 2048 / 512 = 4 wavefronts fit.
    assert (
        allocator.wavefront_slots_per_simd(
            kernel(vregs_per_wavefront=512)
        )
        == 4
    )


def test_dynamic_lds_bound():
    allocator = DynamicRegisterAllocator(GPUConfig())
    # 64 KB LDS / 16 KB per WG = 4 WGs/CU, 1 wf each -> 1 per SIMD.
    slots = allocator.wavefront_slots_per_simd(
        kernel(lds_bytes_per_workgroup=16 * 1024, vregs_per_wavefront=16)
    )
    assert slots == 1


def test_infeasible_kernel_rejected():
    allocator = DynamicRegisterAllocator(GPUConfig())
    with pytest.raises(ValidationError):
        allocator.wavefront_slots_per_simd(
            kernel(vregs_per_wavefront=4096)
        )
    with pytest.raises(ValidationError):
        allocator.wavefront_slots_per_simd(
            kernel(lds_bytes_per_workgroup=128 * 1024)
        )


def test_factory():
    config = GPUConfig()
    assert isinstance(
        build_register_allocator("simple", config),
        SimpleRegisterAllocator,
    )
    assert isinstance(
        build_register_allocator("dynamic", config),
        DynamicRegisterAllocator,
    )
    with pytest.raises(ValidationError):
        build_register_allocator("static", config)


@given(st.integers(min_value=1, max_value=2048))
def test_property_dynamic_at_least_simple(vregs):
    config = GPUConfig()
    simple = SimpleRegisterAllocator(config)
    dynamic = DynamicRegisterAllocator(config)
    k = kernel(vregs_per_wavefront=vregs)
    assert dynamic.wavefront_slots_per_simd(k) >= (
        simple.wavefront_slots_per_simd(k)
    )


@given(st.integers(min_value=1, max_value=2048))
def test_property_dynamic_respects_register_capacity(vregs):
    config = GPUConfig()
    dynamic = DynamicRegisterAllocator(config)
    slots = dynamic.wavefront_slots_per_simd(
        kernel(vregs_per_wavefront=vregs)
    )
    assert 1 <= slots <= config.max_wavefronts_per_simd
    if slots > 1:
        assert slots * vregs <= config.vector_registers_per_simd
