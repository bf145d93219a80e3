"""Tests for the cache and memory-system timing models."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ValidationError
from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.mem.cache import COLD_MISS_FLOOR, CacheModel, capacity_miss_ratio
from repro.sim.mem.hierarchy import (
    ClassicMemorySystem,
    RubyMESITwoLevel,
    RubyMIExample,
    build_memory_system,
)

KiB = 1024
MiB = 1024 * 1024


def test_capacity_fits_cold_only():
    assert capacity_miss_ratio(16 * KiB, 32 * KiB) == COLD_MISS_FLOOR


def test_capacity_miss_grows_with_working_set():
    small = capacity_miss_ratio(2 * MiB, 1 * MiB)
    large = capacity_miss_ratio(64 * MiB, 1 * MiB)
    assert COLD_MISS_FLOOR < small < large < 1.0


def test_capacity_requires_positive_cache():
    with pytest.raises(ValidationError):
        capacity_miss_ratio(1, 0)


@given(
    st.integers(min_value=1, max_value=2**30),
    st.integers(min_value=1, max_value=2**24),
)
def test_property_capacity_bounded(ws, size):
    ratio = capacity_miss_ratio(ws, size)
    assert COLD_MISS_FLOOR <= ratio <= 1.0


@given(st.integers(min_value=1, max_value=2**30))
def test_property_bigger_cache_never_worse(ws):
    small = capacity_miss_ratio(ws, 32 * KiB)
    big = capacity_miss_ratio(ws, 1 * MiB)
    assert big <= small


def make_cache_model(ws, locality=0.9):
    return CacheModel(
        CacheConfig(32 * KiB, 8, 2),
        CacheConfig(1 * MiB, 16, 12),
        ws,
        locality,
    )


def test_cache_model_l1_respects_locality():
    low = make_cache_model(64 * MiB, locality=0.5).l1_miss_ratio()
    high = make_cache_model(64 * MiB, locality=0.95).l1_miss_ratio()
    assert high < low


def test_cache_model_levels_filter():
    model = make_cache_model(16 * MiB)
    assert 0 < model.dram_access_ratio() <= model.l1_miss_ratio()
    assert model.l2_local_miss_ratio() <= 1.0


def test_cache_model_locality_bounds():
    with pytest.raises(ValidationError):
        make_cache_model(1 * MiB, locality=1.5)


def profile(num_cpus, shared=0.3, write=0.4, ws=32 * MiB):
    return dict(
        working_set_bytes=ws,
        locality=0.9,
        shared_fraction=shared,
        write_fraction=write,
        num_cpus=num_cpus,
    )


def test_factory_dispatch():
    assert isinstance(
        build_memory_system(SystemConfig()), ClassicMemorySystem
    )
    assert isinstance(
        build_memory_system(SystemConfig(memory_system="MI_example")),
        RubyMIExample,
    )
    assert isinstance(
        build_memory_system(SystemConfig(memory_system="MESI_Two_Level")),
        RubyMESITwoLevel,
    )


def test_classic_has_no_coherence_cost():
    classic = build_memory_system(SystemConfig(num_cpus=8))
    single = classic.phase_timings(**profile(1))
    multi = classic.phase_timings(**profile(8))
    assert single.amat_cycles == multi.amat_cycles


def test_ruby_pays_for_sharing():
    config = SystemConfig(memory_system="MESI_Two_Level", num_cpus=8)
    mesi = build_memory_system(config)
    single = mesi.phase_timings(**profile(1))
    multi = mesi.phase_timings(**profile(8))
    assert multi.amat_cycles > single.amat_cycles


def test_mi_worse_than_mesi_on_shared_data():
    mi = build_memory_system(
        SystemConfig(memory_system="MI_example", num_cpus=8)
    )
    mesi = build_memory_system(
        SystemConfig(memory_system="MESI_Two_Level", num_cpus=8)
    )
    assert (
        mi.phase_timings(**profile(8)).amat_cycles
        > mesi.phase_timings(**profile(8)).amat_cycles
    )


def test_mi_pings_on_read_sharing():
    """MI has no Shared state, so even read-only sharing costs."""
    mi = build_memory_system(
        SystemConfig(memory_system="MI_example", num_cpus=4)
    )
    mesi = build_memory_system(
        SystemConfig(memory_system="MESI_Two_Level", num_cpus=4)
    )
    read_only = profile(4, shared=0.5, write=0.0)
    assert mi.coherence_miss_ratio(0.5, 0.0, 4) > 0
    assert mesi.coherence_miss_ratio(0.5, 0.0, 4) == 0
    assert (
        mi.phase_timings(**read_only).amat_cycles
        > mesi.phase_timings(**read_only).amat_cycles
    )


def test_ruby_directory_latency_single_core():
    """Even at one core, Ruby is slower than classic (the paper's
    'slower but more detailed' trade-off)."""
    classic = build_memory_system(SystemConfig())
    mesi = build_memory_system(SystemConfig(memory_system="MESI_Two_Level"))
    assert (
        mesi.phase_timings(**profile(1)).amat_cycles
        > classic.phase_timings(**profile(1)).amat_cycles
    )


def test_private_data_costs_nothing_extra():
    mi = build_memory_system(
        SystemConfig(memory_system="MI_example", num_cpus=8)
    )
    assert mi.coherence_miss_ratio(0.0, 0.5, 8) == 0.0


def test_bandwidth_scales_with_channels():
    one = build_memory_system(SystemConfig(memory_channels=1))
    two = build_memory_system(SystemConfig(memory_channels=2))
    assert two.bandwidth_bytes_per_second() == (
        2 * one.bandwidth_bytes_per_second()
    )


def test_phase_timings_validation():
    system = build_memory_system(SystemConfig())
    with pytest.raises(ValidationError):
        system.phase_timings(
            working_set_bytes=1,
            locality=0.9,
            shared_fraction=1.5,
            write_fraction=0.1,
            num_cpus=1,
        )


def test_dram_latency_in_cycles(monkeypatch):
    monkeypatch.setattr(SystemConfig, "cpu_clock_ghz", 2.0)
    config = SystemConfig()
    system = build_memory_system(config)
    assert system.dram_latency_cycles() == pytest.approx(
        config.dram.access_latency_ns * 2.0
    )
