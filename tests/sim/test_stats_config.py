"""Tests for statistics collection and system configuration."""

import pytest

from repro.common.errors import ValidationError
from repro.common.statsdb import StatsDB, render_stats
from repro.sim import CacheConfig, SystemConfig
from repro.sim.buildinfo import Gem5Build


def test_stats_inc_set_get():
    stats = StatsDB()
    stats.inc("sim_insts", 100)
    stats.inc("sim_insts", 50)
    stats.set("sim_seconds", 1.5)
    assert stats.get("sim_insts") == 150
    assert stats.get("sim_seconds") == 1.5
    assert stats.get("missing", default=7.0) == 7.0
    with pytest.raises(ValidationError):
        stats.get("missing")


def test_stats_vectors():
    stats = StatsDB()
    stats.vec_inc("phase_ticks", "boot", 10)
    stats.vec_inc("phase_ticks", "boot", 5)
    stats.vec_inc("phase_ticks", "roi", 100)
    assert stats.vec_get("phase_ticks") == {"boot": 15.0, "roi": 100.0}
    with pytest.raises(ValidationError):
        stats.vec_get("nope")


def test_stats_ratio():
    stats = StatsDB()
    stats.set("hits", 90)
    stats.set("accesses", 100)
    assert stats.ratio("hits", "accesses") == 0.9
    assert stats.ratio("hits", "zero") == 0.0


def test_stats_dump_bytes_are_pinned():
    """The stats blob's bytes — its id is in every run's results, so in
    the benchmark's digest."""
    stats = StatsDB()
    stats.inc("system.cpu0.committedInsts", 1234567)
    stats.inc("system.cpu0.committedInsts", 1)
    stats.set("sim_seconds", 0.0512)
    stats.set("host_seconds", 2.5)
    stats.set("system.cpu0.ipc", 1.0 / 3.0)
    stats.set("tiny", 1e-7)
    stats.vec_inc("system.mem_ctrls.reads", "bank0", 3)
    stats.vec_inc("system.mem_ctrls.reads", "bank1", 0.125)
    stats.vec_inc("system.cpu0.op_class", "IntAlu")
    stats.set("system.cpu0", 7)
    assert render_stats(stats.to_dict()) == "\n".join(
        [
            "---------- Begin Simulation Statistics ----------",
            "host_seconds" + " " * 49 + "2.5",
            "sim_seconds" + " " * 50 + "0.0512",
            "system.cpu0" + " " * 50 + "7",
            "system.cpu0.committedInsts" + " " * 35 + "1234568",
            "system.cpu0.ipc" + " " * 46 + "0.333333",
            "system.cpu0.op_class::IntAlu" + " " * 33 + "1",
            "system.mem_ctrls.reads::bank0" + " " * 32 + "3",
            "system.mem_ctrls.reads::bank1" + " " * 32 + "0.125",
            "tiny" + " " * 57 + "0",
            "---------- End Simulation Statistics   ----------",
        ]
    )


def test_stats_bad_name():
    with pytest.raises(ValidationError):
        StatsDB().set(" padded ", 1)
    with pytest.raises(ValidationError):
        StatsDB().inc("", 1)
    with pytest.raises(ValidationError):
        StatsDB().vec_inc("padded ", "key")
    with pytest.raises(ValidationError):
        render_stats({"": 1.0})


def test_config_defaults_valid():
    config = SystemConfig()
    assert config.cpu_type == "timing"
    assert config.memory_system == "classic"
    assert config.dram.name == "DDR3_1600_8x8"
    assert config.clock_period_ticks == 333  # 3 GHz


def test_config_validation():
    with pytest.raises(ValidationError):
        SystemConfig(cpu_type="pentium")
    with pytest.raises(ValidationError):
        SystemConfig(memory_system="NUCA")
    with pytest.raises(ValidationError):
        SystemConfig(num_cpus=0)
    with pytest.raises(ValidationError):
        SystemConfig(memory_tech="DDR5")
    with pytest.raises(ValidationError):
        SystemConfig(memory_channels=0)


def test_config_ruby_flag_and_key():
    ruby = SystemConfig(memory_system="MI_example")
    assert ruby.key()[2] == "MI_example"
    assert "MI_example" in ruby.describe()


def test_cache_config_validation():
    with pytest.raises(ValidationError):
        CacheConfig(0, 8, 2)
    with pytest.raises(ValidationError):
        CacheConfig(1024, 0, 2)


def test_build_defaults_and_names():
    build = Gem5Build()
    assert build.binary_name == "build/X86/gem5.opt"
    assert len(build.revision) == 40
    assert "scons build/X86/gem5.opt" in build.scons_command()


def test_build_gpu_variant():
    build = Gem5Build(version="21.0", isa="GCN3_X86")
    assert build.binary_name == "build/GCN3_X86/gem5.opt"


def test_build_validation():
    with pytest.raises(ValidationError):
        Gem5Build(isa="MIPS64")
    with pytest.raises(ValidationError):
        Gem5Build(variant="perf")
    with pytest.raises(ValidationError):
        Gem5Build(version="")


def test_build_binary_deterministic_distinct():
    one = Gem5Build().build_binary()
    assert one == Gem5Build().build_binary()
    assert one != Gem5Build(version="21.0").build_binary()
    assert one != Gem5Build(isa="ARM").build_binary()
