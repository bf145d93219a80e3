"""Tests for the m5 pseudo-op interface and ROI statistics."""

import pytest

from repro.common.errors import ValidationError
from repro.resources import build_resource
from repro.sim import Gem5Build, Gem5Simulator, SystemConfig
from repro.sim.m5ops import (
    M5_DUMPSTATS,
    M5_EXIT,
    M5_RESETSTATS,
    M5OpLog,
)


def test_log_records_in_order():
    log = M5OpLog()
    log.fire(100, M5_RESETSTATS)
    log.fire(500, M5_DUMPSTATS)
    log.fire(600, M5_EXIT)
    assert log.ops() == ["resetstats", "dumpstats", "exit"]


def test_log_rejects_unknown_and_unordered():
    log = M5OpLog()
    with pytest.raises(ValidationError):
        log.fire(0, "warp-ten")
    log.fire(100, M5_EXIT)
    with pytest.raises(ValidationError):
        log.fire(50, M5_EXIT)


def test_roi_computation():
    log = M5OpLog()
    log.fire(1000, M5_RESETSTATS)
    log.fire(4000, M5_DUMPSTATS)
    assert log.roi_ticks() == 3000
    assert log.roi_seconds() == pytest.approx(3000 / 10**12)


def test_roi_none_without_complete_pair():
    log = M5OpLog()
    assert log.roi_ticks() is None
    log.fire(10, M5_RESETSTATS)
    assert log.roi_ticks() is None
    log.fire(20, M5_EXIT)
    assert log.roi_ticks() is None


def test_boot_exit_image_fires_exit():
    image = build_resource("boot-exit").image
    simulator = Gem5Simulator(Gem5Build(), SystemConfig())
    result = simulator.run_fs("5.4.49", image, boot_type="init")
    assert result.m5ops
    assert result.m5ops[-1]["op"] == "exit"


def test_plain_image_fires_nothing_without_benchmark():
    image = build_resource("parsec").image
    simulator = Gem5Simulator(Gem5Build(), SystemConfig())
    result = simulator.run_fs("4.15.18", image, boot_type="init")
    assert result.m5ops == []


def test_benchmark_run_brackets_roi():
    image = build_resource("parsec").image
    simulator = Gem5Simulator(Gem5Build(), SystemConfig())
    result = simulator.run_fs("4.15.18", image, benchmark="ferret")
    ops = [entry["op"] for entry in result.m5ops]
    assert ops == ["resetstats", "dumpstats", "exit"]
    # ROI covers only the parallel region: shorter than the whole
    # workload (which includes serial init/finish), but most of it.
    assert "roi_seconds" in result.stats
    assert 0 < result.stats["roi_seconds"] < result.workload_seconds
    assert result.stats["roi_seconds"] > 0.5 * result.workload_seconds


def test_roi_ticks_match_phase_accounting():
    image = build_resource("parsec").image
    simulator = Gem5Simulator(Gem5Build(), SystemConfig())
    result = simulator.run_fs("4.15.18", image, benchmark="vips")
    reset = next(
        e["tick"] for e in result.m5ops if e["op"] == "resetstats"
    )
    dump = next(
        e["tick"] for e in result.m5ops if e["op"] == "dumpstats"
    )
    roi_ticks = dump - reset
    phase_ticks = result.stats[
        "parsec.vips.simmedium.phase_ticks::roi"
    ]
    assert roi_ticks == phase_ticks


def test_spec_main_phase_is_roi():
    image = build_resource(
        "spec-2017", iso_path="/licensed/spec.iso"
    ).image
    simulator = Gem5Simulator(Gem5Build(), SystemConfig())
    result = simulator.run_fs(
        "4.15.18", image, benchmark="leela_r", input_size="test"
    )
    assert "roi_seconds" in result.stats
