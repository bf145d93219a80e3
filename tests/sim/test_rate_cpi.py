"""Tests for SPEC-rate throughput runs and the CPI stack statistics."""

import pytest

from repro.common.errors import ValidationError
from repro.sim import Gem5Build, Gem5Simulator, SystemConfig
from repro.sim.workload import get_workload


def simulator(cores=8, cpu="timing"):
    return Gem5Simulator(
        Gem5Build(),
        SystemConfig(
            cpu_type=cpu,
            num_cpus=cores,
            memory_system="MESI_Two_Level",
        ),
    )


def test_rate_run_reports_throughput():
    workload = get_workload("spec-2017", "leela_r", "test")
    result = simulator(4).run_se_rate(workload, copies=4)
    assert result.ok
    assert result.stats["copies"] == 4
    assert result.stats["rate"] == pytest.approx(
        4 / result.sim_seconds
    )
    assert result.workload_name.endswith(".rate4")


def test_rate_defaults_to_all_cores():
    workload = get_workload("spec-2017", "leela_r", "test")
    result = simulator(2).run_se_rate(workload)
    assert result.stats["copies"] == 2


def test_rate_validation():
    workload = get_workload("spec-2017", "leela_r", "test")
    with pytest.raises(ValidationError):
        simulator(2).run_se_rate(workload, copies=4)
    with pytest.raises(ValidationError):
        simulator(2).run_se_rate(workload, copies=0)


def test_compute_bound_rate_scales_memory_bound_saturates():
    """exchange2_r (cache-resident) should gain far more throughput from
    8 copies than mcf_r (DRAM-bound) — the SPECrate story.  Under an O3
    CPU the eight mcf copies saturate the DDR3 channel (the engine's
    bandwidth ceiling), so their scaling collapses."""
    def scaling(benchmark):
        workload = get_workload("spec-2017", benchmark, "test")
        one = simulator(8, "o3").run_se_rate(
            workload, copies=1
        ).stats["rate"]
        eight = simulator(8, "o3").run_se_rate(
            workload, copies=8
        ).stats["rate"]
        return eight / one

    assert scaling("exchange2_r") > scaling("mcf_r") + 1.0
    assert scaling("exchange2_r") > 4.0
    assert scaling("mcf_r") < 6.0


def test_cpi_stack_recorded():
    workload = get_workload("spec-2006", "mcf", "test")
    result = simulator(1).run_se(workload)
    cpi = result.stats["system.cpu.cpi"]
    base = result.stats["system.cpu.cpi_base"]
    stall = result.stats["system.cpu.cpi_stall"]
    assert cpi == pytest.approx(base + stall)
    assert base == pytest.approx(1.0)  # TimingSimpleCPU issues 1/cycle
    assert stall > 1.0  # mcf is dominated by memory stalls


def test_cpi_stack_compute_vs_memory():
    mcf = simulator(1).run_se(get_workload("spec-2006", "mcf", "test"))
    ep = simulator(1).run_se(get_workload("npb", "ep", "S"))
    assert (
        mcf.stats["system.cpu.cpi_stall"]
        > 5 * ep.stats["system.cpu.cpi_stall"]
    )
