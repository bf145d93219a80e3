"""Tests for the stride-prefetcher model."""

import pytest

from repro.common.errors import ValidationError
from repro.sim import Gem5Build, Gem5Simulator, SystemConfig
from repro.sim.engine import ExecutionEngine
from repro.sim.workload import Phase, Workload, get_workload


def memory_phase(regularity):
    return Workload(
        name="pf",
        phases=(
            Phase(
                name="main",
                instructions=20_000_000,
                working_set_bytes=256 * 1024 * 1024,
                locality=0.80,
                access_regularity=regularity,
            ),
        ),
    )


def ticks(regularity, prefetcher):
    config = SystemConfig(cpu_type="timing", prefetcher=prefetcher)
    return ExecutionEngine(config).execute(
        memory_phase(regularity)
    ).ticks


def test_prefetcher_off_by_default():
    assert SystemConfig().prefetcher is False


def test_prefetcher_helps_regular_streams():
    assert ticks(0.9, True) < ticks(0.9, False)


def test_prefetcher_useless_for_pointer_chasing():
    assert ticks(0.0, True) == ticks(0.0, False)


def test_prefetcher_gain_scales_with_regularity():
    gain_irregular = ticks(0.2, False) - ticks(0.2, True)
    gain_regular = ticks(0.9, False) - ticks(0.9, True)
    assert gain_regular > gain_irregular >= 0


def test_phase_regularity_validated():
    with pytest.raises(ValidationError):
        Phase(name="bad", instructions=1, access_regularity=2.0)


def test_spec_regularity_assignments():
    mcf = get_workload("spec-2006", "mcf", "test")
    libquantum = get_workload("spec-2006", "libquantum", "test")
    assert mcf.phases[0].access_regularity < 0.1
    assert libquantum.phases[0].access_regularity > 0.9


def test_prefetcher_end_to_end_spec():
    """libquantum (streaming) gains a lot from the prefetcher; mcf
    (pointer chasing) gains almost nothing — the classic contrast."""
    def speedup(benchmark):
        workload = get_workload("spec-2006", benchmark, "test")
        base = Gem5Simulator(
            Gem5Build(), SystemConfig(cpu_type="timing")
        ).run_se(workload).sim_seconds
        with_pf = Gem5Simulator(
            Gem5Build(), SystemConfig(cpu_type="timing", prefetcher=True)
        ).run_se(workload).sim_seconds
        return base / with_pf

    assert speedup("libquantum") > 1.3
    assert speedup("mcf") < 1.05
    assert speedup("libquantum") > speedup("mcf")
