"""Tests for the execution engine and the Gem5Simulator front end."""

import pytest

from repro.common.errors import NotFoundError, ValidationError
from repro.guest.kernels import get_kernel
from repro.packer import Template, build
from repro.sim import (
    Gem5Build,
    Gem5Simulator,
    SimulationStatus,
    SystemConfig,
)
from repro.sim.engine import ExecutionEngine, ExecutionModifiers
from repro.sim.workload import Phase, Workload


def simple_workload(instructions=1_000_000, parallelism=1, **kwargs):
    return Workload(
        name="unit",
        phases=(
            Phase(
                name="only",
                instructions=instructions,
                parallelism=parallelism,
                **kwargs,
            ),
        ),
    )


def parsec_image(distro="ubuntu-18.04", apps=("ferret", "x264")):
    return build(
        Template(
            builder={
                "type": "ubuntu",
                "distro": distro,
                "image_name": f"parsec-{distro}",
            },
            provisioners=[
                {
                    "type": "shell",
                    "inline": [
                        f"build-benchmark parsec {app}" for app in apps
                    ],
                }
            ],
        )
    ).image


def test_modifier_validation():
    with pytest.raises(ValidationError):
        ExecutionModifiers(instruction_scale=0)
    with pytest.raises(ValidationError):
        ExecutionModifiers(scheduler_efficiency=0)
    with pytest.raises(ValidationError):
        ExecutionModifiers(scheduler_efficiency=1.5)


def test_engine_executes_and_advances_time():
    engine = ExecutionEngine(SystemConfig())
    outcome = engine.execute(simple_workload())
    assert outcome.ticks > 0
    assert outcome.instructions == 1_000_000
    assert outcome.sim_seconds > 0
    assert engine.stats.get("sim_insts") == 1_000_000


def test_engine_deterministic():
    def run():
        return ExecutionEngine(SystemConfig()).execute(
            simple_workload()
        ).ticks

    assert run() == run()


def test_parallel_phase_scales_down_time():
    workload = simple_workload(
        instructions=100_000_000, parallelism=64
    )
    one = ExecutionEngine(SystemConfig(num_cpus=1)).execute(workload)
    eight = ExecutionEngine(SystemConfig(num_cpus=8)).execute(workload)
    assert eight.ticks < one.ticks
    speedup = one.ticks / eight.ticks
    assert 3.0 < speedup <= 8.0


def test_serial_phase_does_not_scale():
    workload = simple_workload(instructions=10_000_000, parallelism=1)
    one = ExecutionEngine(SystemConfig(num_cpus=1)).execute(workload)
    eight = ExecutionEngine(SystemConfig(num_cpus=8)).execute(workload)
    assert eight.ticks == one.ticks


def test_better_scheduler_gives_better_multicore_time():
    workload = simple_workload(
        instructions=100_000_000, parallelism=64, imbalance_sensitivity=0.4
    )
    old = ExecutionEngine(
        SystemConfig(num_cpus=8),
        modifiers=ExecutionModifiers(scheduler_efficiency=0.80),
    ).execute(workload)
    new = ExecutionEngine(
        SystemConfig(num_cpus=8),
        modifiers=ExecutionModifiers(scheduler_efficiency=0.95),
    ).execute(workload)
    assert new.ticks < old.ticks


def test_memory_stall_scale_speeds_up_memory_bound_phase():
    workload = simple_workload(
        instructions=50_000_000,
        working_set_bytes=128 * 1024 * 1024,
        locality=0.80,
    )
    base = ExecutionEngine(SystemConfig()).execute(workload)
    improved = ExecutionEngine(
        SystemConfig(),
        modifiers=ExecutionModifiers(memory_stall_scale=0.8),
    ).execute(workload)
    assert improved.ticks < base.ticks


def test_instruction_scale_slows_down():
    base = ExecutionEngine(SystemConfig()).execute(simple_workload())
    more = ExecutionEngine(
        SystemConfig(),
        modifiers=ExecutionModifiers(instruction_scale=1.2),
    ).execute(simple_workload())
    assert more.ticks > base.ticks
    assert more.instructions == int(1_000_000 * 1.2)


def test_cpu_model_ordering():
    """For a memory-heavy phase: atomic < o3 < timing in simulated time."""
    workload = simple_workload(
        instructions=50_000_000,
        working_set_bytes=64 * 1024 * 1024,
        locality=0.85,
    )
    times = {}
    for cpu in ("atomic", "timing", "o3"):
        outcome = ExecutionEngine(
            SystemConfig(cpu_type=cpu)
        ).execute(workload)
        times[cpu] = outcome.ticks
    assert times["atomic"] < times["o3"] < times["timing"]


def test_kvm_is_fastest_and_untimed():
    workload = simple_workload(instructions=50_000_000)
    kvm = ExecutionEngine(SystemConfig(cpu_type="kvm")).execute(workload)
    atomic = ExecutionEngine(
        SystemConfig(cpu_type="atomic")
    ).execute(workload)
    assert kvm.ticks < atomic.ticks
    assert kvm.utilization == 0.0


def test_sync_heavy_phase_pays_more_with_cores():
    quiet = simple_workload(
        instructions=50_000_000, parallelism=64, sync_per_kinst=0.0
    )
    noisy = simple_workload(
        instructions=50_000_000, parallelism=64, sync_per_kinst=2.0
    )
    config = SystemConfig(num_cpus=8, memory_system="MESI_Two_Level")
    quiet_t = ExecutionEngine(config).execute(quiet).ticks
    noisy_t = ExecutionEngine(config).execute(noisy).ticks
    assert noisy_t > quiet_t


def test_zero_instruction_phase_skipped():
    workload = Workload(
        name="w",
        phases=(
            Phase(name="empty", instructions=0),
            Phase(name="real", instructions=1000),
        ),
    )
    outcome = ExecutionEngine(SystemConfig()).execute(workload)
    assert outcome.instructions == 1000


# ------------------------------------------------------------- simulator


def test_run_fs_boot_only():
    sim = Gem5Simulator(Gem5Build(), SystemConfig())
    result = sim.run_fs("5.4.49", parsec_image(), boot_type="init")
    assert result.ok
    assert result.boot_seconds > 0
    assert result.workload_seconds == 0
    assert result.instructions > 0
    assert "cpu_utilization" in result.stats


def test_run_fs_systemd_slower_than_init():
    sim = Gem5Simulator(Gem5Build(), SystemConfig())
    image = parsec_image()
    init = sim.run_fs("5.4.49", image, boot_type="init")
    systemd = sim.run_fs("5.4.49", image, boot_type="systemd")
    assert systemd.boot_seconds > init.boot_seconds


def test_run_fs_with_benchmark():
    sim = Gem5Simulator(Gem5Build(), SystemConfig())
    result = sim.run_fs("4.15.18", parsec_image(), benchmark="ferret")
    assert result.ok
    assert result.workload_seconds > 0
    assert result.workload_name == "parsec.ferret.simmedium"
    assert result.sim_seconds == pytest.approx(
        result.boot_seconds + result.workload_seconds
    )


def test_run_fs_missing_benchmark_raises():
    sim = Gem5Simulator(Gem5Build(), SystemConfig())
    with pytest.raises(NotFoundError):
        sim.run_fs("4.15.18", parsec_image(), benchmark="swaptions")


def test_run_fs_broken_benchmark_aborts():
    sim = Gem5Simulator(Gem5Build(), SystemConfig())
    result = sim.run_fs("4.15.18", parsec_image(), benchmark="x264")
    assert result.status is SimulationStatus.WORKLOAD_ABORT
    assert "x264" in result.reason


def test_run_fs_unsupported_config():
    sim = Gem5Simulator(
        Gem5Build(), SystemConfig(cpu_type="timing", num_cpus=2)
    )
    result = sim.run_fs("5.4.49", parsec_image())
    assert result.status is SimulationStatus.UNSUPPORTED
    assert not result.ok
    assert result.sim_seconds == 0


def test_run_fs_kernel_panic_partial_stats():
    sim = Gem5Simulator(
        Gem5Build(),
        SystemConfig(cpu_type="o3", num_cpus=1, memory_system="classic"),
    )
    result = sim.run_fs("4.4.186", parsec_image(), boot_type="init")
    assert result.status is SimulationStatus.KERNEL_PANIC
    assert result.sim_seconds > 0  # partial boot before the panic
    assert result.instructions > 0


def test_run_fs_kernel_accepts_object():
    sim = Gem5Simulator(Gem5Build(), SystemConfig())
    result = sim.run_fs(get_kernel("5.4.49"), parsec_image(), boot_type="init")
    assert result.ok


def test_compiler_chain_affects_runtime():
    """Same benchmark, two disk images: the 20.04 (GCC 9.3) build runs
    faster under the timing CPU — Fig 6's headline effect."""
    sim = Gem5Simulator(Gem5Build(), SystemConfig())
    bionic = sim.run_fs(
        "4.15.18", parsec_image("ubuntu-18.04"), benchmark="ferret"
    )
    focal = sim.run_fs(
        "5.4.51", parsec_image("ubuntu-20.04"), benchmark="ferret"
    )
    assert focal.workload_seconds < bionic.workload_seconds
    # ... while executing MORE instructions (the paper's observation).
    assert focal.instructions > bionic.instructions


def test_run_se():
    sim = Gem5Simulator(Gem5Build(), SystemConfig())
    result = sim.run_se(simple_workload())
    assert result.ok
    assert result.sim_seconds > 0
    assert result.boot_seconds == 0


def test_stats_txt_rendering():
    sim = Gem5Simulator(Gem5Build(), SystemConfig())
    result = sim.run_fs("5.4.49", parsec_image(), boot_type="init")
    text = result.stats_txt()
    assert "Begin Simulation Statistics" in text
    assert "sim_seconds" in text


def test_engine_surfaces_cache_stats():
    from repro.resources import build_resource

    image = build_resource("parsec").image
    simulator = Gem5Simulator(Gem5Build(), SystemConfig())
    result = simulator.run_fs("4.15.18", image, benchmark="ferret")
    assert result.stats["system.l1d.accesses"] > 0
    assert 0 < result.stats["system.l1d.miss_rate"] < 1
    assert result.stats["system.mem_ctrl.bytes_read"] > 0
    assert (
        result.stats["system.mem_ctrl.accesses"]
        <= result.stats["system.l1d.misses"]
    )
