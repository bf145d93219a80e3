"""Cross-cutting property-based and stress tests.

These verify the *invariants* the reproduction's conclusions rest on:
timing monotonicities in the engine and GPU model, determinism of builds
and simulations, consistency of the fault model, and the scheduler's
state machine under load.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu import GPUConfig, GPUDevice, GPUKernel
from repro.packer import Template, build
from repro.scheduler import SchedulerApp
from repro.sim import SystemConfig
from repro.sim.engine import ExecutionEngine, ExecutionModifiers
from repro.sim.faults import SimulationStatus, check_run
from repro.sim.workload import Phase, Workload


def run_phase(instructions=10_000_000, cpus=1, **phase_kwargs):
    phase_defaults = dict(parallelism=64)
    phase_defaults.update(phase_kwargs)
    workload = Workload(
        name="prop",
        phases=(Phase(name="p", instructions=instructions,
                      **phase_defaults),),
    )
    config = SystemConfig(
        cpu_type="timing",
        num_cpus=cpus,
        memory_system="MESI_Two_Level" if cpus > 1 else "classic",
    )
    return ExecutionEngine(config).execute(workload)


# ------------------------------------------------------- engine invariants


@given(st.integers(min_value=1, max_value=10**8))
@settings(max_examples=25, deadline=None)
def test_property_more_instructions_never_faster(instructions):
    shorter = run_phase(instructions=instructions)
    longer = run_phase(instructions=instructions * 2)
    assert longer.ticks >= shorter.ticks


@given(st.sampled_from([1, 2, 4, 8]), st.sampled_from([1, 2, 4, 8]))
@settings(max_examples=16, deadline=None)
def test_property_more_cores_never_slower_parallel(few, many):
    if few > many:
        few, many = many, few
    config_few = SystemConfig(
        cpu_type="timing", num_cpus=few, memory_system="MESI_Two_Level"
    )
    config_many = SystemConfig(
        cpu_type="timing", num_cpus=many, memory_system="MESI_Two_Level"
    )
    workload = Workload(
        name="prop",
        phases=(
            Phase(
                name="p",
                instructions=50_000_000,
                parallelism=64,
                shared_fraction=0.0,
                sync_per_kinst=0.0,
            ),
        ),
    )
    ticks_few = ExecutionEngine(config_few).execute(workload).ticks
    ticks_many = ExecutionEngine(config_many).execute(workload).ticks
    assert ticks_many <= ticks_few


@given(
    st.floats(min_value=0.5, max_value=0.99),
    st.floats(min_value=0.5, max_value=0.99),
)
@settings(max_examples=25, deadline=None)
def test_property_better_locality_never_slower(low, high):
    if low > high:
        low, high = high, low
    slow = run_phase(locality=low, working_set_bytes=64 * 1024 * 1024)
    fast = run_phase(locality=high, working_set_bytes=64 * 1024 * 1024)
    assert fast.ticks <= slow.ticks


@given(st.floats(min_value=0.81, max_value=1.2))
@settings(max_examples=25, deadline=None)
def test_property_memory_stall_scale_monotonic(scale):
    workload = Workload(
        name="prop",
        phases=(
            Phase(
                name="p",
                instructions=10_000_000,
                working_set_bytes=64 * 1024 * 1024,
                locality=0.85,
            ),
        ),
    )
    base = ExecutionEngine(
        SystemConfig(), modifiers=ExecutionModifiers()
    ).execute(workload)
    scaled = ExecutionEngine(
        SystemConfig(),
        modifiers=ExecutionModifiers(memory_stall_scale=scale),
    ).execute(workload)
    if scale >= 1.0:
        assert scaled.ticks >= base.ticks
    else:
        assert scaled.ticks <= base.ticks


# -------------------------------------------------------- GPU invariants


@given(st.integers(min_value=1, max_value=512))
@settings(max_examples=25, deadline=None)
def test_property_gpu_more_workgroups_never_faster(workgroups):
    device = GPUDevice(GPUConfig())

    def ticks(wgs):
        return device.execute(
            GPUKernel(name="k", num_workgroups=wgs), "dynamic"
        ).shader_ticks

    assert ticks(workgroups * 2) >= ticks(workgroups)


@given(st.integers(min_value=16, max_value=2048))
@settings(max_examples=25, deadline=None)
def test_property_gpu_occupancy_decreases_with_register_pressure(vregs):
    device = GPUDevice(GPUConfig())
    light = device.execute(
        GPUKernel(
            name="k", num_workgroups=640, vregs_per_wavefront=16
        ),
        "dynamic",
    ).occupancy_per_simd
    heavy = device.execute(
        GPUKernel(
            name="k", num_workgroups=640, vregs_per_wavefront=vregs
        ),
        "dynamic",
    ).occupancy_per_simd
    assert heavy <= light


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=25, deadline=None)
def test_property_gpu_simple_allocator_ignores_register_pressure(frac):
    vregs = max(1, int(2048 * frac))
    device = GPUDevice(GPUConfig())
    result = device.execute(
        GPUKernel(
            name="k", num_workgroups=64, vregs_per_wavefront=vregs
        ),
        "simple",
    )
    assert result.occupancy_per_simd == 1


# ------------------------------------------------------ fault-model closure


def test_fault_model_is_total_and_single_valued():
    """Every point of the full configuration space gets exactly one
    verdict, and repeated evaluation never disagrees."""
    import itertools

    from repro.guest import BOOT_TEST_KERNEL_VERSIONS

    for cpu, mem, cores, kernel, boot in itertools.product(
        ("kvm", "atomic", "timing", "o3"),
        ("classic", "MI_example", "MESI_Two_Level"),
        (1, 2, 4, 8),
        BOOT_TEST_KERNEL_VERSIONS,
        ("init", "systemd"),
    ):
        config = SystemConfig(
            cpu_type=cpu, num_cpus=cores, memory_system=mem
        )
        first = check_run("20.1.0.4", config, kernel, boot)
        second = check_run("20.1.0.4", config, kernel, boot)
        assert first == second
        assert isinstance(first.fault, SimulationStatus)


# ------------------------------------------------------ build determinism


@given(
    st.lists(
        st.sampled_from(["ferret", "vips", "dedup", "swaptions"]),
        unique=True,
        min_size=1,
        max_size=4,
    )
)
@settings(max_examples=15, deadline=None)
def test_property_packer_builds_deterministic(apps):
    def make():
        return build(
            Template(
                builder={
                    "type": "ubuntu",
                    "distro": "ubuntu-18.04",
                    "image_name": "prop",
                },
                provisioners=[
                    {
                        "type": "shell",
                        "inline": [
                            f"build-benchmark parsec {app}"
                            for app in apps
                        ],
                    }
                ],
            )
        ).image_hash

    assert make() == make()


# -------------------------------------------------------------- scheduler


def test_scheduler_stress_mixed_outcomes():
    app = SchedulerApp()

    @app.task(name="maybe")
    def maybe(n):
        if n % 5 == 0:
            raise RuntimeError(f"planned failure {n}")
        return n

    handles = [maybe.apply_async(args=(n,)) for n in range(100)]
    succeeded = failed = 0
    for n, handle in enumerate(handles):
        if handle.state == "SUCCESS":
            assert handle.get() == n
            succeeded += 1
        else:
            assert handle.state == "FAILURE"
            with pytest.raises(RuntimeError, match=f"planned failure {n}$"):
                handle.get()
            failed += 1
    assert succeeded == 80
    assert failed == 20
