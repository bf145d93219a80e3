"""Tests for the CPU models and workload descriptors."""

import pytest

from repro.common.errors import NotFoundError, ValidationError
from repro.guest.kernels import get_kernel
from repro.sim.cpu import (
    AtomicSimpleCPU,
    KvmCPU,
    O3CPU,
    TimingSimpleCPU,
    build_cpu_model,
)
from repro.sim.mem.hierarchy import MemoryTimings
from repro.sim.workload import (
    BOOT_TYPES,
    INPUT_SIZES,
    PARSEC_APPS,
    PARSEC_BROKEN_APPS,
    PARSEC_WORKING_APPS,
    Phase,
    Workload,
    boot_workload,
    get_parsec_workload,
)
from repro.sim.workload.parsec import get_parsec_app


TIMINGS = MemoryTimings(
    amat_cycles=5.0, dram_access_ratio=0.01, l1_miss_ratio=0.05
)


def test_model_factory():
    assert build_cpu_model("kvm") is KvmCPU
    assert build_cpu_model("atomic") is AtomicSimpleCPU
    assert build_cpu_model("timing") is TimingSimpleCPU
    assert build_cpu_model("o3") is O3CPU
    with pytest.raises(ValidationError):
        build_cpu_model("minor")


def test_atomic_ignores_memory_latency():
    assert AtomicSimpleCPU.cycles_per_instruction(0.3, TIMINGS) == 1.0


def test_timing_pays_full_memory_latency():
    cpi = TimingSimpleCPU.cycles_per_instruction(0.3, TIMINGS)
    assert cpi == pytest.approx(1.0 + 0.3 * 4.0)


def test_o3_overlaps_memory_latency():
    o3 = O3CPU.cycles_per_instruction(0.3, TIMINGS)
    timing = TimingSimpleCPU.cycles_per_instruction(0.3, TIMINGS)
    assert o3 < timing
    assert o3 > O3CPU.base_cpi


def test_o3_faster_base_than_inorder():
    assert O3CPU.base_cpi < TimingSimpleCPU.base_cpi


def test_kvm_does_not_model_timing():
    assert not KvmCPU.models_timing
    assert all(
        model.models_timing
        for model in (AtomicSimpleCPU, TimingSimpleCPU, O3CPU)
    )


def test_negative_access_rate_rejected():
    with pytest.raises(ValidationError):
        TimingSimpleCPU.cycles_per_instruction(-0.1, TIMINGS)


# ----------------------------------------------------------------- phases


def test_phase_validation():
    with pytest.raises(ValidationError):
        Phase(name="bad", instructions=-1)
    with pytest.raises(ValidationError):
        Phase(name="bad", instructions=1, parallelism=0)
    with pytest.raises(ValidationError):
        Phase(name="bad", instructions=1, locality=2.0)
    with pytest.raises(ValidationError):
        Phase(name="bad", instructions=1, sync_per_kinst=-1)


def test_workload_validation_and_totals():
    phase = Phase(name="p", instructions=100, parallelism=4)
    workload = Workload(name="w", phases=(phase, phase))
    assert workload.total_instructions() == 200
    with pytest.raises(ValidationError):
        Workload(name="", phases=(phase,))
    with pytest.raises(ValidationError):
        Workload(name="w", phases=())


# ----------------------------------------------------------------- parsec


def test_parsec_has_13_apps_3_broken():
    assert len(PARSEC_APPS) == 13
    assert set(PARSEC_BROKEN_APPS) == {"x264", "facesim", "canneal"}
    assert len(PARSEC_WORKING_APPS) == 10


def test_paper_workload_list_matches_table2():
    expected = {
        "blackscholes",
        "bodytrack",
        "dedup",
        "ferret",
        "fluidanimate",
        "freqmine",
        "raytrace",
        "streamcluster",
        "swaptions",
        "vips",
    }
    assert set(PARSEC_WORKING_APPS) == expected


def test_broken_apps_have_reasons():
    for name in PARSEC_BROKEN_APPS:
        assert get_parsec_app(name).broken_reason


def test_parsec_workload_structure():
    workload = get_parsec_workload("ferret")
    names = [phase.name for phase in workload.phases]
    assert names == ["init", "roi", "finish"]
    assert workload.phases[0].parallelism == 1
    assert workload.phases[1].parallelism > 8
    app = get_parsec_app("ferret")
    assert workload.total_instructions() == app.instructions


def test_input_sizes_scale():
    small = get_parsec_workload("vips", "simsmall")
    medium = get_parsec_workload("vips", "simmedium")
    large = get_parsec_workload("vips", "simlarge")
    assert (
        small.total_instructions()
        < medium.total_instructions()
        < large.total_instructions()
    )
    assert set(INPUT_SIZES) == {"simsmall", "simmedium", "simlarge"}


def test_unknown_app_and_size():
    with pytest.raises(NotFoundError):
        get_parsec_workload("doom")
    with pytest.raises(ValidationError):
        get_parsec_workload("vips", "simhuge")


def test_blackscholes_ferret_most_scheduler_sensitive():
    """The paper singles these out as benefiting most from the newer
    kernel's scheduler."""
    sensitivities = {
        name: get_parsec_app(name).imbalance_sensitivity
        for name in PARSEC_WORKING_APPS
    }
    top_two = sorted(sensitivities, key=sensitivities.get, reverse=True)[:2]
    assert set(top_two) == {"blackscholes", "ferret"}


# ------------------------------------------------------------------- boot


def test_boot_workload_kernel_only():
    kernel = get_kernel("5.4.49")
    workload = boot_workload(kernel, boot_type="init")
    assert all(p.name.startswith("kernel.") for p in workload.phases)
    assert workload.total_instructions() == sum(
        count for _, count in kernel.boot_phases
    )


def test_boot_workload_systemd_adds_userspace():
    kernel = get_kernel("5.4.49")
    init_only = boot_workload(kernel, boot_type="init")
    systemd = boot_workload(
        kernel, boot_type="systemd", init_instructions=100
    )
    assert len(systemd.phases) == len(init_only.phases) + 1
    assert systemd.phases[-1].name == "userspace.runlevel5"
    assert systemd.phases[-1].instructions == 100


def test_boot_types_constant():
    assert BOOT_TYPES == ("init", "systemd")
    with pytest.raises(ValidationError):
        boot_workload(get_kernel("5.4.49"), boot_type="grub")


def test_newer_kernel_boots_more_instructions():
    old = boot_workload(get_kernel("4.4.186"), "init")
    new = boot_workload(get_kernel("5.4.49"), "init")
    assert new.total_instructions() > old.total_instructions()
