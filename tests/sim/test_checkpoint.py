"""Tests for boot checkpoints (the hack-back workflow)."""

import pytest

from repro.common.errors import ValidationError
from repro.resources import build_resource
from repro.sim import (
    Checkpoint,
    Gem5Build,
    Gem5Simulator,
    SimulationStatus,
    SystemConfig,
)


@pytest.fixture(scope="module")
def parsec_image():
    return build_resource("parsec", distro="ubuntu-18.04").image


def test_take_checkpoint(parsec_image):
    simulator = Gem5Simulator(Gem5Build(), SystemConfig(cpu_type="atomic"))
    checkpoint, result = simulator.take_boot_checkpoint(
        "4.15.18", parsec_image
    )
    assert result.ok
    assert checkpoint.boot_seconds == result.boot_seconds
    assert checkpoint.kernel_version == "4.15.18"
    assert checkpoint.disk_image_hash == parsec_image.content_hash()
    # SHA-256 hex, like every other identity in the system.
    assert len(checkpoint.checkpoint_id) == 64


def test_checkpoint_fails_like_a_boot(parsec_image):
    """Taking a checkpoint on an unsupported config reports the same
    failure a plain boot would."""
    simulator = Gem5Simulator(
        Gem5Build(), SystemConfig(cpu_type="timing", num_cpus=2)
    )
    checkpoint, result = simulator.take_boot_checkpoint(
        "4.15.18", parsec_image
    )
    assert checkpoint is None
    assert result.status is SimulationStatus.UNSUPPORTED


def test_restore_skips_boot(parsec_image):
    atomic = Gem5Simulator(Gem5Build(), SystemConfig(cpu_type="atomic"))
    checkpoint, _ = atomic.take_boot_checkpoint("4.15.18", parsec_image)

    timing = Gem5Simulator(Gem5Build(), SystemConfig(cpu_type="timing"))
    cold = timing.run_fs("4.15.18", parsec_image, benchmark="ferret")
    restored = timing.run_fs(
        "4.15.18",
        parsec_image,
        benchmark="ferret",
        restore_from=checkpoint,
    )
    assert restored.ok
    # Boot time reported from the (cheap atomic) checkpoint, not
    # re-simulated under the expensive timing CPU.
    assert restored.boot_seconds == checkpoint.boot_seconds
    assert restored.boot_seconds < cold.boot_seconds
    # The workload itself is identical either way.
    assert restored.workload_seconds == pytest.approx(
        cold.workload_seconds
    )


def test_restore_cpu_switch_is_the_point(parsec_image):
    """Boot under kvm, measure under O3 — the canonical gem5 pattern."""
    kvm = Gem5Simulator(Gem5Build(), SystemConfig(cpu_type="kvm"))
    checkpoint, _ = kvm.take_boot_checkpoint("5.4.51", parsec_image)
    o3 = Gem5Simulator(Gem5Build(), SystemConfig(cpu_type="o3"))
    # Note: the fault model still applies to the restored run itself.
    result = o3.run_fs(
        "5.4.51", parsec_image, restore_from=checkpoint,
        boot_type="systemd",
    )
    assert result.ok


def test_restore_rejects_wrong_kernel(parsec_image):
    atomic = Gem5Simulator(Gem5Build(), SystemConfig(cpu_type="atomic"))
    checkpoint, _ = atomic.take_boot_checkpoint("4.15.18", parsec_image)
    with pytest.raises(ValidationError):
        atomic.run_fs(
            "5.4.51", parsec_image, restore_from=checkpoint
        )


def test_restore_rejects_wrong_image(parsec_image):
    atomic = Gem5Simulator(Gem5Build(), SystemConfig(cpu_type="atomic"))
    checkpoint, _ = atomic.take_boot_checkpoint("4.15.18", parsec_image)
    other_image = build_resource("parsec", distro="ubuntu-20.04").image
    with pytest.raises(ValidationError):
        atomic.run_fs(
            "4.15.18", other_image, restore_from=checkpoint
        )


def test_restore_rejects_wrong_platform(parsec_image):
    atomic = Gem5Simulator(Gem5Build(), SystemConfig(cpu_type="atomic"))
    checkpoint, _ = atomic.take_boot_checkpoint("4.15.18", parsec_image)
    bigger = Gem5Simulator(
        Gem5Build(),
        SystemConfig(
            cpu_type="timing", num_cpus=8, memory_system="MESI_Two_Level"
        ),
    )
    with pytest.raises(ValidationError) as excinfo:
        bigger.run_fs(
            "4.15.18", parsec_image, restore_from=checkpoint
        )
    assert "num_cpus" in str(excinfo.value)


def test_checkpoint_serialization_roundtrip(parsec_image):
    atomic = Gem5Simulator(Gem5Build(), SystemConfig(cpu_type="atomic"))
    checkpoint, _ = atomic.take_boot_checkpoint("4.15.18", parsec_image)
    clone = Checkpoint.from_dict(checkpoint.to_dict())
    assert clone == checkpoint
    assert clone.checkpoint_id == checkpoint.checkpoint_id


GOOD_IDENTITY = dict(
    kernel_version="4.15.18",
    disk_image_hash="d" * 32,
    num_cpus=2,
    memory_system="MESI_Two_Level",
)


def identity_checkpoint():
    return Checkpoint(
        boot_type="systemd",
        boot_seconds=9.0,
        boot_instructions=1_000_000,
        **GOOD_IDENTITY,
    )


def test_check_compatible_accepts_exact_identity():
    identity_checkpoint().check_compatible(**GOOD_IDENTITY)


@pytest.mark.parametrize(
    "field,value,needle",
    [
        ("kernel_version", "5.4.51", "kernel"),
        ("disk_image_hash", "f" * 32, "disk image"),
        ("num_cpus", 8, "num_cpus"),
        ("memory_system", "MI_example", "memory system"),
    ],
)
def test_check_compatible_mismatch_matrix(field, value, needle):
    mismatched = dict(GOOD_IDENTITY)
    mismatched[field] = value
    with pytest.raises(ValidationError) as excinfo:
        identity_checkpoint().check_compatible(**mismatched)
    assert needle in str(excinfo.value)


def test_check_compatible_reports_every_mismatch_at_once():
    with pytest.raises(ValidationError) as excinfo:
        identity_checkpoint().check_compatible(
            kernel_version="5.4.51",
            disk_image_hash="f" * 32,
            num_cpus=8,
            memory_system="MI_example",
        )
    message = str(excinfo.value)
    for needle in ("kernel", "disk image", "num_cpus", "memory system"):
        assert needle in message


def test_restored_measured_region_matches_full_boot(parsec_image):
    """The determinism contract restore rides on: the measured-region
    statistics of a checkpoint-restored run fingerprint identically to
    the same run booted in full."""
    kvm = Gem5Simulator(Gem5Build(), SystemConfig(cpu_type="kvm"))
    checkpoint, _ = kvm.take_boot_checkpoint("4.15.18", parsec_image)

    timing = Gem5Simulator(Gem5Build(), SystemConfig(cpu_type="timing"))
    cold = timing.run_fs("4.15.18", parsec_image, benchmark="ferret")
    restored = timing.run_fs(
        "4.15.18",
        parsec_image,
        benchmark="ferret",
        restore_from=checkpoint,
    )
    assert cold.ok and restored.ok

    def measured_region(result):
        """The statistics attributable to the workload, not the boot."""
        region = {
            name: value
            for name, value in result.stats.items()
            if name.startswith(f"{result.workload_name}.")
            or name == "roi_seconds"
        }
        region["workload_seconds"] = result.workload_seconds
        return region

    assert measured_region(restored) == measured_region(cold)
    assert len(measured_region(cold)) > 2
    # ...while the full stats dumps legitimately differ: only the full
    # boot accumulates boot-attributed statistics.
    assert restored.stats_txt() != cold.stats_txt()


def test_checkpoint_id_depends_on_identity(parsec_image):
    atomic = Gem5Simulator(Gem5Build(), SystemConfig(cpu_type="atomic"))
    one, _ = atomic.take_boot_checkpoint("4.15.18", parsec_image)
    two, _ = atomic.take_boot_checkpoint(
        "4.15.18", parsec_image, boot_type="init"
    )
    assert one.checkpoint_id != two.checkpoint_id
