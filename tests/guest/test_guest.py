"""Tests for the guest software stack models."""

import pytest

from repro.common.errors import NotFoundError
from repro.guest import (
    BOOT_TEST_KERNEL_VERSIONS,
    COMPILERS,
    DISTROS,
    build_kernel_binary,
    get_compiler,
    get_distro,
    get_kernel,
)


def test_paper_compilers_present():
    # Ubuntu 18.04 ships GCC 7.4, 20.04 ships GCC 9.3, gem5 built w/ 7.5.
    for key in ("gcc-7.4", "gcc-7.5", "gcc-9.3"):
        assert key in COMPILERS


def test_gcc93_codegen_tradeoff():
    """The paper: 20.04 binaries run MORE instructions at HIGHER
    utilization (fewer memory stalls)."""
    old = get_compiler("gcc-7.4")
    new = get_compiler("gcc-9.3")
    assert new.instruction_scale > old.instruction_scale
    assert new.memory_cpi_scale < old.memory_cpi_scale


def test_unknown_compiler():
    with pytest.raises(NotFoundError):
        get_compiler("clang-11")


def test_boot_test_kernels_are_five_lts():
    assert len(BOOT_TEST_KERNEL_VERSIONS) == 5
    for version in BOOT_TEST_KERNEL_VERSIONS:
        assert get_kernel(version).lts


def test_parsec_kernels_present():
    assert get_kernel("4.15.18").series == "4.15"
    assert get_kernel("5.4.51").series == "5.4"


def test_newer_kernels_schedule_better():
    ordered = [get_kernel(v) for v in BOOT_TEST_KERNEL_VERSIONS]
    efficiencies = [k.scheduler_efficiency for k in ordered]
    assert efficiencies == sorted(efficiencies)
    assert all(0 < e <= 1 for e in efficiencies)


def test_boot_phases_ordered_and_positive():
    kernel = get_kernel("5.4.49")
    names = [name for name, _ in kernel.boot_phases]
    assert names[0] == "early_setup"
    assert names[-1] == "start_init"
    assert all(count > 0 for _, count in kernel.boot_phases)


def test_newer_kernels_boot_more_code():
    def boot_instructions(version):
        return sum(count for _, count in get_kernel(version).boot_phases)

    assert boot_instructions("5.4.49") > boot_instructions("4.4.186")


def test_unknown_kernel():
    with pytest.raises(NotFoundError):
        get_kernel("2.6.32")


def test_kernel_binary_deterministic_and_distinct():
    kernel = get_kernel("5.4.49")
    one = build_kernel_binary(kernel)
    two = build_kernel_binary(kernel)
    other = build_kernel_binary(get_kernel("4.19.83"))
    custom = build_kernel_binary(kernel, config="no-smp")
    assert one == two
    assert one != other
    assert one != custom
    assert b"5.4.49" in one


def test_distros_paper_pair():
    assert set(DISTROS) == {"ubuntu-18.04", "ubuntu-20.04"}
    bionic = get_distro("18.04")
    focal = get_distro("ubuntu-20.04")
    assert bionic.kernel_version == "4.15.18"
    assert focal.kernel_version == "5.4.51"
    assert bionic.compiler.key == "gcc-7.4"
    assert focal.compiler.key == "gcc-9.3"


def test_distro_resolved_properties():
    focal = get_distro("20.04")
    assert focal.kernel.series == "5.4"
    assert "gcc-9" in focal.base_packages
    assert "20.04" in focal.describe()


def test_unknown_distro():
    with pytest.raises(NotFoundError):
        get_distro("21.10")
