"""Tests for the gem5-resources catalog (Table I)."""

import pytest

from repro.common.errors import NotFoundError, ValidationError
from repro.gpu.workloads import GPUWorkload
from repro.packer.build import BuildResult
from repro.resources import (
    GCNDockerEnvironment,
    GEM5_TESTS,
    build_resource,
    get_resource,
    list_resources,
    status_matrix,
)


TABLE1_NAMES = {
    "boot-exit",
    "gapbs",
    "hack-back",
    "linux-kernel",
    "npb",
    "parsec",
    "riscv-fs",
    "spec-2006",
    "spec-2017",
    "GCN-docker",
    "HeteroSync",
    "DNNMark",
    "halo-finder",
    "Pennant",
    "LULESH",
    "hip-samples",
    "gem5 tests",
}


def test_catalog_matches_table1():
    assert {r.name for r in list_resources()} == TABLE1_NAMES
    assert len(list_resources()) == 17


def test_resource_types():
    assert get_resource("boot-exit").rtype == "Benchmark / Test"
    assert get_resource("linux-kernel").rtype == "Kernel"
    assert get_resource("GCN-docker").rtype == "Environment"
    assert get_resource("LULESH").rtype == "Application"
    assert get_resource("parsec").rtype == "Benchmark"


def test_unknown_resource():
    with pytest.raises(NotFoundError):
        get_resource("coremark")
    with pytest.raises(NotFoundError):
        build_resource("coremark")


def test_build_parsec_image():
    result = build_resource("parsec", distro="ubuntu-20.04")
    assert isinstance(result, BuildResult)
    image = result.image
    assert image.metadata["compiler"] == "gcc-9.3"
    built = {entry["app"] for entry in image.metadata["benchmarks"]}
    assert "ferret" in built
    assert "x264" in built  # broken apps are installed; they fail at run
    assert len(built) == 13


def test_build_boot_exit_image():
    image = build_resource("boot-exit").image
    assert dict(image.walk())["/home/gem5/exit.sh"].executable
    assert b"m5 exit" in image.read_file("/home/gem5/exit.sh")


def test_build_hack_back_image():
    image = build_resource("hack-back").image
    assert b"m5 checkpoint" in image.read_file(
        "/home/gem5/hack_back_ckpt.rcS"
    )


def test_build_npb_gapbs_images():
    npb = build_resource("npb").image
    gapbs = build_resource("gapbs").image
    assert {e["app"] for e in npb.metadata["benchmarks"]} == {
        "bt", "cg", "ep", "ft", "is", "lu", "mg", "sp",
    }
    assert {e["app"] for e in gapbs.metadata["benchmarks"]} == {
        "bc", "bfs", "cc", "pr", "sssp", "tc",
    }


def test_build_linux_kernels():
    kernels = build_resource("linux-kernel")
    assert set(kernels) == {
        "4.4.186", "4.9.186", "4.14.134", "4.19.83", "5.4.49",
    }
    assert all(isinstance(blob, bytes) for blob in kernels.values())


def test_build_riscv_fs():
    result = build_resource("riscv-fs")
    assert result["bbl"].startswith(b"BBL")
    assert result["kernel_version"] == "5.4.49"


def test_spec_requires_licensed_media():
    resource = get_resource("spec-2017")
    assert not resource.redistributable
    with pytest.raises(ValidationError) as excinfo:
        build_resource("spec-2017")
    assert "licens" in str(excinfo.value).lower()
    result = build_resource("spec-2017", iso_path="/media/spec2017.iso")
    assert result.image.metadata["installed_from_iso"] == (
        "/media/spec2017.iso"
    )


def test_gpu_suites_return_workloads():
    heterosync = build_resource("HeteroSync")
    assert len(heterosync) == 8
    assert all(isinstance(w, GPUWorkload) for w in heterosync)
    assert len(build_resource("DNNMark")) == 10
    assert [w.name for w in build_resource("Pennant")] == ["PENNANT"]


def test_gem5_tests_resource():
    tests = build_resource("gem5 tests")
    assert tests == list(GEM5_TESTS)
    names = {t.name for t in tests}
    assert names == {"asmtest", "insttest", "riscv-tests", "simple", "square"}
    square = next(t for t in tests if t.name == "square")
    assert square.requires_isa == "GCN3_X86"


def test_status_matrix_versions():
    v20 = status_matrix("20.1.0.4")
    assert v20["parsec"] == "supported"
    assert "21.0" in v20["GCN-docker"]
    v21 = status_matrix("21.0")
    assert v21["GCN-docker"] == "supported"
    unknown = status_matrix("19.0")
    assert set(unknown.values()) == {"untested"}


def test_gcn_docker_environment():
    env = build_resource("GCN-docker")
    assert isinstance(env, GCNDockerEnvironment)
    env.validate_stack()
    workloads = env.buildable_workloads()
    assert "FAMutex" in workloads
    assert "PENNANT" in workloads
    assert len(workloads) == 29
    dockerfile = env.dockerfile()
    assert "install-rocm --version 1.6" in dockerfile
    assert env.image_hash() == env.image_hash()


def test_gcn_docker_detects_broken_stack():
    env = GCNDockerEnvironment()
    env.stack = {"rocm": "3.0", "gcc": "5.4"}
    with pytest.raises(ValidationError):
        env.validate_stack()
    env.stack = {}
    with pytest.raises(ValidationError):
        env.validate_stack()


def test_image_builds_are_deterministic():
    one = build_resource("parsec").image_hash
    two = build_resource("parsec").image_hash
    assert one == two
