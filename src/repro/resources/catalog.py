"""The gem5-resources catalog — the paper's Table I.

Every row of Table I is a :class:`Resource` with its type, description,
licensing rule and a builder that materializes the actual component:
disk images come from Packer templates, kernels from the kernel model,
the GPU environment from :mod:`repro.resources.environment`, and the GPU
benchmark suites from the workload registry.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common.errors import NotFoundError, ValidationError
from repro.common.records import Frozen
from repro.guest.kernels import (
    BOOT_TEST_KERNEL_VERSIONS,
    build_kernel_binary,
    get_kernel,
)
from repro.packer import build as packer_build
from repro.resources import templates


class Resource(Frozen):
    """One Table I row."""

    _fields = (
        "name", "rtype", "description", "redistributable", "requires_isa",
    )

    def __init__(
        self, name: str,
        rtype: str,  # "Benchmark", "Test", "Kernel", "Application", ...
        description: str,
        redistributable: bool = True,  # may built images ship? (SPEC: no)
        requires_isa: Optional[str] = None,  # the gem5 build it targets
    ):
        vars(self).update(
            name=name, rtype=rtype, description=description,
            redistributable=redistributable, requires_isa=requires_isa,
        )


def _gpu_suite_builder(suite: str) -> Callable:
    def build(**_kwargs) -> List[object]:
        from repro.gpu.workloads import WORKLOADS_BY_SUITE, get_gpu_workload

        return [
            get_gpu_workload(name)
            for name in WORKLOADS_BY_SUITE[suite]
        ]

    return build


def _image_builder(template_fn: Callable) -> Callable:
    def build(distro: str = "ubuntu-18.04", **_kwargs):
        return packer_build(template_fn(distro))

    return build


def _spec_builder(version: str) -> Callable:
    def build(iso_path: str = None, distro: str = "ubuntu-18.04", **_kw):
        if iso_path is None:
            raise ValidationError(
                f"spec-{version}: licensing forbids distributing "
                "pre-made disk images; supply iso_path= pointing at your "
                "licensed SPEC media (the build scripts are provided)"
            )
        return packer_build(
            templates.spec_template(version, iso_path, distro)
        )

    return build


def _linux_kernel_builder(**kwargs):
    versions = kwargs.get("versions", BOOT_TEST_KERNEL_VERSIONS)
    return {
        version: build_kernel_binary(get_kernel(version))
        for version in versions
    }


def _riscv_fs_builder(**_kwargs):
    kernel = get_kernel("5.4.49")
    bbl = b"BBL riscv-pk with payload " + build_kernel_binary(
        kernel, config="riscv-defconfig"
    )
    return {
        "bbl": bbl,
        "kernel_version": kernel.version,
        "documentation": (
            "berkeley boot loader with a Linux kernel payload for a "
            "riscv full-system target"
        ),
    }


def _gcn_docker_builder(**_kwargs):
    from repro.resources.environment import GCNDockerEnvironment

    return GCNDockerEnvironment()


class Gem5Test(Frozen):
    """One entry of the 'gem5 tests' resource."""

    _fields = ("name", "description", "requires_isa")

    def __init__(
        self, name: str, description: str, requires_isa: Optional[str] = None,
    ):
        vars(self).update(
            name=name, description=description, requires_isa=requires_isa,
        )


GEM5_TESTS = (
    Gem5Test(
        "asmtest",
        "a collection of RISC-V tests for instructions and syscalls",
        requires_isa="RISCV",
    ),
    Gem5Test(
        "insttest",
        "tests for SPARC instructions",
        requires_isa=None,  # SPARC builds are not modelled; runs anywhere
    ),
    Gem5Test(
        "riscv-tests",
        "RISC-V processor unit tests",
        requires_isa="RISCV",
    ),
    Gem5Test(
        "simple",
        "tests for m5ops and ARM semi-hosting",
        requires_isa=None,
    ),
    Gem5Test(
        "square",
        "test for squaring a vector of floats on AMD GPU",
        requires_isa="GCN3_X86",
    ),
)


def _gem5_tests_builder(**_kwargs):
    return list(GEM5_TESTS)


#: The Table I catalog.  Descriptions paraphrase the paper's table.
_CATALOG: Dict[str, Resource] = {}
_BUILDERS: Dict[str, Callable] = {}


def _register(resource: Resource, builder: Callable) -> None:
    _CATALOG[resource.name] = resource
    _BUILDERS[resource.name] = builder


_register(
    Resource(
        "boot-exit",
        "Benchmark / Test",
        "scripts and binaries completing and exiting a Linux boot with "
        "an Ubuntu 18.04 server user-land; the FS-mode test suite",
    ),
    _image_builder(templates.boot_exit_template),
)
_register(
    Resource(
        "gapbs",
        "Benchmark",
        "GAP Benchmark Suite (graph algorithms) runnable in FS mode",
    ),
    _image_builder(templates.gapbs_template),
)
_register(
    Resource(
        "hack-back",
        "Benchmark",
        "checkpoint after boot, then execute a host-provided script",
    ),
    _image_builder(templates.hack_back_template),
)
_register(
    Resource(
        "linux-kernel",
        "Kernel",
        "Linux kernel configurations and compiled kernels",
    ),
    _linux_kernel_builder,
)
_register(
    Resource(
        "npb",
        "Benchmark",
        "NAS Parallel Benchmarks runnable in FS mode",
    ),
    _image_builder(templates.npb_template),
)
_register(
    Resource(
        "parsec",
        "Benchmark",
        "Princeton Application Repository for Shared-Memory Computers "
        "(PARSEC) runnable in FS mode",
    ),
    _image_builder(templates.parsec_template),
)
_register(
    Resource(
        "riscv-fs",
        "Test",
        "riscv bbl (berkeley boot loader) with Linux payload and disk "
        "image for riscv full-system simulation",
        requires_isa="RISCV",
    ),
    _riscv_fs_builder,
)
_register(
    Resource(
        "spec-2006",
        "Benchmark",
        "SPEC CPU 2006 build scripts; licensing forbids pre-made images",
        redistributable=False,
    ),
    _spec_builder("2006"),
)
_register(
    Resource(
        "spec-2017",
        "Benchmark",
        "SPEC CPU 2017 build scripts; licensing forbids pre-made images",
        redistributable=False,
    ),
    _spec_builder("2017"),
)
_register(
    Resource(
        "GCN-docker",
        "Environment",
        "docker image with ROCm 1.6 and GCC 5.4 to build and run GPU "
        "applications on the GCN3_X86 gem5 variant",
        requires_isa="GCN3_X86",
    ),
    _gcn_docker_builder,
)
_register(
    Resource(
        "HeteroSync",
        "Benchmark",
        "fine-grained synchronization microbenchmarks for tightly-"
        "coupled GPUs (GCN3_X86)",
        requires_isa="GCN3_X86",
    ),
    _gpu_suite_builder("HeteroSync"),
)
_register(
    Resource(
        "DNNMark",
        "Benchmark",
        "primitive DNN-layer benchmark framework (GCN3_X86)",
        requires_isa="GCN3_X86",
    ),
    _gpu_suite_builder("DNNMark"),
)
_register(
    Resource(
        "halo-finder",
        "Application",
        "GPU-accelerated HACC halo finder (DoE cosmology proxy)",
        requires_isa="GCN3_X86",
    ),
    _gpu_suite_builder("halo-finder"),
)
_register(
    Resource(
        "Pennant",
        "Application",
        "unstructured-mesh mini-app for advanced architecture research",
        requires_isa="GCN3_X86",
    ),
    _gpu_suite_builder("pennant"),
)
_register(
    Resource(
        "LULESH",
        "Application",
        "DOE hydrodynamics proxy application",
        requires_isa="GCN3_X86",
    ),
    _gpu_suite_builder("lulesh"),
)
_register(
    Resource(
        "hip-samples",
        "Application",
        "HIP cookbook samples showcasing GPU programming concepts",
        requires_isa="GCN3_X86",
    ),
    _gpu_suite_builder("hip-samples"),
)
_register(
    Resource(
        "gem5 tests",
        "Test",
        "asmtest, insttest, riscv-tests, simple (m5ops), square (GPU)",
    ),
    _gem5_tests_builder,
)


def list_resources() -> List[Resource]:
    """All Table I rows, in catalog order."""
    return list(_CATALOG.values())


def get_resource(name: str) -> Resource:
    if name not in _CATALOG:
        raise NotFoundError(
            f"unknown resource {name!r}; known: {sorted(_CATALOG)}"
        )
    return _CATALOG[name]


def build_resource(name: str, **kwargs):
    """Materialize a resource (disk image, kernel set, environment, or
    workload list, depending on its kind)."""
    get_resource(name)  # raises on unknown
    return _BUILDERS[name](**kwargs)


def status_matrix(gem5_version: str = "20.1.0.4") -> Dict[str, str]:
    """Per-resource working status against a gem5 release — the
    http://resources.gem5.org page as a function.  A resource works on a
    release that builds its ISA; on an untracked release it is untested."""
    from repro.sim.buildinfo import RELEASES, release_of

    isas = release_of(gem5_version).isas
    if not isas:
        return {resource.name: "untested" for resource in list_resources()}
    status = {}
    for resource in list_resources():
        isa = resource.requires_isa
        if isa is None or isa in isas:
            status[resource.name] = "supported"
        else:
            first = next(r for r in RELEASES.values() if isa in r.isas)
            status[resource.name] = f"requires gem5 {first.version} ({isa})"
    return status
