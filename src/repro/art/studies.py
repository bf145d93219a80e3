"""The paper's three studies, each defined once: Fig 8's boot tests,
Figs 6/7's PARSEC OS study and Fig 9's GCN3 register-allocator study.

A builder registers a study's artifacts and returns an unlaunched
:class:`~repro.art.launch.Experiment` holding its points; the CLI, the
examples and the pipeline stages (which the benchmark fixtures run)
all start here.
Simulator, guest, GPU and resource code load in the builders' bodies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional, Sequence

from repro.art.artifact import (
    register_disk_image,
    register_gem5_binary,
    register_kernel_binary,
    register_repo,
)
from repro.art.launch import Experiment

if TYPE_CHECKING:
    from repro.art.db import ArtifactDB

#: Where every study's run scripts and disk-image templates come from.
RESOURCES_URL = "https://gem5.googlesource.com/public/gem5-resources"

#: Fig 8's axes, in run order inside each kernel's stack.
BOOT_AXES = {
    "boot_type": ("init", "systemd"),
    "cpu_type": ("kvm", "atomic", "timing", "o3"),
    "memory_system": ("classic", "MI_example", "MESI_Two_Level"),
    "num_cpus": (1, 2, 4, 8),
}

#: Figs 6/7: core counts, and the Ubuntu releases compared.
PARSEC_CPU_COUNTS = (1, 2, 8)
PARSEC_OSES = ("ubuntu-18.04", "ubuntu-20.04")


def register_boot_artifacts(
    db: ArtifactDB,
    kernels: Optional[Sequence[str]] = None,
    gem5_version: str = "v20.1.0.4",
    gem5_build: Optional[str] = None,
    resources_version: str = "c5f5c70",
    resource: str = "boot-exit",
) -> Dict[str, Any]:
    """Register Fig 8's artifacts (the paper's Fig 1): ``{role:
    artifact}`` for the roles every stack shares, plus ``"kernels"``:
    ``{version: artifact}`` (default: the five LTS kernels)."""
    from repro.guest import BOOT_TEST_KERNEL_VERSIONS, get_kernel
    from repro.resources import build_resource
    from repro.sim import Gem5Build

    gem5_repo = register_repo(db, "gem5", version=gem5_version)
    resources = register_repo(
        db, "gem5-resources", url=RESOURCES_URL, version=resources_version
    )
    # The binary tracks the repository's version unless pinned apart:
    # a same-hash registration under other attributes is refused.
    build = Gem5Build(version=gem5_build or gem5_version.lstrip("v"))
    return {
        "gem5": register_gem5_binary(db, build, inputs=[gem5_repo]),
        "gem5_git": gem5_repo,
        "run_script_git": resources,
        "disk_image": register_disk_image(
            db, build_resource(resource).image, inputs=[resources]
        ),
        "kernels": {
            version: register_kernel_binary(db, get_kernel(version))
            for version in (
                BOOT_TEST_KERNEL_VERSIONS if kernels is None else kernels
            )
        },
    }


def add_boot_stacks(experiment: Experiment, artifacts: Dict[str, Any]):
    """A ``linux-<version>`` stack per kernel of
    :func:`register_boot_artifacts`'s result."""
    shared = {r: a for r, a in artifacts.items() if r != "kernels"}
    for version, kernel in artifacts["kernels"].items():
        experiment.add_stack(f"linux-{version}", linux_binary=kernel, **shared)


def boot_tests(db: ArtifactDB, quick: bool = False) -> Experiment:
    """Fig 8: every LTS kernel × boot type × CPU model × memory system ×
    core count (480 runs); ``quick`` keeps one kernel and ``init`` (48)."""
    from repro.guest import BOOT_TEST_KERNEL_VERSIONS

    kernels = BOOT_TEST_KERNEL_VERSIONS[:1] if quick else None
    experiment = Experiment(db, "boot-tests")
    add_boot_stacks(experiment, register_boot_artifacts(db, kernels))
    experiment.sweep(**BOOT_AXES)
    if quick:  # a redeclared axis keeps its place in the run order
        experiment.sweep(boot_type=["init"])
    return experiment


def parsec_study(
    db: ArtifactDB, apps: Optional[Sequence[str]] = None
) -> Experiment:
    """Figs 6/7: PARSEC ``apps`` (default: the 10 working ones) on each
    Ubuntu release × {1, 2, 8} timing cores on MESI_Two_Level."""
    from repro.guest import get_distro
    from repro.resources import build_resource
    from repro.sim import Gem5Build
    from repro.sim.workload import PARSEC_WORKING_APPS

    gem5_repo = register_repo(db, "gem5", version="v20.1.0.4")
    resources_repo = register_repo(
        db, "gem5-resources", url=RESOURCES_URL, version="31924b6"
    )
    gem5_binary = register_gem5_binary(
        db, Gem5Build(version="20.1.0.4"), inputs=[gem5_repo]
    )
    experiment = Experiment(db, "parsec")
    for key in PARSEC_OSES:
        distro = get_distro(key)
        experiment.add_stack(
            key,
            gem5=gem5_binary,
            gem5_git=gem5_repo,
            run_script_git=resources_repo,
            linux_binary=register_kernel_binary(db, distro.kernel),
            disk_image=register_disk_image(
                db,
                build_resource("parsec", distro=key).image,
                inputs=[resources_repo],
                documentation=f"PARSEC on {distro.describe()}",
            ),
        )
    # Multi-core timing runs need Ruby: the classic memory system
    # rejects more than one timing requestor.
    experiment.fix(
        cpu_type="timing", memory_system="MESI_Two_Level",
        input_size="simmedium",
    )
    experiment.sweep(
        benchmark=apps or PARSEC_WORKING_APPS, num_cpus=PARSEC_CPU_COUNTS
    )
    return experiment


def gpu_regalloc_study(db: ArtifactDB) -> Experiment:
    """Fig 9: every workload the GCN-docker environment builds × the
    simple and dynamic register allocators, on the Table III GPU."""
    from repro.resources import build_resource
    from repro.sim import Gem5Build

    gem5_repo = register_repo(db, "gem5", version="v21.0")
    experiment = Experiment(db, "gpu")
    experiment.add_stack(
        "gcn3",
        gem5=register_gem5_binary(
            db,
            Gem5Build(version="21.0", isa="GCN3_X86"),
            name="gem5-gcn3",
            inputs=[gem5_repo],
            documentation="gem5 21.0 with the GCN3_X86 static "
            "configuration",
        ),
        gem5_git=gem5_repo,
    )
    experiment.sweep(
        workload=build_resource("GCN-docker").buildable_workloads(),
        register_allocator=("simple", "dynamic"),
    )
    return experiment
