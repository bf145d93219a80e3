"""Linux kernel models.

Each :class:`LinuxKernel` carries the properties the simulator consumes:

- the *boot phase* breakdown (how many instructions each boot stage retires,
  per the kernel generation), used by the full-system boot sequencer;
- a *scheduler efficiency* coefficient capturing CFS improvements across
  kernel generations — newer kernels place and balance threads better, which
  is one of the paper's explanations for Ubuntu 20.04's better multi-core
  speedups (Fig 7);
- a deterministic ``vmlinux`` build so kernel binaries are hashable
  artifacts.

The five LTS versions used by the boot-test cross product (Fig 8) and the
two distro kernels used by the PARSEC study (Fig 6/7) are registered here.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.errors import NotFoundError
from repro.common.hashing import md5_text
from repro.common.records import Frozen


class LinuxKernel(Frozen):
    """An immutable description of one Linux kernel version."""

    _fields = (
        "version", "series", "lts", "boot_phases", "scheduler_efficiency",
        "syscall_cost_scale",
    )

    def __init__(
        self,
        version: str,
        series: str,  # major.minor, e.g. "4.19"
        lts: bool,
        # (phase name, instructions retired on the boot CPU) in boot order
        boot_phases: Tuple[Tuple[str, int], ...],
        scheduler_efficiency: float,  # of ideal multi-core scaling, 0..1
        syscall_cost_scale: float = 1.0,  # syscall/IO path, 1.0 is 4.15's
    ):
        vars(self).update(
            version=version, series=series, lts=lts, boot_phases=boot_phases,
            scheduler_efficiency=scheduler_efficiency,
            syscall_cost_scale=syscall_cost_scale,
        )

    @property
    def key(self) -> str:
        return f"linux-{self.version}"


def _phases(scale: float) -> Tuple[Tuple[str, int], ...]:
    """Standard boot phase breakdown, scaled per kernel generation.

    Newer kernels initialize more subsystems (more code run at boot) —
    hence scale grows with the series.
    """
    base = (
        ("early_setup", 18_000_000),
        ("memory_init", 42_000_000),
        ("scheduler_init", 9_000_000),
        ("driver_probe", 110_000_000),
        ("mount_root", 35_000_000),
        ("start_init", 16_000_000),
    )
    return tuple((name, int(count * scale)) for name, count in base)


KERNELS: Dict[str, LinuxKernel] = {
    kernel.version: kernel
    for kernel in (
        LinuxKernel(
            version="4.4.186",
            series="4.4",
            lts=True,
            boot_phases=_phases(0.85),
            scheduler_efficiency=0.80,
            syscall_cost_scale=1.05,
        ),
        LinuxKernel(
            version="4.9.186",
            series="4.9",
            lts=True,
            boot_phases=_phases(0.90),
            scheduler_efficiency=0.83,
            syscall_cost_scale=1.03,
        ),
        LinuxKernel(
            version="4.14.134",
            series="4.14",
            lts=True,
            boot_phases=_phases(0.95),
            scheduler_efficiency=0.86,
            syscall_cost_scale=1.01,
        ),
        LinuxKernel(
            version="4.15.18",
            series="4.15",
            lts=False,  # Ubuntu 18.04's HWE kernel line
            boot_phases=_phases(0.97),
            scheduler_efficiency=0.87,
            syscall_cost_scale=1.00,
        ),
        LinuxKernel(
            version="4.19.83",
            series="4.19",
            lts=True,
            boot_phases=_phases(1.00),
            scheduler_efficiency=0.89,
            syscall_cost_scale=0.99,
        ),
        LinuxKernel(
            version="5.4.49",
            series="5.4",
            lts=True,
            boot_phases=_phases(1.08),
            scheduler_efficiency=0.93,
            syscall_cost_scale=0.97,
        ),
        LinuxKernel(
            version="5.4.51",
            series="5.4",
            lts=True,
            boot_phases=_phases(1.08),
            scheduler_efficiency=0.93,
            syscall_cost_scale=0.97,
        ),
    )
}

#: The five LTS kernels swept by the Fig 8 boot-test cross product.
BOOT_TEST_KERNEL_VERSIONS: List[str] = [
    "4.4.186",
    "4.9.186",
    "4.14.134",
    "4.19.83",
    "5.4.49",
]


def get_kernel(version: str) -> LinuxKernel:
    if version not in KERNELS:
        raise NotFoundError(
            f"unknown kernel {version!r}; known: {sorted(KERNELS)}"
        )
    return KERNELS[version]


def build_kernel_binary(kernel: LinuxKernel, config: str = "default") -> bytes:
    """Produce a deterministic pseudo-``vmlinux`` for the kernel+config.

    The binary embeds a header naming the version and a body derived from
    the (version, config) pair, so distinct builds hash differently while
    repeated builds are bit-identical — exactly the property the artifact
    layer needs.
    """
    header = f"VMLINUX {kernel.version} config={config}\n"
    body = md5_text(f"{kernel.version}/{config}") * 64
    return header.encode("ascii") + body.encode("ascii")
