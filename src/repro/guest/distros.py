"""OS distribution models.

An :class:`UbuntuRelease` ties together the facts the PARSEC study (use-case
1) varies: which kernel the release ships, which GCC builds its packages,
and how much work its init system does to reach each runlevel.  The paper
compares the two most recent LTS releases, 18.04 and 20.04.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.common.errors import NotFoundError
from repro.common.records import Frozen
from repro.guest.compilers import Compiler, get_compiler
from repro.guest.kernels import LinuxKernel, get_kernel


class UbuntuRelease(Frozen):
    """An immutable description of one Ubuntu LTS userland."""

    _fields = (
        "name", "version", "codename", "released", "kernel_version",
        "compiler_key", "init_instructions", "base_packages",
    )

    def __init__(
        self, name: str, version: str, codename: str,
        released: str,  # YYYY-MM
        kernel_version: str, compiler_key: str,
        # Instructions userspace init retires to reach runlevel 5 (systemd
        # grew between releases).
        init_instructions: int,
        base_packages: Tuple[str, ...],  # recorded in built disk images
    ):
        vars(self).update(
            name=name, version=version, codename=codename, released=released,
            kernel_version=kernel_version, compiler_key=compiler_key,
            init_instructions=init_instructions, base_packages=base_packages,
        )

    @property
    def key(self) -> str:
        return f"ubuntu-{self.version}"

    @property
    def kernel(self) -> LinuxKernel:
        return get_kernel(self.kernel_version)

    @property
    def compiler(self) -> Compiler:
        return get_compiler(self.compiler_key)

    def describe(self) -> str:
        return (
            f"Ubuntu {self.version} ({self.codename}), kernel "
            f"{self.kernel_version}, {self.compiler.describe()}"
        )


DISTROS: Dict[str, UbuntuRelease] = {
    distro.key: distro
    for distro in (
        UbuntuRelease(
            name="Ubuntu",
            version="18.04",
            codename="bionic",
            released="2018-04",
            kernel_version="4.15.18",
            compiler_key="gcc-7.4",
            init_instructions=240_000_000,
            base_packages=(
                "systemd",
                "openssh-server",
                "gcc-7",
                "libc6",
                "coreutils",
            ),
        ),
        UbuntuRelease(
            name="Ubuntu",
            version="20.04",
            codename="focal",
            released="2020-04",
            kernel_version="5.4.51",
            compiler_key="gcc-9.3",
            init_instructions=265_000_000,
            base_packages=(
                "systemd",
                "openssh-server",
                "gcc-9",
                "libc6",
                "coreutils",
            ),
        ),
    )
}


def get_distro(key: str) -> UbuntuRelease:
    """Look up a release by key, accepting 'ubuntu-18.04' or '18.04'."""
    if key in DISTROS:
        return DISTROS[key]
    qualified = f"ubuntu-{key}"
    if qualified in DISTROS:
        return DISTROS[qualified]
    raise NotFoundError(
        f"unknown distro {key!r}; known: {sorted(DISTROS)}"
    )
