"""Simulator build description.

gem5 is compiled from a source revision with a *static configuration* (ISA
and coherence-protocol selection baked in at scons time) into a simulator
binary.  :class:`Gem5Build` models that: it pins the version/revision and
static configuration and can emit a deterministic pseudo-binary for the
artifact layer to hash, matching Fig 3's registration example.
"""

from __future__ import annotations

from repro.common.errors import ValidationError
from repro.common.gitinfo import simulated_revision
from repro.common.hashing import md5_text
from repro.common.records import Frozen

#: ISAs the builds in the paper target.
ISAS = ("X86", "ARM", "RISCV", "GCN3_X86")

#: Build variants gem5 supports (opt is used throughout the paper).
VARIANTS = ("opt", "fast", "debug")

#: Upstream repository URL, recorded in artifact provenance.
GEM5_REPO_URL = "https://gem5.googlesource.com/public/gem5"


class Release(Frozen):
    """What the model knows about one gem5 release.

    ``isas`` are the ISAs the release builds, ``memory_stall_scale`` its
    timing notes (v21.0 corrected an undersized DRAM access cost in
    v20.1's memory controller, so identical systems report slightly more
    memory stall time on the newer release: the cross-version comparison
    the paper's introduction calls for), and ``fixes`` the bug ids of
    the fault model (:mod:`repro.sim.faults`) it resolved.  A release
    the model does not track is ``Release(version)``: no ISA known, so
    every resource is untested, identity timing, no fixes.
    """

    _fields = ("version", "isas", "memory_stall_scale", "fixes")

    def __init__(
        self, version: str, isas: tuple = (),
        memory_stall_scale: float = 1.0, fixes: tuple = (),
    ):
        vars(self).update(
            version=version, isas=isas,
            memory_stall_scale=memory_stall_scale, fixes=fixes,
        )


def _release_key(version: str) -> str:
    while version.endswith(".0"):
        version = version[:-2]
    return version


#: The releases the paper's use cases exercise, by :func:`release_of` key.
RELEASES = {
    _release_key(release.version): release
    for release in (
        Release("20.1.0.4", ("X86", "ARM", "RISCV")),
        Release("21.0", ISAS, 1.05, ("GEM5-782",)),
    )
}


def release_of(version: str) -> Release:
    """The release a version string names.  Two strings name the same
    release when they agree once trailing ``.0`` components are dropped
    (``21.0.0.0`` is ``21.0``); any other string is untracked."""
    return RELEASES.get(_release_key(version)) or Release(version)


def timing_profile(version: str) -> dict:
    """Per-release timing adjustments (identity for untracked releases)."""
    return {"memory_stall_scale": release_of(version).memory_stall_scale}


class Gem5Build(Frozen):
    """A (version, ISA, variant) static configuration of the simulator."""

    _fields = ("version", "isa", "variant")

    def __init__(
        self, version: str = "20.1.0.4", isa: str = "X86",
        variant: str = "opt",
    ):
        if isa not in ISAS:
            raise ValidationError(f"unknown ISA {isa!r}; one of {ISAS}")
        if variant not in VARIANTS:
            raise ValidationError(
                f"unknown variant {variant!r}; one of {VARIANTS}"
            )
        if not version:
            raise ValidationError("version must be non-empty")
        vars(self).update(version=version, isa=isa, variant=variant)

    @property
    def binary_name(self) -> str:
        """E.g. ``build/X86/gem5.opt``, as in the paper's Fig 3."""
        return f"build/{self.isa}/gem5.{self.variant}"

    @property
    def revision(self) -> str:
        """The source revision this build pins (simulated, stable)."""
        return simulated_revision(GEM5_REPO_URL, f"v{self.version}")

    def scons_command(self) -> str:
        """The build command an artifact registration would document."""
        return (
            f"cd gem5; git checkout {self.revision[:20]}; "
            f"scons {self.binary_name} -j8"
        )

    def build_binary(self) -> bytes:
        """Deterministic pseudo-binary for this static configuration."""
        header = (
            f"GEM5 {self.version} {self.isa} {self.variant} "
            f"rev={self.revision}\n"
        )
        body = md5_text(header) * 32
        return header.encode("ascii") + body.encode("ascii")
