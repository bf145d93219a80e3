"""Simulator build description.

gem5 is compiled from a source revision with a *static configuration* (ISA
and coherence-protocol selection baked in at scons time) into a simulator
binary.  :class:`Gem5Build` models that: it pins the version/revision and
static configuration and can emit a deterministic pseudo-binary for the
artifact layer to hash, matching Fig 3's registration example.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ValidationError
from repro.common.gitinfo import simulated_revision
from repro.common.hashing import md5_text

#: ISAs the builds in the paper target.
ISAS = ("X86", "ARM", "RISCV", "GCN3_X86")

#: Build variants gem5 supports (opt is used throughout the paper).
VARIANTS = ("opt", "fast", "debug")

#: The gem5 releases exercised by the paper's use cases.
KNOWN_VERSIONS = ("20.1.0.4", "21.0")

#: Upstream repository URL, recorded in artifact provenance.
GEM5_REPO_URL = "https://gem5.googlesource.com/public/gem5"

#: Timing-fidelity differences between simulator releases, as a
#: release-notes model: v21.0 corrected an undersized DRAM access cost in
#: v20.1's memory controller, so identical systems report slightly more
#: memory stall time on the newer release.  This is what lets users run
#: the cross-version comparison studies the paper's introduction calls
#: for ("preferably, compare how new versions of these components impact
#: performance").
VERSION_TIMING = {
    "20.1.0.4": {"memory_stall_scale": 1.00},
    "21.0": {"memory_stall_scale": 1.05},
}


def timing_profile(version: str) -> dict:
    """Per-release timing adjustments (identity for unknown versions)."""
    return dict(VERSION_TIMING.get(version, {"memory_stall_scale": 1.0}))


@dataclass(frozen=True)
class Gem5Build:
    """A (version, ISA, variant) static configuration of the simulator."""

    version: str = "20.1.0.4"
    isa: str = "X86"
    variant: str = "opt"

    def __post_init__(self):
        if self.isa not in ISAS:
            raise ValidationError(f"unknown ISA {self.isa!r}; one of {ISAS}")
        if self.variant not in VARIANTS:
            raise ValidationError(
                f"unknown variant {self.variant!r}; one of {VARIANTS}"
            )
        if not self.version:
            raise ValidationError("version must be non-empty")

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
