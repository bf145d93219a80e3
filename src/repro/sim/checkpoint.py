"""Simulation checkpoints.

The ``hack-back`` resource (Table I) exists for one workflow: boot Linux
once — usually under a fast CPU model — take a checkpoint via the ``m5
checkpoint`` op, then restore it under a detailed CPU to run the region of
interest without paying for the boot again.  :class:`Checkpoint` captures
the state identity needed to make restoration safe:

- the kernel, boot type and disk image the boot used (restoring a
  checkpoint onto different guest state would be silently wrong);
- the platform shape (core count and memory system — gem5 checkpoints are
  not portable across these);
- the boot outcome (simulated time and instructions, reported by restored
  runs without re-simulation).

CPU *type* is deliberately not part of the identity: switching from a
kvm/atomic boot to a timing/O3 measurement CPU is the whole point.
"""

from __future__ import annotations

from functools import cached_property

from repro.common.errors import ValidationError
from repro.common.hashing import sha256_text
from repro.common.records import Frozen


class Checkpoint(Frozen):
    """A completed-boot snapshot with its compatibility identity."""

    _fields = (
        "kernel_version", "boot_type", "disk_image_hash", "num_cpus",
        "memory_system", "boot_seconds", "boot_instructions",
    )

    def __init__(
        self, kernel_version: str, boot_type: str, disk_image_hash: str,
        num_cpus: int, memory_system: str, boot_seconds: float,
        boot_instructions: int,
    ):
        vars(self).update(
            kernel_version=kernel_version, boot_type=boot_type,
            disk_image_hash=disk_image_hash, num_cpus=num_cpus,
            memory_system=memory_system, boot_seconds=boot_seconds,
            boot_instructions=boot_instructions,
        )

    @cached_property
    def checkpoint_id(self) -> str:
        """Stable content identity (registerable as an artifact).

        SHA-256, like every other identity in the system (RunSpec
        fingerprints, run-cache keys, FileStore addresses); the md5
        helpers remain only for legacy resource metadata.  Cached — the
        fields are frozen, and restored runs consult the id per repeat.
        """
        return sha256_text(
            "|".join(
                [
                    self.kernel_version,
                    self.boot_type,
                    self.disk_image_hash,
                    str(self.num_cpus),
                    self.memory_system,
                ]
            )
        )

    def check_compatible(
        self,
        kernel_version: str,
        disk_image_hash: str,
        num_cpus: int,
        memory_system: str,
    ) -> None:
        """Raise when restoring onto mismatched guest or platform state."""
        mismatches = []
        if kernel_version != self.kernel_version:
            mismatches.append(
                f"kernel {kernel_version} != {self.kernel_version}"
            )
        if disk_image_hash != self.disk_image_hash:
            mismatches.append("disk image differs from checkpointed image")
        if num_cpus != self.num_cpus:
            mismatches.append(
                f"num_cpus {num_cpus} != {self.num_cpus}"
            )
        if memory_system != self.memory_system:
            mismatches.append(
                f"memory system {memory_system} != {self.memory_system}"
            )
        if mismatches:
            raise ValidationError(
                "checkpoint incompatible with this run: "
                + "; ".join(mismatches)
            )

    def to_dict(self) -> dict:
        fields = dict(zip(self._fields, self._values()))
        return {"checkpoint_id": self.checkpoint_id, **fields}

    @classmethod
    def from_dict(cls, data: dict) -> "Checkpoint":
        return cls(**{name: data[name] for name in cls._fields})
