"""RunSpec — the content-addressed intermediate representation of a run.

The paper's central identity claim is that a run is *uniquely determined
by the hashes of its inputs*: the artifacts it consumes, the parameters
handed to the run script, and the simulator build that executes it.
:class:`RunSpec` makes that claim structural.  It is a frozen,
order-independent description of one simulation point:

- ``kind`` — ``"fs"`` or ``"gpu"``;
- ``artifacts`` — role name → *content hash* (not UUID: two databases
  that registered the same bytes under different instance ids still
  agree on the hash, so they agree on the fingerprint);
- ``params`` — the run-script parameters, canonicalized;
- ``build`` — the simulator's static configuration (version/ISA/variant).

``fingerprint()`` serializes the spec to canonical JSON (sorted keys,
normalized numbers — see :func:`repro.common.jsonutil.canonical_dumps`)
and hashes it with SHA-256 through :mod:`repro.common.hashing`.  Equal
specs produce equal fingerprints regardless of dict insertion order,
sweep-axis declaration order, or int-vs-float parameter spelling; the
fingerprint is therefore the *identity key* of a run, while the run's
UUID remains merely its instance id.  The result-memoization layer
(:mod:`repro.art.cache`) and the planner's coalescing of duplicate runs
key on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.common.errors import ValidationError
from repro.common.hashing import sha256_text
from repro.common.jsonutil import canonical_dumps

#: Bumped whenever the canonical serialization changes shape, so old
#: fingerprints can never silently alias new ones.
SPEC_SCHEMA_VERSION = 1

#: Bumped independently of :data:`SPEC_SCHEMA_VERSION` whenever the
#: *prefix* serialization changes shape — prefix fingerprints key boot
#: checkpoints, and an old checkpoint must never alias a new prefix.
PREFIX_SCHEMA_VERSION = 1

#: Run kinds a spec may describe.
KNOWN_KINDS = ("fs", "gpu")

#: Artifact roles that determine the booted guest state.  The gem5
#: binary/repo and run script are excluded: they shape the *measured*
#: region, not the kernel+disk state a checkpoint snapshots.
PREFIX_ARTIFACT_ROLES = ("linux_binary", "disk_image")

#: Parameters that determine the booted platform shape.  This is exactly
#: the :class:`repro.sim.checkpoint.Checkpoint` compatibility identity
#: (core count, memory system) plus the boot path taken to get there.
#: CPU type is deliberately excluded — booting under kvm and restoring
#: under O3 is the whole point of checkpointing.
PREFIX_PARAM_KEYS = ("num_cpus", "memory_system", "boot_type")


@dataclass(frozen=True)
class RunSpec:
    """A frozen, order-independent description of one run."""

    kind: str
    artifacts: Mapping[str, str] = field(default_factory=dict)
    params: Mapping[str, object] = field(default_factory=dict)
    build: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KNOWN_KINDS:
            raise ValidationError(
                f"unknown run kind {self.kind!r}; one of {KNOWN_KINDS}"
            )
        if not self.artifacts:
            raise ValidationError("a run spec needs at least one artifact")
        for role, content_hash in self.artifacts.items():
            if not role or not content_hash:
                raise ValidationError(
                    f"artifact role {role!r} has an empty content hash"
                )
        # Freeze the mappings so a spec can never drift after hashing.
        object.__setattr__(self, "artifacts", dict(self.artifacts))
        object.__setattr__(self, "params", dict(self.params))
        object.__setattr__(self, "build", dict(self.build))

    # ------------------------------------------------------- construction

    @classmethod
    def from_artifacts(
        cls,
        kind: str,
        artifacts: Mapping[str, "object"],
        params: Mapping[str, object],
    ) -> "RunSpec":
        """Build a spec from role → :class:`~repro.art.artifact.Artifact`.

        When a ``gem5`` artifact is present, the simulator build info is
        lifted from that artifact's metadata — the same metadata the run
        layer uses to reconstruct the binary.
        """
        hashes = {role: art.hash for role, art in artifacts.items()}
        build = {}
        gem5 = artifacts.get("gem5")
        if gem5 is not None:
            meta = getattr(gem5, "metadata", {}) or {}
            build = {
                key: str(meta[key])
                for key in ("version", "isa", "variant")
                if key in meta
            }
        return cls(kind=kind, artifacts=hashes, params=params, build=build)

    # ------------------------------------------------------------ identity

    def canonical_document(self) -> Dict[str, object]:
        """The dict that gets serialized and hashed (also the archival
        form stored in run documents)."""
        return {
            "schema": SPEC_SCHEMA_VERSION,
            "kind": self.kind,
            "artifacts": dict(self.artifacts),
            "params": dict(self.params),
            "build": dict(self.build),
        }

    def canonical_json(self) -> str:
        """Canonical-JSON serialization (sorted keys, normalized numbers)."""
        return canonical_dumps(self.canonical_document())

    def fingerprint(self) -> str:
        """SHA-256 content address of this spec.

        This is the run's identity key: two runs with equal fingerprints
        are the same experiment point and may share one execution and one
        archived result.
        """
        return sha256_text(self.canonical_json())

    def prefix_document(self) -> Optional[Dict[str, object]]:
        """The boot-determining subset of this spec, or ``None``.

        Covers the guest-state artifacts (kernel, disk image), the
        platform-shape parameters, and the simulator build — everything
        that decides *what a boot produces* — while excluding the
        downstream-variant axes (cpu type, memory tech/channels,
        benchmark, input size).  Two specs with equal prefix documents
        can legally share one boot checkpoint.

        Only full-system runs boot a guest; other kinds have no prefix.
        """
        if self.kind != "fs":
            return None
        artifacts = {
            role: self.artifacts[role]
            for role in PREFIX_ARTIFACT_ROLES
            if role in self.artifacts
        }
        if not artifacts:
            return None
        return {
            "schema": PREFIX_SCHEMA_VERSION,
            "kind": self.kind,
            "artifacts": artifacts,
            "params": {
                key: self.params[key]
                for key in PREFIX_PARAM_KEYS
                if key in self.params
            },
            "build": dict(self.build),
        }

    def prefix_fingerprint(self) -> Optional[str]:
        """SHA-256 content address of the boot-determining prefix.

        The key under which boot checkpoints are stored and shared: all
        variant runs whose specs agree on this value may restore from
        one boot.  ``None`` when the spec has no boot prefix (non-fs
        kinds, or no guest-state artifacts).
        """
        document = self.prefix_document()
        if document is None:
            return None
        return sha256_text(canonical_dumps(document))

    # ------------------------------------------------------------- storage

    def to_document(self) -> Dict[str, object]:
        return self.canonical_document()

    @classmethod
    def from_document(cls, document: Mapping[str, object]) -> "RunSpec":
        return cls(
            kind=document["kind"],
            artifacts=dict(document.get("artifacts") or {}),
            params=dict(document.get("params") or {}),
            build=dict(document.get("build") or {}),
        )
