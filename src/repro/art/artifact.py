"""Artifact registration — the paper's Fig 3.

An artifact is "an object and/or component used in a gem5 run, or produced
via a gem5 execution".  Registration records six user-supplied attributes
(command, typ, name, cwd, path, inputs, documentation) and three generated
ones (hash, id, git), uploads any associated payload to the database, and
de-duplicates: registering identical content twice returns the same
artifact, while registering the same hash with conflicting attributes is an
error.

Payload sources, in order of precedence:

- ``content=`` bytes — for simulated components built in memory (a kernel
  binary from :func:`repro.guest.kernels.build_kernel_binary`, a serialized
  :class:`~repro.vfs.DiskImage`, a pseudo gem5 binary);
- ``path=`` pointing at a real host file or directory (hashed with MD5, as
  gem5art does);
- a (simulated or real) git repository at ``path`` — hashed by revision.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import DuplicateError, ValidationError
from repro.common.gitinfo import read_git_info
from repro.common.hashing import md5_bytes, md5_file, md5_tree
from repro.common.ids import new_uuid
from repro.common.jsonutil import dumps
from repro.art.db import ArtifactDB
from repro.guest.kernels import LinuxKernel, build_kernel_binary
from repro.sim.buildinfo import GEM5_REPO_URL, Gem5Build
from repro.vfs.image import DiskImage


@dataclass
class Artifact:
    """One registered artifact (a document plus convenience accessors)."""

    name: str
    typ: str
    path: str
    hash: str
    id: str
    command: str = ""
    cwd: str = "."
    documentation: str = ""
    inputs: List[str] = field(default_factory=list)
    git: Dict[str, str] = field(default_factory=dict)
    file_id: Optional[str] = None
    metadata: Dict[str, object] = field(default_factory=dict)
    _db: Optional[ArtifactDB] = None

    # ------------------------------------------------------- registration

    @classmethod
    def register_artifact(
        cls,
        db: ArtifactDB,
        name: str,
        typ: str,
        path: str,
        command: str = "",
        cwd: str = ".",
        documentation: str = "",
        inputs: Sequence["Artifact"] = (),
        content: Optional[bytes] = None,
        metadata: Optional[Dict[str, object]] = None,
    ) -> "Artifact":
        """Register (or fetch, if identical) an artifact.

        Raises :class:`DuplicateError` when an artifact with the same
        content hash exists under different attributes — the safety net
        the paper describes for resources altered between runs.
        """
        if not name or not typ:
            raise ValidationError("artifacts need a name and a type")
        content_hash, git_info, payload = cls._identify(path, content)
        input_ids = [artifact.id for artifact in inputs]
        existing = db.find_by_hash(content_hash)
        if existing is not None:
            return cls._reconcile(db, existing, name, typ, input_ids)
        file_id = None
        if payload is not None:
            file_id = db.upload_file(payload, filename=os.path.basename(path))
        document = {
            "_id": new_uuid(),
            "name": name,
            "type": typ,
            "path": path,
            "command": command,
            "cwd": cwd,
            "documentation": documentation,
            "inputs": input_ids,
            "hash": content_hash,
            "git": dict(git_info) if git_info else {},
            "file_id": file_id,
            "metadata": dict(metadata or {}),
        }
        db.put_artifact(document)
        return cls._from_document(db, document)

    #: camelCase alias matching the paper's Fig 3.
    registerArtifact = register_artifact

    @staticmethod
    def _identify(
        path: str, content: Optional[bytes]
    ) -> Tuple[str, Optional[Dict[str, str]], Optional[bytes]]:
        if content is not None:
            return md5_bytes(content), None, content
        if os.path.isdir(path):
            info = read_git_info(path)
            if info is not None:
                return info.revision, info.to_dict(), None
            return md5_tree(path), None, None
        if os.path.isfile(path):
            with open(path, "rb") as handle:
                payload = handle.read()
            return md5_file(path), None, payload
        raise ValidationError(
            f"artifact path {path!r} does not exist and no content was "
            "provided"
        )

    @classmethod
    def _reconcile(cls, db, existing, name, typ, input_ids) -> "Artifact":
        same = (
            existing["name"] == name
            and existing["type"] == typ
            and existing["inputs"] == input_ids
        )
        if not same:
            raise DuplicateError(
                f"an artifact with hash {existing['hash']} already exists "
                f"as {existing['name']!r} ({existing['type']}); refusing "
                "to register it under different attributes"
            )
        return cls._from_document(db, existing)

    @classmethod
    def _from_document(cls, db: ArtifactDB, document: Dict) -> "Artifact":
        return cls(
            name=document["name"],
            typ=document["type"],
            path=document["path"],
            hash=document["hash"],
            id=document["_id"],
            command=document.get("command", ""),
            cwd=document.get("cwd", "."),
            documentation=document.get("documentation", ""),
            inputs=list(document.get("inputs", [])),
            git=dict(document.get("git", {})),
            file_id=document.get("file_id"),
            metadata=dict(document.get("metadata", {})),
            _db=db,
        )

    @classmethod
    def load(cls, db: ArtifactDB, artifact_id: str) -> "Artifact":
        return cls._from_document(db, db.get_artifact(artifact_id))

    # ------------------------------------------------------------ payload

    def payload(self) -> bytes:
        if self.file_id is None or self._db is None:
            raise ValidationError(
                f"artifact {self.name!r} has no stored payload"
            )
        return self._db.download_file(self.file_id)


# ---------------------------------------------------------------- helpers
#
# Typed registration helpers for the simulated components this
# reproduction builds in memory.  Each embeds enough metadata for the run
# layer to reconstruct the executable object.


def register_gem5_binary(
    db: ArtifactDB,
    build: Gem5Build,
    name: str = "gem5",
    inputs: Sequence[Artifact] = (),
    documentation: str = "",
) -> Artifact:
    """Register a simulator build (the paper's canonical example)."""
    return Artifact.register_artifact(
        db,
        name=name,
        typ="gem5 binary",
        path=build.binary_name,
        command=build.scons_command(),
        cwd="gem5/",
        documentation=documentation
        or f"gem5 {build.version} compiled for {build.isa}",
        inputs=inputs,
        content=build.build_binary(),
        metadata={
            "version": build.version,
            "isa": build.isa,
            "variant": build.variant,
        },
    )


def register_kernel_binary(db: ArtifactDB, kernel: LinuxKernel) -> Artifact:
    """Register a compiled ``vmlinux`` (default config) for a kernel
    model."""
    return Artifact.register_artifact(
        db,
        name=f"vmlinux-{kernel.version}",
        typ="kernel",
        path=f"linux-stable/vmlinux-{kernel.version}",
        command="make -j8 vmlinux KCONFIG=default",
        cwd="linux-stable/",
        documentation=f"Linux {kernel.version} (default config)",
        content=build_kernel_binary(kernel),
        metadata={"kernel_version": kernel.version, "config": "default"},
    )


def register_disk_image(
    db: ArtifactDB,
    image: DiskImage,
    inputs: Sequence[Artifact] = (),
    documentation: str = "",
) -> Artifact:
    """Register a built disk image; the payload is the serialized image."""
    return Artifact.register_artifact(
        db,
        name=image.name,
        typ="disk image",
        path=f"disks/{image.name}.img",
        command="packer build template.json",
        cwd="disk-image/",
        documentation=documentation or f"disk image {image.name}",
        inputs=inputs,
        content=dumps(image.to_dict()).encode("utf-8"),
        metadata={"image_metadata": image.metadata},
    )


def load_disk_image(artifact: Artifact) -> DiskImage:
    """Reconstruct the DiskImage stored in a disk-image artifact."""
    from repro.common.jsonutil import loads

    if artifact.typ != "disk image":
        raise ValidationError(
            f"artifact {artifact.name!r} is a {artifact.typ!r}, not a "
            "disk image"
        )
    return DiskImage.from_dict(loads(artifact.payload().decode("utf-8")))


def register_repo(
    db: ArtifactDB,
    name: str,
    url: str = GEM5_REPO_URL,
    version: str = "HEAD",
) -> Artifact:
    """Register a source repository artifact by URL + version.

    For simulated repositories no checkout exists on disk; the revision is
    derived deterministically from (url, version), mirroring how gem5art
    records ``git_url`` + ``hash`` for real checkouts.
    """
    from repro.common.gitinfo import simulated_revision

    revision = simulated_revision(url, version)
    existing = db.find_by_hash(revision)
    if existing is not None:
        return Artifact._reconcile(db, existing, name, "git repo", [])
    document = {
        "_id": new_uuid(),
        "name": name,
        "type": "git repo",
        "path": f"{name}/",
        "command": f"git clone {url}",
        "cwd": ".",
        "documentation": f"{name} repository at {version}",
        "inputs": [],
        "hash": revision,
        "git": {"git_url": url, "hash": revision},
        "file_id": None,
        "metadata": {"version": version},
    }
    db.put_artifact(document)
    return Artifact._from_document(db, document)
