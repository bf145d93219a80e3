"""The disk image: a virtual filesystem tree plus provenance metadata.

A :class:`DiskImage` is what Packer builds, what gem5art registers as a
``disk image`` artifact, and what the simulator mounts when booting a full
system.  Its content hash covers both the file tree and the metadata, so two
images built from the same recipe hash identically while any change — a new
package, a different compiler — produces a new artifact.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.common.errors import NotFoundError, ValidationError
from repro.common.hashing import md5_text
from repro.common.jsonutil import canonical_dumps, dumps, loads
from repro.vfs.node import VirtualDirectory, VirtualFile
from repro.vfs.path import dirname, normalize, split


class DiskImage:
    """A mountable, serializable virtual disk.

    ``metadata`` records the recipe-level facts the guest model needs at
    boot: the distribution name/version, the installed kernel version, the
    compiler that built the payload benchmarks, and arbitrary extra keys
    provisioners choose to record.
    """

    def __init__(self, name: str, metadata: Optional[Dict[str, Any]] = None):
        if not name:
            raise ValidationError("disk image needs a name")
        self.name = name
        self.metadata: Dict[str, Any] = dict(metadata or {})
        self.root = VirtualDirectory()
        # Canonical serialization of the tree, memoized because restore
        # compatibility checks hash the (large, rarely changing) tree on
        # every run.  Only the tree is cached — metadata is a plain dict
        # callers may mutate directly, so the final digest is cached
        # alongside a snapshot of the metadata it was computed from and
        # revalidated by equality on every call.
        self._tree_json: Optional[str] = None
        self._hash_cache: Optional[str] = None
        self._hash_snapshot: Optional[Tuple[str, str]] = None

    # -------------------------------------------------------------- files

    def write_file(
        self, path: str, content, executable: bool = False
    ) -> None:
        """Create or overwrite a file, creating parent directories."""
        if isinstance(content, str):
            content = content.encode("utf-8")
        directory = self._ensure_directory(dirname(path))
        name = split(path)[-1]
        directory.children[name] = VirtualFile(
            content=content, executable=executable
        )
        self._tree_json = None

    def read_file(self, path: str) -> bytes:
        node = self._resolve(path)
        if not isinstance(node, VirtualFile):
            raise ValidationError(f"{path} is a directory")
        return node.content

    def read_text(self, path: str) -> str:
        return self.read_file(path).decode("utf-8")

    def exists(self, path: str) -> bool:
        try:
            self._resolve(path)
            return True
        except NotFoundError:
            return False

    def mkdir(self, path: str) -> None:
        self._ensure_directory(path)
        self._tree_json = None

    def remove(self, path: str) -> None:
        segments = split(path)
        if not segments:
            raise ValidationError("cannot remove the root")
        parent = self._resolve("/" + "/".join(segments[:-1]))
        parent.remove(segments[-1])
        self._tree_json = None

    def listdir(self, path: str = "/") -> List[str]:
        node = self._resolve(path)
        if isinstance(node, VirtualFile):
            raise ValidationError(f"{path} is a file")
        return node.names()

    def walk(self) -> Iterator[Tuple[str, VirtualFile]]:
        """Yield every (absolute path, file) pair, deterministically."""
        return self.root.walk()

    def file_count(self) -> int:
        return sum(1 for _ in self.walk())

    def total_size(self) -> int:
        return sum(node.size for _, node in self.walk())

    def _resolve(self, path: str):
        node = self.root
        for segment in split(path):
            if isinstance(node, VirtualFile):
                raise NotFoundError(f"{path}: not a directory")
            if segment not in node.children:
                raise NotFoundError(f"no such path: {normalize(path)}")
            node = node.children[segment]
        return node

    def _ensure_directory(self, path: str) -> VirtualDirectory:
        node = self.root
        for segment in split(path):
            child = node.children.get(segment)
            if child is None:
                child = VirtualDirectory()
                node.children[segment] = child
            if isinstance(child, VirtualFile):
                raise ValidationError(
                    f"{path}: {segment!r} is a file, not a directory"
                )
            node = child
        return node

    # ----------------------------------------------------------- identity

    def content_hash(self) -> str:
        """MD5 over the canonical serialization (tree + metadata).

        Splices the memoized tree serialization into the canonical form
        of the full document.  ``canonical_dumps`` is compositional
        (recursive encode/normalize, per-dict key sort), so the spliced
        string is byte-identical to ``canonical_dumps(self.to_dict())``
        — the keys below appear in their sorted order.
        """
        if self._tree_json is None:
            self._tree_json = canonical_dumps(self.root.to_dict())
            self._hash_cache = None
        # repr() is a faithful fingerprint for JSON-ish metadata (it
        # distinguishes True/1/1.0 where dict equality does not) and is
        # far cheaper than canonical serialization; an order-only repr
        # difference merely causes a recompute.
        snapshot = (self.name, repr(self.metadata))
        if self._hash_cache is not None and self._hash_snapshot == snapshot:
            return self._hash_cache
        self._hash_cache = md5_text(
            '{"metadata":%s,"name":%s,"root":%s}'
            % (
                canonical_dumps(self.metadata),
                canonical_dumps(self.name),
                self._tree_json,
            )
        )
        self._hash_snapshot = snapshot
        return self._hash_cache

    # ------------------------------------------------------ serialization

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "metadata": self.metadata,
            "root": self.root.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DiskImage":
        image = cls(name=data["name"], metadata=data.get("metadata", {}))
        image.root = VirtualDirectory.from_dict(data["root"])
        image._tree_json = None
        return image

    def save(self, path: str) -> None:
        """Persist the image as a JSON file on the host."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str) -> "DiskImage":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(loads(handle.read()))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DiskImage)
            and self.name == other.name
            and self.metadata == other.metadata
            and self.root == other.root
        )

    def __repr__(self) -> str:
        return (
            f"DiskImage({self.name!r}, {self.file_count()} files, "
            f"{self.total_size()} bytes)"
        )
