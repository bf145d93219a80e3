"""Content hashing helpers.

gem5art identifies every artifact by an MD5 hash of its content (or by the git
revision when the artifact is a repository).  These helpers centralize the
hashing conventions so artifacts, disk images and database files all agree on
what "same content" means.
"""

from __future__ import annotations

import hashlib
import os
from typing import Iterable

_CHUNK_SIZE = 1 << 20


def md5_bytes(data: bytes) -> str:
    """Return the hex MD5 digest of a byte string."""
    return hashlib.md5(data).hexdigest()


def md5_text(text: str) -> str:
    """Return the hex MD5 digest of a text string (UTF-8 encoded)."""
    return md5_bytes(text.encode("utf-8"))


def md5_file(path: str) -> str:
    """Return the hex MD5 digest of a file on the host filesystem.

    Reads in chunks so arbitrarily large files can be hashed without loading
    them into memory, matching how gem5art hashes multi-GB disk images.
    """
    digest = hashlib.md5()
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(_CHUNK_SIZE)
            if not chunk:
                break
            digest.update(chunk)
    return digest.hexdigest()


def md5_tree(root: str) -> str:
    """Return a single MD5 digest covering a directory tree.

    The digest covers relative paths and file contents, in sorted order, so
    two trees with identical layout and content hash identically regardless
    of filesystem iteration order or timestamps.
    """
    digest = hashlib.md5()
    for relpath, content in _walk_sorted(root):
        digest.update(relpath.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(content)
        digest.update(b"\x00")
    return digest.hexdigest()


def _walk_sorted(root: str) -> Iterable[tuple]:
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for filename in sorted(filenames):
            full = os.path.join(dirpath, filename)
            rel = os.path.relpath(full, root)
            with open(full, "rb") as handle:
                yield rel, handle.read()


def sha256_bytes(data: bytes) -> str:
    """Return the hex SHA-256 digest of a byte string.

    Used where a stronger content address is wanted (the file store keys
    blobs by SHA-256 to make accidental collisions implausible).
    """
    return hashlib.sha256(data).hexdigest()


def sha256_text(text: str) -> str:
    """Return the hex SHA-256 digest of a text string (UTF-8 encoded).

    This is the fingerprint primitive for run specs: a canonical-JSON
    serialization goes in, a stable content address comes out.
    """
    return sha256_bytes(text.encode("utf-8"))
