"""Git provenance for artifacts.

gem5art stores, for every artifact that is a git repository, the repository
URL and the revision hash so third parties can recover the exact source even
without database access.  Real checkouts are read from ``.git``; most
resources in this reproduction are *simulated* repositories, whose revision
is derived deterministically from (URL, version).
"""

from __future__ import annotations

import os

from repro.common.hashing import md5_text
from repro.common.records import Frozen


class GitInfo(Frozen):
    """URL + revision pair identifying a repository state."""

    _fields = ("url", "revision")

    def __init__(self, url: str, revision: str):
        vars(self).update(url=url, revision=revision)

    def to_dict(self) -> dict:
        return {"git_url": self.url, "hash": self.revision}


def simulated_revision(url: str, version: str) -> str:
    """Derive a stable 40-hex-character revision for a simulated repo.

    The revision is a function of the URL and a human version label, so the
    same recipe always yields the same "commit".
    """
    seed = md5_text(f"{url}@{version}")
    return (seed + seed)[:40]


def read_git_info(path: str) -> GitInfo:
    """Read provenance for a checkout from its ``.git`` directory (HEAD
    is resolved one level of indirection deep).  Returns ``None`` when
    the path is not a repository, mirroring gem5art's behaviour of
    leaving the git dictionary blank.
    """
    git_dir = os.path.join(path, ".git")
    if os.path.isdir(git_dir):
        return _read_real_git(path, git_dir)
    return None


def _read_real_git(path: str, git_dir: str) -> GitInfo:
    head_path = os.path.join(git_dir, "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path, "r", encoding="utf-8") as handle:
        head = handle.read().strip()
    revision = head
    if head.startswith("ref: "):
        ref = head[len("ref: "):]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, "r", encoding="utf-8") as handle:
                revision = handle.read().strip()
        else:
            revision = _lookup_packed_ref(git_dir, ref) or head
    url = _read_origin_url(git_dir) or f"file://{os.path.abspath(path)}"
    return GitInfo(url=url, revision=revision)


def _lookup_packed_ref(git_dir: str, ref: str) -> str:
    packed = os.path.join(git_dir, "packed-refs")
    if not os.path.isfile(packed):
        return None
    with open(packed, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line.startswith("#") or line.startswith("^") or not line:
                continue
            parts = line.split(" ", 1)
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    return None


def _read_origin_url(git_dir: str) -> str:
    config_path = os.path.join(git_dir, "config")
    if not os.path.isfile(config_path):
        return None
    in_origin = False
    with open(config_path, "r", encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if stripped.startswith("["):
                in_origin = stripped.replace('"', "") == "[remote origin]"
                continue
            if in_origin and stripped.startswith("url"):
                _, _, url = stripped.partition("=")
                return url.strip()
    return None
