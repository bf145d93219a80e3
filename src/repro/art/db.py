"""The artifact database facade.

Wraps :class:`repro.db.Database` with the schema gem5art expects: an
``artifacts`` collection with a unique index on the content hash (the
paper: "Duplicate artifacts are not permitted in the database"), a ``runs``
collection for run documents, and blob storage for artifact payloads.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.common.errors import NotFoundError
from repro.db import Database, connect

ARTIFACTS = "artifacts"
RUNS = "runs"


class ArtifactDB:
    """Schema-aware wrapper over the document database."""

    def __init__(self, database: Optional[Database] = None):
        self.database = database or connect("memory://")
        self.artifacts = self.database.collection(ARTIFACTS)
        self.runs = self.database.collection(RUNS)
        self.artifacts.create_unique_index("hash")

    # ---------------------------------------------------------- artifacts

    def put_artifact(self, document: Dict[str, Any]) -> str:
        return self.artifacts.insert_one(document)

    def get_artifact(self, artifact_id: str) -> Dict[str, Any]:
        doc = self.artifacts.find_one({"_id": artifact_id})
        if doc is None:
            raise NotFoundError(f"no artifact with id {artifact_id}")
        return doc

    def find_by_hash(self, content_hash: str) -> Optional[Dict[str, Any]]:
        return self.artifacts.find_one({"hash": content_hash})

    def __contains__(self, content_hash: str) -> bool:
        return self.find_by_hash(content_hash) is not None

    # --------------------------------------------------------------- files

    def upload_file(self, data: bytes, filename: str = None) -> str:
        return self.database.files.put_bytes(data, filename=filename)

    def download_file(self, file_id: str) -> bytes:
        return self.database.files.get_bytes(file_id)

    def has_file(self, file_id: str) -> bool:
        return file_id in self.database.files

    def delete_file(self, file_id: str) -> bool:
        """Drop a blob — corruption recovery only (see FileStore.delete)."""
        return self.database.files.delete(file_id)

    # ---------------------------------------------------------------- runs

    def put_run(self, document: Dict[str, Any]) -> str:
        return self.runs.insert_one(document)

    def update_run(self, run_id: str, update: Dict[str, Any]) -> bool:
        return self.runs.update_one({"_id": run_id}, update)

    def find_run(self, run_id: str) -> Optional[Dict[str, Any]]:
        """The run's document; None for a run without an outcome, which
        has none yet."""
        return self.runs.find_one({"_id": run_id})

    def get_run(self, run_id: str) -> Dict[str, Any]:
        doc = self.find_run(run_id)
        if doc is None:
            raise NotFoundError(f"no run with id {run_id}")
        return doc

    # --------------------------------------------------------------- misc

    def save(self) -> None:
        self.database.save()

    def describe(self) -> Dict[str, int]:
        return self.database.describe()
