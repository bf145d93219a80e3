"""Boot-checkpoint storage keyed on RunSpec prefix fingerprints.

The paper's Fig-8 boot sweep re-simulates Linux boot for every variant,
even though most variants differ only in *measured-region* axes (CPU
model, memory technology, benchmark).  :class:`CheckpointStore` makes the
boot a shared, content-addressed stage: a
:class:`~repro.sim.checkpoint.Checkpoint` is archived under the
:meth:`~repro.art.spec.RunSpec.prefix_fingerprint` of the runs that can
legally restore it, so N variants sharing a boot prefix pay for exactly
one boot.

Storage, verification and degradation are the memo protocol of
:class:`~repro.art.cache.MemoStore` (chaos point ``checkpoint.get``;
every miss falls back to a full boot).  Who boots is not the store's
business: the planner (:func:`repro.art.tasks.run_boot_stage`) consults,
boots and stores once per unique prefix of its sweep, on its own thread,
and two sweeps racing on one database at worst both boot — the unique
index keeps the first checkpoint stored.
"""

from __future__ import annotations

import collections
from typing import Dict, Iterable, List, Optional

from repro.common.errors import DuplicateError, FaultInjectedError
from repro.common.jsonutil import canonical_dumps, loads
from repro.common.timeutil import iso_now
from repro.art.cache import Entry, MemoStore
from repro.art.db import ArtifactDB
from repro.art.spec import RunSpec
from repro.sim.checkpoint import Checkpoint


class CheckpointStore(MemoStore):
    """Prefix fingerprint → archived boot checkpoint, over an ArtifactDB.

    The checkpoint *document* lives in the ``checkpoints`` collection
    (unique on ``prefix``); the checkpoint *payload* — its canonical
    JSON — lives in the content-addressed FileStore, so integrity
    verification is a re-download away.
    """

    noun = "checkpoint"
    collection_name = "checkpoints"
    key_field = "prefix"
    origin_field = "checkpoint_id"
    label_field = "boot_type"
    listing = (
        "CHECKPOINT STORE",
        (("Prefix", "prefix", 12), ("Kernel", "kernel_version", None),
         ("Boot", "boot_type", None), ("CPUs", "num_cpus", None),
         ("Restores", "tally", None), ("Stored", "stored_at_wall", 19)),
    )
    _STAMP = "stored_at_wall"

    def __init__(self, db: ArtifactDB):
        super().__init__(db)
        # One document per prefix, declared on every open.
        self.collection.create_unique_index(self.key_field)

    def encode(self, prefix: str, checkpoint: Checkpoint) -> Entry:
        """Archive the payload blob and describe it as a store entry (a
        writer that then loses the insert race leaves at worst an
        unreferenced blob: equal checkpoints share one address)."""
        payload = canonical_dumps(checkpoint.to_dict()).encode("utf-8")
        file_id = self.db.upload_file(payload)
        return {
            "_id": f"ckpt-{prefix}",
            "prefix": prefix,
            "checkpoint_id": checkpoint.checkpoint_id,
            "file_id": file_id,
            "kernel_version": checkpoint.kernel_version,
            "boot_type": checkpoint.boot_type,
            "num_cpus": checkpoint.num_cpus,
            "memory_system": checkpoint.memory_system,
            "boot_seconds": checkpoint.boot_seconds,
            "stored_at_wall": iso_now(),
        }

    def store(self, prefix: str, checkpoint: Checkpoint) -> bool:
        """Archive ``checkpoint`` under ``prefix``; True when written.

        First writer wins: the unique index decides, so one that loses a
        race (another sweep sharing the database) returns False and
        never overwrites.  An injected write fault loses the same way,
        reported as ``checkpoint.error``: only the next sweep's shortcut
        is missing."""
        try:
            entry = self.encode(prefix, checkpoint)
            self.collection.insert_one(entry)
        except DuplicateError:
            return False
        except FaultInjectedError as error:
            self._emit("error", prefix=prefix, error=str(error))
            return False
        self._emit("store", **self._names(entry))
        return True

    def _drop(self, entry: Entry, reason: str) -> None:
        """Delete the document, so a recompute can store under its
        prefix again."""
        self.collection.delete_one({"prefix": entry["prefix"]})

    def blob_id(self, entry: Entry) -> str:
        return entry["file_id"]

    def decode(self, entry: Entry, payload: bytes) -> Checkpoint:
        return Checkpoint.from_dict(loads(payload.decode("utf-8")))

    def get(self, prefix: Optional[str]) -> Optional[Checkpoint]:
        """Fetch and *verify* a checkpoint; None means boot in full."""
        return None if prefix is None else self.consult(prefix)

    # ------------------------------------------------------------- hygiene

    def run_prefixes(self, query: Entry) -> List[str]:
        """The prefix fingerprint of every matching run document that
        has one (an fs run whose boot a checkpoint can stand in for)."""
        prefixes = (
            RunSpec.from_document(
                self.db.resolve_run(doc)["spec"]
            ).prefix_fingerprint()
            for doc in self.db.runs.find(query)
        )
        return [prefix for prefix in prefixes if prefix]

    def gc(self, live_prefixes: Iterable[str]) -> int:
        """Evict checkpoints whose prefix no longer has live run specs.

        ``live_prefixes`` is the set of prefix fingerprints still
        reachable from run documents (``run_prefixes({})``); everything
        else is an orphaned boot (rebuilt disk image, retired kernel)
        and is dropped, blob included.  Returns the number of entries
        evicted.
        """
        live = set(live_prefixes)
        evicted = 0
        for entry in self.entries():
            if entry["prefix"] in live:
                continue
            self._drop(entry, "gc")
            self.db.delete_file(entry["file_id"])
            self._emit("gc", **self._names(entry))
            evicted += 1
        return evicted

    # --------------------------------------------------------------- query

    def tallies(self) -> Dict[str, int]:
        """Prefix → runs that restored its checkpoint instead of booting
        (their documents say ``results.restored_boot``; one that adopted
        such a result from the run cache restored nothing)."""
        return collections.Counter(
            self.run_prefixes(
                {"results.restored_boot": True, "cache_hit": {"$ne": True}}
            )
        )

    def stats(self) -> Entry:
        """Summary counts for ``repro cache --kind ckpt stats``."""
        stats = super().stats("restores")
        stats["boot_seconds"] = sum(
            (entry.get("boot_seconds") or 0.0 for entry in self.entries()), 0.0
        )
        return stats
